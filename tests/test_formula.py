import pytest
from hypothesis import given

import strategies
from foltl.acceptance import FuzzCase
from foltl.automaton import build_automaton
from foltl.events import EmptyLoopError, LassoTrace, parse_message
from foltl.formula import (
    FALSE_ATOM,
    MAX_NESTING,
    TRUE_ATOM,
    And,
    Const,
    Eq,
    Exists,
    FalseLit,
    Finally,
    Forall,
    FormulaSyntaxError,
    Globally,
    Implies,
    Neq,
    Next,
    Not,
    Or,
    Path,
    Release,
    ShadowedVariableError,
    TrueLit,
    UnboundVariableError,
    Until,
    Var,
    _tokenize,
    children,
    ensure_well_formed,
    format_formula,
    negate,
    node_count,
    parse,
    temporal_depth,
    to_nnf,
)
from foltl.gen import GenBounds

A = Eq(Const("a"), Const("a"))
B = Eq(Const("b"), Const("b"))
C = Eq(Const("c"), Const("c"))


def _closed(formula):
    try:
        ensure_well_formed(formula)
    except UnboundVariableError:
        return False
    return True


class TestParse:
    def test_quantified_atom(self):
        got = parse('exists x in "/m/a" : x = "v"')
        assert got == Exists("x", Path(("m", "a")), Eq(Var("x"), Const("v")))

    def test_forall_with_nested_path(self):
        got = parse('forall y in "/m/c/d" : y != "q"')
        assert got == Forall("y", Path(("m", "c", "d")), Neq(Var("y"), Const("q")))

    def test_literals(self):
        assert parse("true") == TrueLit()
        assert parse("false") == FalseLit()

    def test_unbound_variable_rejected(self):
        with pytest.raises(UnboundVariableError) as err:
            parse('x = "v"')
        assert err.value.name == "x"

    def test_shadowing_rejected(self):
        with pytest.raises(ShadowedVariableError) as err:
            parse('exists x in "/m/a" : X exists x in "/m/b" : x = x')
        assert err.value.name == "x"

    def test_sibling_quantifiers_may_reuse_names(self):
        got = parse('(exists x in "/m/a" : x = "v") & (exists x in "/m/b" : x = "w")')
        assert isinstance(got, And)

    def test_variable_out_of_scope_after_quantifier(self):
        with pytest.raises(UnboundVariableError):
            parse('(exists x in "/m/a" : x = "v") & x = "w"')

    def test_until_release_right_associative_same_level(self):
        got = parse('"a" = "a" U "b" = "b" R "c" = "c"')
        assert got == Until(A, Release(B, C))

    def test_implies_right_associative(self):
        got = parse('"a" = "a" -> "b" = "b" -> "c" = "c"')
        assert got == Implies(A, Implies(B, C))

    def test_and_binds_tighter_than_or(self):
        got = parse('"a" = "a" | "b" = "b" & "c" = "c"')
        assert got == Or(A, And(B, C))

    def test_until_binds_tighter_than_and(self):
        got = parse('"a" = "a" & "b" = "b" U "c" = "c"')
        assert got == And(A, Until(B, C))

    def test_quantifier_body_is_unary(self):
        got = parse('exists x in "/m/a" : x = "v" & "a" = "a"')
        assert got == And(Exists("x", Path(("m", "a")), Eq(Var("x"), Const("v"))), A)

    def test_negation_is_unary(self):
        got = parse('! "a" = "a" U "b" = "b"')
        assert got == Until(Not(A), B)

    def test_parentheses_override(self):
        got = parse('("a" = "a" | "b" = "b") & "c" = "c"')
        assert got == And(Or(A, B), C)

    def test_string_escapes(self):
        got = parse('"a\\"b" = "c\\\\d"')
        assert got == Eq(Const('a"b'), Const("c\\d"))

    def test_keywords_are_not_identifiers(self):
        with pytest.raises(FormulaSyntaxError):
            parse('exists U in "/m/a" : U = "v"')

    def test_syntax_error_carries_position_and_expectation(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse('"a" = ')
        assert err.value.position == 6
        assert "constant" in err.value.expected

    @pytest.mark.parametrize(
        "source,message",
        [
            # A string token is quoted, even an empty one; only EOF is end of input.
            ('exists x in "/m/a" "" x = "v"', "at offset 19: expected ':', found \"\""),
            ('"a" = "b" ""', 'at offset 10: expected end of input, found ""'),
            ('exists x in "/m/a" "U" x = "v"', "at offset 19: expected ':', found \"U\""),
            ('exists x "/m" : x = "a"', "at offset 9: expected 'in', found \"/m\""),
            ('exists "x" in "/m" : x = "a"', 'at offset 7: expected variable name, found "x"'),
            ("exists x in", "at offset 11: expected quoted path, found end of input"),
            ('"a" = ', "at offset 6: expected variable or quoted constant, found end of input"),
            ('exists x in "/m" x = "a"', "at offset 17: expected ':', found x"),
        ],
    )
    def test_syntax_error_names_the_token_found(self, source, message):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(source)
        assert str(err.value) == message

    def test_unterminated_string(self):
        with pytest.raises(FormulaSyntaxError):
            parse('"a = "a"')

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse('"a" = "a" )')

    def test_path_must_be_rooted(self):
        with pytest.raises(FormulaSyntaxError):
            parse('exists x in "m/a" : x = "v"')

    def test_path_rejects_empty_segment(self):
        with pytest.raises(FormulaSyntaxError):
            parse('exists x in "/m//a" : x = "v"')

    def test_stray_dash_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse('"a" - "b"')

    def test_nesting_at_the_cap_parses(self):
        assert temporal_depth(parse("X " * MAX_NESTING + '"a" = "a"')) == MAX_NESTING
        assert node_count(parse("(" * MAX_NESTING + '"a" = "a"' + ")" * MAX_NESTING)) == 1

    @pytest.mark.parametrize(
        "text,position",
        [
            ("X " * (MAX_NESTING + 1) + '"a" = "a"', 2 * MAX_NESTING),
            ("(" * (MAX_NESTING + 1) + '"a" = "a"' + ")" * (MAX_NESTING + 1), MAX_NESTING),
            (" & ".join(['"a" = "a"'] * (MAX_NESTING + 2)), 12 * MAX_NESTING + 10),
            ('exists x in "/m/a" : ' * (MAX_NESTING + 1) + 'x = "v"', 21 * MAX_NESTING),
        ],
    )
    def test_nesting_beyond_the_cap_is_a_syntax_error(self, text, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert err.value.position == position
        assert str(MAX_NESTING) in err.value.expected

    def test_nesting_counts_one_branch_not_the_whole_text(self):
        # The right operand sits one level below the &, the left one is
        # parsed before the & is seen.
        deep = "X " * (MAX_NESTING - 1) + '"a" = "a"'
        assert isinstance(parse(f"{deep} & {deep}"), And)

    def test_syntax_error_reported_before_scope_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse('x = "v" &')

    @given(strategies.formulas())
    def test_round_trip_through_text(self, formula):
        assert parse(format_formula(formula)) == formula


_ESCAPE_ERROR = 'escape sequence \\" or \\\\'


class TestTokenize:
    """Exact tokens, as (kind, text, position), or the exact error, as (position, expected, message)."""

    @pytest.mark.parametrize(
        "source,tokens",
        [
            # U+00A0 and U+2028 are whitespace (str.isspace), so they only separate.
            ('"a"\u00a0=\u2028"b"', [("STRING", "a", 0), ("=", "=", 4), ("STRING", "b", 6), ("EOF", "", 9)]),
            # A name is a letter or _, then letters, digits or _, in any script.
            ("caf\u00e9 != _x\u0663", [("IDENT", "caf\u00e9", 0), ("!=", "!=", 5), ("IDENT", "_x\u0663", 8), ("EOF", "", 11)]),
            ("!x", [("!", "!", 0), ("IDENT", "x", 1), ("EOF", "", 2)]),
            ("a->b", [("IDENT", "a", 0), ("->", "->", 1), ("IDENT", "b", 3), ("EOF", "", 4)]),
            ('"a\\\\\\"b"', [("STRING", 'a\\"b', 0), ("EOF", "", 8)]),
        ],
    )
    def test_tokens(self, source, tokens):
        assert [tuple(token) for token in _tokenize(source)] == tokens

    @pytest.mark.parametrize(
        "source,position,expected,message",
        [
            # Superscript two and Arabic-Indic three are digits, not letters.
            ("\u00b2x", 0, "token", "at offset 0: expected token, found '\u00b2'"),
            ("x = \u0663", 4, "token", "at offset 4: expected token, found '\u0663'"),
            ('"a\\x"', 2, _ESCAPE_ERROR, f"at offset 2: expected {_ESCAPE_ERROR}"),
            ('"a\\', 2, _ESCAPE_ERROR, f"at offset 2: expected {_ESCAPE_ERROR}"),
            ('x = "a', 4, "closing quote", "at offset 4: expected closing quote"),
            ('"a\\"', 0, "closing quote", "at offset 0: expected closing quote"),
            ('"a" - "b"', 4, "token", "at offset 4: expected token, found -"),
        ],
    )
    def test_errors(self, source, position, expected, message):
        with pytest.raises(FormulaSyntaxError) as err:
            _tokenize(source)
        assert (err.value.position, err.value.expected, str(err.value)) == (position, expected, message)


class TestRecords:
    """Nodes and the other records are namedtuples that act as frozen dataclasses."""

    def test_equal_only_to_their_own_kind(self):
        x, v = Var("x"), Const("v")
        assert Eq(x, v) == Eq(Var("x"), Const("v"))
        assert Eq(x, v) != Neq(x, v) and not Eq(x, v) == Neq(x, v)
        assert Eq(x, v) != (x, v) and (x, v) != Eq(x, v)
        assert Var("x") != Const("x") and Var("x") != ("x",)
        assert TrueLit() != FalseLit() and TrueLit() != ()

    def test_hash_is_the_field_tuple_hash(self):
        a, b = Const("a"), Const("b")
        assert hash(Eq(a, b)) == hash((a, b)) == hash((("a",), ("b",)))
        assert hash(TrueLit()) == hash(())
        assert len({Eq(a, b), Neq(a, b), Eq(Const("a"), Const("b"))}) == 2

    def test_empty_records_are_truthy(self):
        assert TrueLit() and FalseLit()
        assert bool(TrueLit()) is True and bool(FalseLit()) is True

    def test_fields_are_read_only(self):
        node = Eq(Var("x"), Const("v"))
        with pytest.raises(AttributeError):
            node.left = Const("w")
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            GenBounds().max_depth = 9

    def test_repr_keeps_the_dataclass_format(self):
        assert repr(TrueLit()) == "TrueLit()"
        assert repr(Exists("x", Path(("m", "a")), Eq(Var("x"), Const("v")))) == (
            "Exists(var='x', path=Path(segments=('m', 'a')), "
            "body=Eq(left=Var(name='x'), right=Const(value='v')))"
        )

    def test_construction_is_validated(self):
        with pytest.raises(ValueError):
            Path(())
        with pytest.raises(ValueError):
            Path(segments=("m", ""))
        with pytest.raises(EmptyLoopError):
            LassoTrace(prefix=(), loop=())

    def test_keywords_and_defaults(self):
        assert GenBounds(max_depth=4) == GenBounds(4, 2, 4, 3, 6, 12)
        assert GenBounds().size_budget == 12
        trace = LassoTrace(prefix=(), loop=(parse_message('{"m":{}}'),))
        case = FuzzCase(
            index=0, formula=TrueLit(), trace=trace, automaton_result=True, oracle_result=True, state_count=3
        )
        assert case.limit_states == 0 and case.agree
        assert case == FuzzCase(0, TrueLit(), trace, True, True, 3, 0)

    def test_match_by_position_and_keyword(self):
        match Until(A, B):
            case Release():
                pytest.fail("matched another kind")
            case Until(left, right=right):
                assert (left, right) == (A, B)


class TestChildren:
    def test_leaves_have_none(self):
        for leaf in (TrueLit(), FalseLit(), A, Neq(Var("x"), Const("v"))):
            assert children(leaf) == ()

    def test_unary_nodes_yield_the_body(self):
        path = Path(("m", "a"))
        for node in (Not(A), Next(A), Finally(A), Globally(A), Exists("x", path, A), Forall("x", path, A)):
            assert children(node) == (A,)

    def test_binary_nodes_yield_left_then_right(self):
        for ctor in (And, Or, Implies, Until, Release):
            assert children(ctor(A, B)) == (A, B)

    def test_rejects_non_formula(self):
        with pytest.raises(TypeError):
            children(Var("x"))
        with pytest.raises(TypeError):
            children("x = y")


class TestNormalForm:
    def test_literal_lowering(self):
        assert to_nnf(TrueLit()) == TRUE_ATOM
        assert to_nnf(FalseLit()) == FALSE_ATOM
        assert TRUE_ATOM == Eq(Const("true"), Const("true"))
        assert FALSE_ATOM == Neq(Const("true"), Const("true"))

    def test_finally_lowering(self):
        assert to_nnf(Finally(A)) == Until(TRUE_ATOM, A)

    def test_globally_lowering(self):
        assert to_nnf(Globally(A)) == Release(FALSE_ATOM, A)

    def test_implication_lowering(self):
        got = to_nnf(Implies(Eq(Const("a"), Const("b")), B))
        assert got == Or(Neq(Const("a"), Const("b")), B)

    def test_negated_atoms_flip(self):
        assert to_nnf(Not(Eq(Const("a"), Const("b")))) == Neq(Const("a"), Const("b"))
        assert to_nnf(Not(Neq(Const("a"), Const("b")))) == Eq(Const("a"), Const("b"))

    def test_double_negation(self):
        assert to_nnf(Not(Not(A))) == A

    def test_de_morgan(self):
        neg_a = Neq(Const("a"), Const("a"))
        neg_b = Neq(Const("b"), Const("b"))
        assert to_nnf(Not(And(A, B))) == Or(neg_a, neg_b)
        assert to_nnf(Not(Or(A, B))) == And(neg_a, neg_b)

    def test_negation_commutes_with_next(self):
        assert to_nnf(Not(Next(A))) == Next(Neq(Const("a"), Const("a")))

    def test_negated_until_release_are_dual(self):
        neg_a = Neq(Const("a"), Const("a"))
        neg_b = Neq(Const("b"), Const("b"))
        assert to_nnf(Not(Until(A, B))) == Release(neg_a, neg_b)
        assert to_nnf(Not(Release(A, B))) == Until(neg_a, neg_b)

    def test_negated_finally_becomes_release(self):
        got = to_nnf(Not(Finally(A)))
        assert got == Release(FALSE_ATOM, Neq(Const("a"), Const("a")))

    def test_negated_globally_becomes_until(self):
        got = to_nnf(Not(Globally(A)))
        assert got == Until(TRUE_ATOM, Neq(Const("a"), Const("a")))

    def test_negated_quantifiers_are_dual(self):
        path = Path(("m", "a"))
        body = Eq(Var("x"), Const("v"))
        assert to_nnf(Not(Exists("x", path, body))) == Forall("x", path, Neq(Var("x"), Const("v")))
        assert to_nnf(Not(Forall("x", path, body))) == Exists("x", path, Neq(Var("x"), Const("v")))

    def test_rejects_non_formula(self):
        for value in (Var("x"), "x", 3, Not(Var("x"))):
            with pytest.raises(TypeError):
                to_nnf(value)
            with pytest.raises(TypeError):
                negate(value)

    def test_non_formula_operand_fails_the_build(self):
        # to_nnf may return a node with a non-formula operand; building
        # the automaton from it is what raises.
        x = Var("x")
        for node in (Finally(x), Globally(x), Implies(x, A), Implies(A, x), And(A, x), Next(x)):
            with pytest.raises(TypeError):
                build_automaton(to_nnf(node))

    @given(strategies.formulas())
    def test_output_is_normal_form(self, formula):
        # Building the automaton raises on any kind outside normal form.
        build_automaton(to_nnf(formula))

    @given(strategies.formulas())
    def test_normal_form_is_the_fixed_point_of_lowering(self, formula):
        try:
            build_automaton(formula)
        except ValueError as err:
            assert type(err) is ValueError
            assert str(err) == "subformula closure is defined on negation normal form only"
            assert to_nnf(formula) != formula
        else:
            assert to_nnf(formula) == formula

    @given(strategies.formulas())
    def test_idempotent(self, formula):
        once = to_nnf(formula)
        assert to_nnf(once) == once

    @given(strategies.formulas())
    def test_negate_involution(self, formula):
        assert negate(negate(formula)) == to_nnf(formula)

    @given(strategies.formulas())
    def test_temporal_depth_preserved(self, formula):
        assert temporal_depth(to_nnf(formula)) == temporal_depth(formula)

    @given(strategies.formulas(scope=frozenset({"x"})))
    def test_well_formed_in_its_scope_preserved(self, formula):
        # x is the only variable the formula may leave free, so being
        # closed says whether x occurs free; to_nnf must keep both facts.
        normal = to_nnf(formula)
        ensure_well_formed(normal, frozenset({"x"}))
        assert _closed(normal) == _closed(formula)


class TestMeasures:
    def test_depth_of_atom_is_zero(self):
        assert temporal_depth(A) == 0
        assert temporal_depth(TrueLit()) == 0

    def test_depth_counts_nested_temporal_operators(self):
        assert temporal_depth(Next(A)) == 1
        assert temporal_depth(Until(Next(A), Next(B))) == 2
        assert temporal_depth(Globally(Finally(A))) == 2

    def test_depth_skips_boolean_structure(self):
        assert temporal_depth(And(Next(A), B)) == 1
        assert temporal_depth(Not(Exists("x", Path(("m", "a")), Next(Eq(Var("x"), Const("v")))))) == 1

    def test_node_count(self):
        assert node_count(A) == 1
        assert node_count(Until(A, And(B, C))) == 5


class TestClosure:
    # The closure is the automaton's state table.
    def test_atom_closure_is_itself(self):
        assert build_automaton(A).states == (A,)

    def test_until_closure_in_first_visit_order(self):
        phi = Until(A, B)
        assert build_automaton(phi).states == (phi, A, B)

    def test_release_with_quantifier(self):
        body = Eq(Var("x"), Const("b"))
        exists = Exists("x", Path(("m", "a")), body)
        phi = Release(A, exists)
        assert build_automaton(phi).states == (phi, A, exists, body)

    def test_duplicate_subtrees_collapse(self):
        phi = Or(A, A)
        assert build_automaton(phi).states == (phi, A)

    def test_requires_normal_form(self):
        with pytest.raises(ValueError):
            build_automaton(Not(A))
        with pytest.raises(ValueError):
            build_automaton(Finally(A))

    @given(strategies.formulas())
    def test_closure_no_larger_than_node_count(self, formula):
        normal = to_nnf(formula)
        assert len(build_automaton(normal).states) <= node_count(normal)

    @given(strategies.nnf_formulas())
    def test_member_closures_are_subsets(self, formula):
        # Closed under children, so each member's own closure is inside it.
        states = build_automaton(formula).states
        for member in states:
            assert set(children(member)) <= set(states)


class TestWellFormed:
    def test_accepts_closed_formula(self):
        ensure_well_formed(parse('forall x in "/m/a" : F x = "v"'))

    def test_rejects_unbound(self):
        with pytest.raises(UnboundVariableError):
            ensure_well_formed(Eq(Var("x"), Const("v")))

    def test_rejects_shadowing(self):
        path = Path(("m", "a"))
        inner = Exists("x", path, Eq(Var("x"), Const("v")))
        with pytest.raises(ShadowedVariableError):
            ensure_well_formed(Forall("x", path, inner))

    @given(strategies.formulas())
    def test_generated_formulas_are_well_formed(self, formula):
        ensure_well_formed(formula)
