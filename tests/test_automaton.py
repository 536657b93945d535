import itertools
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import foltl.automaton as automaton_module
import strategies
from foltl.automaton import (
    EMPTY_VALUATION,
    FALSE_DNF,
    TRUE_DNF,
    Automaton,
    _normalize,
    build_automaton,
    dnf_and,
    dnf_or,
    value_of,
)
from foltl.acceptance import oracle_eval
from foltl.events import LassoTrace, dom, message_from_obj, parse_message
from foltl.formula import (
    And,
    Const,
    Eq,
    Exists,
    FalseLit,
    Finally,
    Formula,
    FormulaError,
    Globally,
    Neq,
    Next,
    Not,
    Or,
    Parser,
    Path,
    Release,
    ShadowedVariableError,
    TrueLit,
    UnboundVariableError,
    Until,
    Var,
    children,
    ensure_well_formed,
    format_formula,
    node_count,
    parse,
    temporal_depth,
    to_nnf,
)
from foltl.gen import GenBounds, case_rng, gen_formula, gen_lasso
from foltl.monitor import Verdict, initial_configuration, step, verdict

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
A = Eq(Const("a"), Const("a"))
B = Eq(Const("b"), Const("b"))
NO = Neq(Const("a"), Const("a"))

STOCK = parse_message(
    '{"message":{"action":"placeBuyOrder",'
    '"stock":[{"name":"stock-1","amount":"123"},{"name":"stock-2","amount":"456"}]}}'
)
AB = parse_message('{"m":{"a":["a","b"]}}')
FREE_X = Eq(Var("x"), Const("a"))
REBOUND = Exists("x", Path(("m", "a")), Exists("x", Path(("m", "a")), FREE_X))
LOOP_AB = LassoTrace(prefix=(), loop=(AB,))
# An equal subtree in two scopes: x is free in neither, bound twice in the second.
INNER = Exists("x", Path(("m", "a")), FREE_X)
SHADOWED = And(INNER, Exists("x", Path(("m", "b")), INNER))
SHADOWED_SOURCE = '(exists x in "/m/a" : x = "a") & exists x in "/m/b" : exists x in "/m/a" : x = "a"'


def _subtrees(formula):
    """The formula and every node below it, read through children."""
    yield formula
    for child in children(formula):
        yield from _subtrees(child)


class TestValuation:
    def test_equality_ignores_order(self):
        x_first = EMPTY_VALUATION | {("x", "1")} | {("y", "2")}
        y_first = EMPTY_VALUATION | {("y", "2")} | {("x", "1")}
        assert x_first == y_first and hash(x_first) == hash(y_first)

    def test_double_binding_rejected(self):
        with pytest.raises(ShadowedVariableError) as err:
            build_automaton(REBOUND)
        assert err.value.name == "x"

    def test_value_of_bound_variable(self):
        assert value_of(frozenset({("x", "1"), ("y", "2")}), Var("y")) == "2"

    def test_extend_is_persistent(self):
        v = EMPTY_VALUATION | {("x", "1")}
        assert EMPTY_VALUATION == frozenset()
        assert value_of(v, Var("x")) == "1"

    def test_oracle_rejects_rebinding(self):
        with pytest.raises(ShadowedVariableError):
            oracle_eval(EMPTY_VALUATION, REBOUND, LOOP_AB)
        inner = Exists("x", Path(("m", "a")), FREE_X)
        with pytest.raises(ShadowedVariableError):
            oracle_eval(frozenset({("x", "a")}), inner, LOOP_AB)

    def test_value_of_constant_ignores_bindings(self):
        assert value_of(EMPTY_VALUATION, Const("k")) == "k"

    def test_value_of_unbound_variable(self):
        with pytest.raises(KeyError) as err:
            value_of(EMPTY_VALUATION, Var("x"))
        assert err.value.args == ("x",)


def _ob(state, **bindings):
    return (frozenset(bindings.items()), state)


def _lit(state, **bindings):
    """The DNF holding one obligation alone."""
    return frozenset({frozenset({_ob(state, **bindings)})})


class TestDnfConversion:
    def test_plain_atom(self):
        assert dnf_or([_lit(3)]) == _lit(3)
        assert dnf_and([_lit(3)]) == _lit(3)

    def test_top_atom_is_vacuous(self):
        assert dnf_and([TRUE_DNF]) == TRUE_DNF
        assert dnf_and([TRUE_DNF, _lit(2)]) == _lit(2)

    def test_bottom_atom_kills_its_conjunct(self):
        assert dnf_or([FALSE_DNF]) == FALSE_DNF
        got = dnf_or([dnf_and([FALSE_DNF, _lit(2)]), _lit(1)])
        assert got == _lit(1)

    def test_conjunction_distributes(self):
        got = dnf_and([dnf_or([_lit(0), _lit(1)]), dnf_or([_lit(2), _lit(3)])])
        assert got == {
            frozenset({_ob(0), _ob(2)}),
            frozenset({_ob(0), _ob(3)}),
            frozenset({_ob(1), _ob(2)}),
            frozenset({_ob(1), _ob(3)}),
        }

    def test_subsuming_conjunct_is_dropped(self):
        got = dnf_or([dnf_and([_lit(0), _lit(1)]), _lit(0)])
        assert got == _lit(0)

    def test_duplicates_collapse(self):
        got = dnf_or([_lit(0), _lit(0)])
        assert len(got) == 1

    def test_same_state_different_bindings_are_distinct(self):
        got = dnf_or([_lit(0, x="1"), _lit(0, x="2")])
        assert len(got) == 2

    def test_operand_order_is_invisible(self):
        parts = [dnf_and([_lit(2), _lit(1)]), _lit(9), _lit(4)]
        assert dnf_or(parts) == dnf_or(parts[::-1])
        assert dnf_and(parts) == dnf_and(parts[::-1])

    def test_empty_combinators(self):
        assert dnf_and([]) == TRUE_DNF
        assert dnf_or([]) == FALSE_DNF

    def test_combinator_identities(self):
        plain = _lit(0)
        assert dnf_and([plain, TRUE_DNF]) == plain
        assert dnf_and([plain, FALSE_DNF]) == FALSE_DNF
        assert dnf_or([plain, FALSE_DNF]) == plain
        assert dnf_or([plain, TRUE_DNF]) == TRUE_DNF


def _best_of_three(run):
    """The least of three timings of run(), and what its last call returned."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - started)
    return min(times), result


class TestNormalize:
    def test_zero_or_one_conjunct_is_returned_as_is(self):
        for dnf in (FALSE_DNF, TRUE_DNF, _lit(3), _lit(0, x="a")):
            assert _normalize(dnf) is dnf
        assert _normalize({frozenset({_ob(1)})}) == _lit(1)

    def test_subsumed_conjunct_is_removed_from_several(self):
        short, long = frozenset({_ob(0)}), frozenset({_ob(0), _ob(1)})
        assert _normalize(frozenset({short, long})) == {short}
        other = frozenset({_ob(2, x="a")})
        assert _normalize({long, other, short}) == {short, other}
        assert _normalize({frozenset(), long, other}) == TRUE_DNF

    def test_conjuncts_of_one_size_are_not_compared(self):
        # 4000 pending bodies make 4000 conjuncts of one obligation each.
        # None can subsume another, so delta normalizes them in linear
        # time; comparing every pair made delta take 40 to 80 times as long
        # as the rule itself.
        message = message_from_obj({"m": {"a": [f"v{i}" for i in range(4000)]}})
        auto = build_automaton(parse('exists x in "/m/a" : F x = "z"'))
        letter = auto.letter(message)
        rule, _ = _best_of_three(lambda: auto._rules[0](EMPTY_VALUATION, letter))
        normalized, dnf = _best_of_three(lambda: auto.delta(auto.initial, letter))
        assert len(dnf) == 4000
        assert normalized < 3 * rule


_UNIVERSE = (
    (EMPTY_VALUATION, 0),
    (EMPTY_VALUATION, 1),
    (frozenset({("x", "a")}), 1),
    (EMPTY_VALUATION, 2),
)


def _antichain(conjuncts):
    """The minimal members of a set of conjuncts, as a DNF operand."""
    return frozenset(c for c in conjuncts if not any(other < c for other in conjuncts))


_CONJUNCTS = st.frozensets(st.sampled_from(_UNIVERSE), max_size=3)
_SINGLE = _CONJUNCTS.map(lambda c: _antichain({c}))
_SEVERAL = st.sets(_CONJUNCTS, min_size=2, max_size=4).map(_antichain)
_OPERANDS = st.lists(
    st.one_of(st.just(TRUE_DNF), st.just(FALSE_DNF), _SINGLE, _SEVERAL), max_size=4
)
# At least one single-conjunct operand interleaved with several-conjunct ones.
_MIXED = st.tuples(
    st.lists(_SINGLE, min_size=1, max_size=3), st.lists(_SEVERAL, min_size=1, max_size=2)
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


def _eval_dnf(dnf, truth):
    return any(conjunct <= truth for conjunct in dnf)


def _assignments():
    for pick in itertools.product((False, True), repeat=len(_UNIVERSE)):
        yield frozenset(ob for ob, take in zip(_UNIVERSE, pick) if take)


def _assert_antichain(dnf):
    for left, right in itertools.combinations(dnf, 2):
        assert not (left <= right or right <= left)


class TestDnfEquivalence:
    @given(_OPERANDS)
    def test_equivalent_under_every_assignment(self, operands):
        conjoined = dnf_and(operands)
        disjoined = dnf_or(operands)
        for truth in _assignments():
            assert _eval_dnf(conjoined, truth) == all(_eval_dnf(d, truth) for d in operands)
            assert _eval_dnf(disjoined, truth) == any(_eval_dnf(d, truth) for d in operands)

    @given(_OPERANDS)
    def test_result_is_an_antichain(self, operands):
        _assert_antichain(dnf_and(operands))
        _assert_antichain(dnf_or(operands))

    @given(_OPERANDS)
    def test_idempotent(self, operands):
        for d in (*operands, dnf_and(operands), dnf_or(operands)):
            assert dnf_and([d, d]) == d
            assert dnf_or([d, d]) == d

    @given(_MIXED)
    def test_single_conjunct_operands_mixed_with_several(self, operands):
        conjoined = dnf_and(operands)
        _assert_antichain(conjoined)
        assert dnf_and([conjoined, conjoined]) == conjoined
        for truth in _assignments():
            assert _eval_dnf(conjoined, truth) == all(_eval_dnf(d, truth) for d in operands)


class TestAcceptingSets:
    def test_atom_formula_accepts_only_top(self):
        auto = build_automaton(A)
        assert auto.accepting == frozenset()

    def test_until_is_not_accepting(self):
        auto = build_automaton(Until(A, B))
        assert auto.states.index(Until(A, B)) not in auto.accepting

    def test_release_accepts_itself(self):
        phi = Release(NO, A)
        auto = build_automaton(phi)
        assert auto.states.index(phi) in auto.accepting

    def test_nested_release_inside_until(self):
        inner = Release(A, B)
        auto = build_automaton(Until(A, inner))
        assert auto.accepting == {auto.states.index(inner)}

    def test_sugar_below_the_root_is_lowered(self):
        # Sugar inside the Release whose state accepts: the states are
        # those of the normal form, and the Release still accepts.
        not_b = Neq(Const("b"), Const("b"))
        auto = build_automaton(Release(A, Not(B)))
        assert auto.states == (Release(A, not_b), A, not_b)
        assert auto.accepting == {0}


class TestConstruction:
    @given(strategies.formulas())
    def test_formula_as_written_builds_its_normal_form(self, formula):
        auto, normal = Automaton(formula), Automaton(to_nnf(formula))
        assert auto.states == normal.states
        assert auto.accepting == normal.accepting

    @given(strategies.formulas())
    def test_negation_builds_as_its_normal_form(self, formula):
        auto, negated = Automaton(Not(formula)), Automaton(to_nnf(Not(formula)))
        assert auto.states == negated.states
        assert auto.accepting == negated.accepting

    def test_state_table_layout(self):
        phi = Until(A, B)
        auto = build_automaton(phi)
        assert auto.states == (phi, A, B)
        assert auto.initial == (EMPTY_VALUATION, 0)

    def test_request_ack_state_count(self):
        nnf = to_nnf(parse('G forall x in "/m/req" : F exists y in "/m/ack" : y = x'))
        auto = build_automaton(nnf)
        assert len(auto.states) == 5
        assert auto.accepting == {0}

    def test_shared_subtrees_collapse(self):
        auto = build_automaton(Or(A, A))
        assert auto.states == (Or(A, A), A)

    def test_state_labels(self):
        # Every state is a formula, labelled by its concrete syntax.
        auto = build_automaton(And(A, NO))
        assert [format_formula(state) for state in auto.states] == [
            '("a" = "a" & "a" != "a")',
            '"a" = "a"',
            '"a" != "a"',
        ]

    def test_scope_error_wins_over_normal_form(self):
        # The unbound x sits right of the sugar, which is lowered, not refused.
        with pytest.raises(UnboundVariableError):
            Automaton(And(Not(A), FREE_X))

    def test_scope_errors_in_text_order(self):
        with pytest.raises(UnboundVariableError):
            Automaton(And(FREE_X, REBOUND))
        with pytest.raises(ShadowedVariableError):
            Automaton(And(REBOUND, FREE_X))
        # A binder that would not parse back as a variable name is refused where it stands.
        for name in ("x y", "1x", "", "G", "in"):
            unreadable = Exists(name, Path(("m", "a")), Eq(Var(name), Const("a")))
            for check in (ensure_well_formed, Automaton, lambda f: oracle_eval(EMPTY_VALUATION, f, LOOP_AB)):
                with pytest.raises(FormulaError) as err:
                    check(And(unreadable, FREE_X))
                assert type(err.value) is FormulaError, name
                with pytest.raises(UnboundVariableError):
                    check(And(FREE_X, unreadable))

    def test_equal_subtree_is_checked_in_each_scope(self):
        # Only the second occurrence of INNER rebinds x.
        with pytest.raises(ShadowedVariableError) as err:
            Automaton(SHADOWED)
        assert err.value.name == "x"
        with pytest.raises(ShadowedVariableError):
            oracle_eval(EMPTY_VALUATION, SHADOWED, LOOP_AB)
        assert Parser(SHADOWED_SOURCE).parse() == SHADOWED
        with pytest.raises(ShadowedVariableError):
            parse(SHADOWED_SOURCE)
        assert Automaton(And(INNER, Exists("y", Path(("m", "b")), INNER))).states[1] == INNER

    @given(strategies.nnf_formulas())
    def test_state_count_bound(self, formula):
        auto = build_automaton(formula)
        assert len(auto.states) == len(set(_subtrees(formula)))
        assert len(auto.states) <= node_count(formula)


class TestDelta:
    def test_true_atom(self):
        auto = build_automaton(A)
        assert auto.delta(auto.initial, auto.letter(STOCK)) == TRUE_DNF

    def test_false_atom(self):
        auto = build_automaton(NO)
        assert auto.delta(auto.initial, auto.letter(STOCK)) == FALSE_DNF

    def test_literals_are_constant(self):
        for literal, dnf in ((TrueLit(), TRUE_DNF), (FalseLit(), FALSE_DNF)):
            auto = build_automaton(literal)
            for message in (STOCK, AB):
                assert auto.delta(auto.initial, auto.letter(message)) == dnf

    def test_atom_reads_the_valuation(self):
        phi = Exists("x", Path(("m", "a")), Eq(Var("x"), Const("b")))
        auto = build_automaton(phi)
        atom = auto.states.index(Eq(Var("x"), Const("b")))
        assert auto.delta((frozenset({("x", "b")}), atom), auto.letter(AB)) == TRUE_DNF
        assert auto.delta((frozenset({("x", "a")}), atom), auto.letter(AB)) == FALSE_DNF

    def test_unbound_variable_raises(self):
        with pytest.raises(UnboundVariableError) as err:
            build_automaton(FREE_X)
        assert err.value.name == "x"
        with pytest.raises(UnboundVariableError):
            oracle_eval(EMPTY_VALUATION, FREE_X, LOOP_AB)
        assert oracle_eval(frozenset({("x", "a")}), FREE_X, LOOP_AB)

    def test_next_defers_to_the_body(self):
        phi = Next(A)
        auto = build_automaton(phi)
        got = auto.delta(auto.initial, auto.letter(STOCK))
        held = (EMPTY_VALUATION, auto.states.index(A))
        assert got == frozenset({frozenset({held})})

    def test_or_holds_on_either_side(self):
        for phi, dnf in ((Or(NO, A), TRUE_DNF), (Or(A, NO), TRUE_DNF), (Or(NO, NO), FALSE_DNF)):
            auto = build_automaton(phi)
            assert auto.delta(auto.initial, auto.letter(STOCK)) == dnf

    def test_and_fails_on_either_side(self):
        for phi, dnf in ((And(NO, A), FALSE_DNF), (And(A, NO), FALSE_DNF), (And(A, B), TRUE_DNF)):
            auto = build_automaton(phi)
            assert auto.delta(auto.initial, auto.letter(STOCK)) == dnf

    def test_until_settles_on_true_right(self):
        auto = build_automaton(Until(NO, A))
        assert auto.delta(auto.initial, auto.letter(STOCK)) == TRUE_DNF

    def test_until_holds_on_true_left(self):
        phi = Until(A, NO)
        auto = build_automaton(phi)
        got = auto.delta(auto.initial, auto.letter(STOCK))
        assert got == frozenset({frozenset({(EMPTY_VALUATION, 0)})})

    def test_until_fails_when_both_fail(self):
        auto = build_automaton(Until(NO, NO))
        assert auto.delta(auto.initial, auto.letter(STOCK)) == FALSE_DNF

    def test_until_keeps_itself_beside_a_pending_right(self):
        auto = build_automaton(Until(A, Next(B)))
        later = auto.states.index(B)
        assert auto.delta(auto.initial, auto.letter(STOCK)) == {frozenset({_ob(later)}), frozenset({auto.initial})}

    def test_release_settles_when_both_hold(self):
        auto = build_automaton(Release(A, B))
        assert auto.delta(auto.initial, auto.letter(STOCK)) == TRUE_DNF

    def test_release_holds_on_right_only(self):
        phi = Release(NO, A)
        auto = build_automaton(phi)
        got = auto.delta(auto.initial, auto.letter(STOCK))
        assert got == frozenset({frozenset({(EMPTY_VALUATION, 0)})})

    def test_release_fails_without_right(self):
        auto = build_automaton(Release(A, NO))
        assert auto.delta(auto.initial, auto.letter(STOCK)) == FALSE_DNF

    def test_exists_witness_decides(self):
        phi = parse('exists x in "/message/stock/name" : x = "stock-1"')
        auto = build_automaton(to_nnf(phi))
        assert auto.delta(auto.initial, auto.letter(STOCK)) == TRUE_DNF

    def test_exists_over_empty_domain_fails(self):
        phi = parse('exists x in "/message/missing" : x = "stock-1"')
        auto = build_automaton(to_nnf(phi))
        assert auto.delta(auto.initial, auto.letter(STOCK)) == FALSE_DNF

    def test_forall_over_empty_domain_holds(self):
        phi = parse('forall x in "/message/missing" : x = "stock-1"')
        auto = build_automaton(to_nnf(phi))
        assert auto.delta(auto.initial, auto.letter(STOCK)) == TRUE_DNF

    def test_exists_spawns_one_branch_per_value(self):
        phi = parse('exists x in "/m/a" : X x = "q"')
        auto = build_automaton(to_nnf(phi))
        atom = auto.states.index(Eq(Var("x"), Const("q")))
        got = auto.delta(auto.initial, auto.letter(AB))
        assert got == frozenset(
            {
                frozenset({(frozenset({("x", "a")}), atom)}),
                frozenset({(frozenset({("x", "b")}), atom)}),
            }
        )

    def test_forall_joins_all_values(self):
        phi = parse('forall x in "/m/a" : X x = "q"')
        auto = build_automaton(to_nnf(phi))
        atom = auto.states.index(Eq(Var("x"), Const("q")))
        got = auto.delta(auto.initial, auto.letter(AB))
        assert got == frozenset(
            {
                frozenset(
                    {
                        (frozenset({("x", "a")}), atom),
                        (frozenset({("x", "b")}), atom),
                    }
                ),
            }
        )

    def test_domains_are_those_of_the_message_passed(self):
        # The lasso walk alternates messages, and a message equal to an
        # earlier one may be another object: whatever the automaton
        # remembers between calls, each delta must equal a fresh one's.
        phi = to_nnf(parse('G forall x in "/m/a" : exists y in "/m/b" : (x = y | X x = "q")'))
        first = parse_message('{"m":{"a":["a","b"],"b":["a","q"]}}')
        second = parse_message('{"m":{"a":"c","b":["c","d"]}}')
        copy = parse_message('{"m":{"a":["a","b"],"b":["a","q"]}}')
        assert copy == first and copy is not first
        auto = build_automaton(phi)
        frontier = {auto.initial}
        for message in (first, second, first, copy):
            rewrites = [auto.delta(obligation, auto.letter(message)) for obligation in frontier]
            fresh = build_automaton(phi)
            assert rewrites == [fresh.delta(obligation, fresh.letter(message)) for obligation in frontier]
            frontier = {o for dnf in rewrites for conjunct in dnf for o in conjunct}
        assert len(frontier) > 1

    def test_delta_is_pure(self):
        phi = to_nnf(parse('G exists x in "/m/a" : x = "a"'))
        auto = build_automaton(phi)
        first = auto.delta(auto.initial, auto.letter(AB))
        assert type(first) is frozenset
        assert auto.delta(auto.initial, auto.letter(AB)) == first

    def test_each_state_is_compiled_once(self, monkeypatch):
        # `x = "b"` is an operand of U, of | and of the U under X: one
        # state, so one rule, which every rule that reads it shares.
        # Each state is compiled exactly once, at build; deciding compiles none.
        compiled = []
        original = automaton_module._build

        def counting_build(f, refs, slots, rules, accepting):
            before = rules[refs[f]] if f in refs else None
            ref = original(f, refs, slots, rules, accepting)
            if rules[ref] is not before:
                compiled.append(ref)
            return ref

        monkeypatch.setattr(automaton_module, "_build", counting_build)
        phi = to_nnf(
            parse('forall x in "/m/a" : ((x = "a" U x = "b") & (x = "b" | X (x = "a" U x = "b")))')
        )
        auto = build_automaton(phi)
        assert sorted(compiled) == list(range(len(auto.states)))
        assert len(_reachable(auto, [AB, AB, AB])) > 2
        assert len(compiled) == len(auto.states)

    def test_each_quantifier_extracts_its_domain_once_per_message(self, monkeypatch):
        # Thirty pending requests each rewrite the ack quantifier on every
        # message; its path is still extracted once, like /m/req and /m/a.
        # A rule that extracted on every read would make 33 extractions.
        extracted = []
        monkeypatch.setattr(
            "foltl.automaton.dom", lambda message, path: extracted.append(path) or dom(message, path)
        )
        auto = build_automaton(parse(
            '(G forall x in "/m/req" : F exists y in "/m/ack" : y = x) '
            '& G forall z in "/m/a" : z != "c"'
        ))
        config = initial_configuration(auto)
        per_message = []
        for i in range(40):
            body = {"req": f"{i:08x}", "a": "b"}
            if i >= 30:
                body["ack"] = f"{i - 30:08x}"
            before = len(extracted)
            config = step(auto, config, message_from_obj({"m": body}))
            per_message.append(len(extracted) - before)
        assert verdict(config) is Verdict.INCONCLUSIVE
        assert per_message[-10:] == [3] * 10


class TestFusedTemporalRules:
    """F and G compile to one call of their operand's rule; each Dnf is derived by hand."""

    def test_pending_finally_holds_itself_again(self):
        auto = build_automaton(parse('F exists x in "/m/a" : x = "c"'))
        assert auto.delta(auto.initial, auto.letter(AB)) == {frozenset({auto.initial})}

    def test_discharged_finally_is_true(self):
        auto = build_automaton(parse('F exists x in "/m/a" : x = "b"'))
        assert auto.delta(auto.initial, auto.letter(AB)) == TRUE_DNF

    def test_finally_keeps_each_binding_of_its_quantifier(self):
        # x = "b" discharges its F; x = "a" holds the F again under its binding.
        auto = build_automaton(parse('forall x in "/m/a" : F x = "b"'))
        pending = auto.states.index(Finally(Eq(Var("x"), Const("b"))))
        assert auto.delta(auto.initial, auto.letter(AB)) == {frozenset({_ob(pending, x="a")})}
        auto = build_automaton(parse('exists x in "/m/a" : F x = "c"'))
        pending = auto.states.index(Finally(Eq(Var("x"), Const("c"))))
        assert auto.delta(auto.initial, auto.letter(AB)) == {
            frozenset({_ob(pending, x="a")}),
            frozenset({_ob(pending, x="b")}),
        }

    def test_finally_joins_each_conjunct_of_its_operand(self):
        auto = build_automaton(parse('F exists x in "/m/a" : X x = "q"'))
        atom = auto.states.index(Eq(Var("x"), Const("q")))
        assert auto.delta(auto.initial, auto.letter(AB)) == {
            frozenset({_ob(atom, x="a")}),
            frozenset({_ob(atom, x="b")}),
            frozenset({auto.initial}),
        }

    def test_globally_that_holds_stays_pending(self):
        auto = build_automaton(parse('G exists x in "/m/a" : x = "a"'))
        assert auto.delta(auto.initial, auto.letter(AB)) == {frozenset({auto.initial})}

    def test_globally_joins_itself_to_each_conjunct_of_its_operand(self):
        auto = build_automaton(parse('G exists x in "/m/a" : X x = "q"'))
        atom = auto.states.index(Eq(Var("x"), Const("q")))
        assert auto.delta(auto.initial, auto.letter(AB)) == {
            frozenset({_ob(atom, x="a"), auto.initial}),
            frozenset({_ob(atom, x="b"), auto.initial}),
        }

    def test_violated_globally_is_false(self):
        auto = build_automaton(parse('G exists x in "/m/a" : x = "c"'))
        assert auto.delta(auto.initial, auto.letter(AB)) == FALSE_DNF

    def test_spelled_out_forms_take_the_general_rules_to_the_same_dnf(self):
        # true U phi, "a" = "a" U phi and false R phi stay Until and
        # Release, yet rewrite as F phi and G phi do once each side's
        # own state ref is read as its formula.
        def rewrite(text, message):
            auto = build_automaton(parse(text))
            names = ("itself", *auto.states[1:])
            dnf = auto.delta(auto.initial, auto.letter(message))
            return {frozenset((p, names[s]) for p, s in c) for c in dnf}

        # On AB one body pends with a conjunct per binding, one holds and one fails.
        for body in (
            'exists x in "/m/a" : X x = "q"',
            'exists x in "/m/a" : x = "b"',
            'forall x in "/m/a" : x = "c"',
        ):
            for spelled, short in (("true U", "F"), ('"a" = "a" U', "F"), ("false R", "G")):
                spelled = f"({spelled} {body})"
                assert type(to_nnf(parse(spelled))) in (Until, Release)
                for message in (AB, STOCK):
                    assert rewrite(spelled, message) == rewrite(f"{short} {body}", message)


def _reachable(auto, messages):
    """Obligations reached from the initial one along the message list."""
    frontier = {auto.initial}
    seen = []
    for message in messages:
        step: set = set()
        for obligation in sorted(frontier, key=lambda o: (o[1], sorted(o[0]))):
            dnf = auto.delta(obligation, auto.letter(message))
            seen.append((obligation, dnf))
            for conjunct in dnf:
                step.update(conjunct)
        frontier = step
        if not frontier:
            break
    return seen


# Counts the calls of the innermost atom's rule while lasso_accepts
# decides 16 nested exists over a loop whose one message has a = a, b.
_COUNT_INNERMOST_CALLS = """
import foltl.automaton
from foltl.acceptance import lasso_accepts
from foltl.automaton import Automaton
from foltl.events import LassoTrace, parse_message
from foltl.formula import Const, Eq, Var, parse

calls = 0
build = foltl.automaton._build


def counting_build(f, refs, slots, rules, accepting):
    fresh = len(rules)
    ref = build(f, refs, slots, rules, accepting)
    if ref == fresh and f == Eq(Var("x15"), Const("a")):
        rule = rules[ref]

        def counting(p, a):
            global calls
            calls += 1
            return rule(p, a)

        rules[ref] = counting
    return ref


foltl.automaton._build = counting_build
formula = parse("".join(f'exists x{i} in "/m/a" : ' for i in range(16)) + 'x15 = "a"')
loop = LassoTrace(prefix=(), loop=(parse_message('{"m":{"a":["a","b"]}}'),))
print(lasso_accepts(Automaton(formula), loop), calls)
"""


def _rule_calls(monkeypatch, phi, watched, message=AB):
    """How often the watched state's rule runs in the initial obligation's delta."""
    calls = []
    original = automaton_module._build

    def counting_build(f, refs, slots, rules, accepting):
        # The build reads an operand's rule once it returns: wrap it before.
        fresh = len(rules)
        ref = original(f, refs, slots, rules, accepting)
        if ref == fresh and f == watched:
            rule = rules[ref]
            rules[ref] = lambda p, a: calls.append(p) or rule(p, a)
        return ref

    monkeypatch.setattr(automaton_module, "_build", counting_build)
    auto = build_automaton(phi)
    auto.delta(auto.initial, auto.letter(message))
    return len(calls)


class TestAbsorbingOperands:
    """A rule skips what an operand that settles it makes irrelevant, and delta stays the same."""

    PENDING = Finally(B)
    HOLDS = parse('exists x in "/m/a" : x = "a"')
    FAILS = parse('forall x in "/m/a" : x = "a"')

    def test_a_settling_operand_skips_the_other(self, monkeypatch):
        # On AB, HOLDS holds and FAILS fails; neither is an atom.
        for phi in (
            Or(self.HOLDS, self.PENDING),
            And(self.FAILS, self.PENDING),
            Until(self.PENDING, self.HOLDS),
            Release(self.PENDING, self.FAILS),
        ):
            assert _rule_calls(monkeypatch, phi, self.PENDING) == 0, phi
        assert _rule_calls(monkeypatch, Or(self.FAILS, self.PENDING), self.PENDING) == 1

    def test_forall_stops_at_the_first_value_whose_body_fails(self, monkeypatch):
        innermost = Eq(Var("x7"), Const("c"))
        phi = parse("".join(f'forall x{i} in "/m/a" : ' for i in range(8)) + 'x7 = "c"')
        assert _rule_calls(monkeypatch, phi, innermost) == 1

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_exists_stops_at_the_first_value_whose_body_holds(self, hash_seed):
        # Every level once ran its body for both values: 65 536 calls.
        done = subprocess.run(
            [sys.executable, "-c", _COUNT_INNERMOST_CALLS],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
            check=True,
        )
        accepted, calls = done.stdout.split()
        assert accepted == "True"
        assert 1 <= int(calls) <= 2

    def test_exists_joins_pending_bodies_once(self):
        # 5000 values whose body stays pending.  forall folds them into
        # one conjunct; exists joins them once, at about the same cost.
        # A join at each value copies all bodies before it: 20 times as long.
        message = message_from_obj({"m": {"a": [f"v{i}" for i in range(5000)]}})

        def root_rule(text):
            auto = build_automaton(parse(text))
            rule, letter = auto._rules[0], auto.letter(message)
            return _best_of_three(lambda: rule(EMPTY_VALUATION, letter))

        joined, some = root_rule('exists x in "/m/a" : F x = "z"')
        folded, every = root_rule('forall x in "/m/a" : F x = "z"')
        assert len(some) == 5000 and all(len(c) == 1 for c in some)
        assert len(every) == 1 and len(next(iter(every))) == 5000
        assert joined < 5 * folded

    def test_operand_order_of_and_and_or_is_invisible_to_delta(self):
        # A second automaton holds each And and Or the other way round, so
        # its rules stop at the other operand: on every obligation reached
        # along a seed-42 d4q3 lasso, the two agree once each state is
        # carried to its swapped twin.
        def swap(f):
            if type(f) in (And, Or):
                return type(f)(swap(f[1]), swap(f[0]))
            return type(f)(*(swap(x) if isinstance(x, Formula) else x for x in f))

        def carried(dnf, twin):
            return {frozenset((p, twin[s]) for p, s in c) for c in dnf}

        bounds = GenBounds(max_depth=4, max_quantifiers=3)
        checked = 0
        for index in range(1000):
            rng = case_rng(42, "case", index)
            formula = gen_formula(rng, bounds)
            lasso = gen_lasso(rng, bounds)
            messages = lasso.prefix + lasso.loop * 2
            auto = build_automaton(formula)
            obligations = {obligation for obligation, _ in _reachable(auto, messages)}
            expected = [(o, m, auto.delta(o, auto.letter(m))) for o in obligations for m in messages]
            swapped = build_automaton(swap(to_nnf(formula)))
            twin = [swapped.states.index(swap(f)) for f in auto.states]
            for (p, state), message, dnf in expected:
                got = swapped.delta((p, twin[state]), swapped.letter(message))
                assert got == carried(dnf, twin), (index, state)
            checked += sum(type(auto.states[o[1]]) in (And, Or) for o in obligations)
        assert checked > 100


class TestDeltaInvariants:
    @given(strategies.nnf_formulas(), strategies.traces(max_length=2))
    def test_reachable_obligations_are_well_formed(self, formula, trace):
        auto = build_automaton(formula)
        for (valuation, state), dnf in _reachable(auto, trace):
            source = auto.states[state]
            for conjunct in dnf:
                for target_valuation, target in conjunct:
                    assert 0 <= target < len(auto.states)
                    target_formula = auto.states[target]
                    bound = frozenset(n for n, _ in target_valuation)
                    ensure_well_formed(target_formula, bound)
                    assert temporal_depth(target_formula) <= temporal_depth(source)
                    if temporal_depth(target_formula) == temporal_depth(source):
                        assert isinstance(target_formula, (Finally, Globally, Until, Release))

    @given(strategies.nnf_formulas(), strategies.traces(max_length=2))
    def test_transitions_are_very_weak(self, formula, trace):
        # What lasso_accepts relies on: a conjunct holds the obligation
        # itself again, or obligations on strict subformulas of its state.
        auto = build_automaton(formula)
        for obligation, dnf in _reachable(auto, trace):
            source = auto.states[obligation[1]]
            strict = set(_subtrees(source)) - {source}
            for conjunct in dnf:
                for target in conjunct:
                    assert target == obligation or auto.states[target[1]] in strict

    @given(strategies.nnf_formulas(), strategies.traces(max_length=2))
    def test_depth_zero_states_decide_immediately(self, formula, trace):
        auto = build_automaton(formula)
        for (valuation, state), dnf in _reachable(auto, trace):
            if temporal_depth(auto.states[state]) == 0:
                assert dnf in (TRUE_DNF, FALSE_DNF)

    @given(strategies.nnf_formulas(), strategies.traces(max_length=2))
    def test_dnf_results_are_antichains(self, formula, trace):
        auto = build_automaton(formula)
        for _, dnf in _reachable(auto, trace):
            for left, right in itertools.combinations(dnf, 2):
                assert not (left <= right or right <= left)


class TestDot:
    def test_shape_and_marks(self):
        phi = Release(NO, A)
        auto = build_automaton(phi)
        dot = auto.to_dot()
        assert dot.startswith("digraph automaton {")
        assert dot.rstrip().endswith("}")
        assert f"entry -> s{auto.initial[1]};" in dot
        assert "s0 [shape=doublecircle" in dot
        assert 's1 [shape=circle, label="\\"a\\" != \\"a\\""];' in dot
        assert "s3 " not in dot

    def test_labels_escape_quotes(self):
        auto = build_automaton(A)
        assert '\\"a\\"' in auto.to_dot()
