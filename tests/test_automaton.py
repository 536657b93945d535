import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies
from foltl.automaton import (
    BOTTOM,
    EMPTY_VALUATION,
    FALSE_DNF,
    TOP,
    TRUE_DNF,
    Automaton,
    TransitionDnf,
    UndefinedVariableError,
    Valuation,
    accepting_formulas,
    build_automaton,
    dnf_and,
    dnf_or,
)
from foltl.events import parse_message
from foltl.formula import (
    And,
    Const,
    Eq,
    Exists,
    Neq,
    Next,
    Not,
    Or,
    Path,
    Release,
    Until,
    Var,
    free_variables,
    node_count,
    parse,
    subformulas,
    temporal_depth,
    to_nnf,
)

A = Eq(Const("a"), Const("a"))
B = Eq(Const("b"), Const("b"))
NO = Neq(Const("a"), Const("a"))

STOCK = parse_message(
    '{"message":{"action":"placeBuyOrder",'
    '"stock":[{"name":"stock-1","amount":"123"},{"name":"stock-2","amount":"456"}]}}'
)
AB = parse_message('{"m":{"a":["a","b"]}}')


class TestValuation:
    def test_bindings_sort_canonically(self):
        assert Valuation((("y", "2"), ("x", "1"))) == Valuation((("x", "1"), ("y", "2")))
        assert Valuation((("y", "2"), ("x", "1"))).bindings == (("x", "1"), ("y", "2"))

    def test_double_binding_rejected(self):
        with pytest.raises(ValueError):
            Valuation((("x", "1"), ("x", "2")))

    def test_get(self):
        v = Valuation((("x", "1"),))
        assert v.get("x") == "1"
        assert v.get("y") is None

    def test_extend_is_persistent(self):
        v = EMPTY_VALUATION.extend("x", "1")
        assert EMPTY_VALUATION.bindings == ()
        assert v.get("x") == "1"

    def test_extend_rejects_rebinding(self):
        with pytest.raises(ValueError):
            Valuation((("x", "1"),)).extend("x", "2")

    def test_value_of_constant_ignores_bindings(self):
        assert EMPTY_VALUATION.value_of(Const("k")) == "k"

    def test_value_of_unbound_variable(self):
        with pytest.raises(UndefinedVariableError) as err:
            EMPTY_VALUATION.value_of(Var("x"))
        assert err.value.name == "x"


def _ob(state, **bindings):
    return (Valuation(tuple(bindings.items())), state)


def _lit(state, **bindings):
    """The DNF holding one obligation alone."""
    return TransitionDnf(frozenset({frozenset({_ob(state, **bindings)})}))


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
        assert got.conjuncts == {
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
        assert len(got.conjuncts) == 1

    def test_same_state_different_bindings_are_distinct(self):
        got = dnf_or([_lit(0, x="1"), _lit(0, x="2")])
        assert len(got.conjuncts) == 2

    def test_operand_order_is_invisible(self):
        parts = [dnf_and([_lit(2), _lit(1)]), _lit(9), _lit(4)]
        assert dnf_or(parts) == dnf_or(parts[::-1])
        assert dnf_and(parts) == dnf_and(parts[::-1])

    def test_truth_predicates(self):
        assert TRUE_DNF.is_true() and not TRUE_DNF.is_false()
        assert FALSE_DNF.is_false() and not FALSE_DNF.is_true()
        assert not _lit(0).is_true() and not _lit(0).is_false()

    def test_empty_combinators(self):
        assert dnf_and([]) == TRUE_DNF
        assert dnf_or([]) == FALSE_DNF

    def test_combinator_identities(self):
        plain = _lit(0)
        assert dnf_and([plain, TRUE_DNF]) == plain
        assert dnf_and([plain, FALSE_DNF]) == FALSE_DNF
        assert dnf_or([plain, FALSE_DNF]) == plain
        assert dnf_or([plain, TRUE_DNF]) == TRUE_DNF


_UNIVERSE = (
    (EMPTY_VALUATION, 0),
    (EMPTY_VALUATION, 1),
    (Valuation((("x", "a"),)), 1),
    (EMPTY_VALUATION, 2),
)


def _antichain(conjuncts):
    """The minimal members of a set of conjuncts, as a DNF operand."""
    return TransitionDnf(
        frozenset(c for c in conjuncts if not any(other < c for other in conjuncts))
    )


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
    return any(conjunct <= truth for conjunct in dnf.conjuncts)


def _assignments():
    for pick in itertools.product((False, True), repeat=len(_UNIVERSE)):
        yield frozenset(ob for ob, take in zip(_UNIVERSE, pick) if take)


def _assert_antichain(dnf):
    for left, right in itertools.combinations(dnf.conjuncts, 2):
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
        assert auto.accepting == {auto.top}

    def test_until_is_not_accepting(self):
        auto = build_automaton(Until(A, B))
        assert auto.ref_of(Until(A, B)) not in auto.accepting

    def test_release_accepts_itself(self):
        phi = Release(NO, A)
        auto = build_automaton(phi)
        assert auto.ref_of(phi) in auto.accepting

    def test_nested_release_inside_until(self):
        inner = Release(A, B)
        phi = Until(A, inner)
        assert accepting_formulas(phi) == {inner}

    def test_rejects_non_normal_form(self):
        with pytest.raises(ValueError):
            accepting_formulas(Not(A))


class TestConstruction:
    def test_requires_normal_form(self):
        with pytest.raises(ValueError):
            Automaton(Not(A))

    def test_state_table_layout(self):
        phi = Until(A, B)
        auto = build_automaton(phi)
        assert auto.states == (phi, A, B, TOP, BOTTOM)
        assert auto.top == 3 and auto.bottom == 4
        assert auto.initial == (EMPTY_VALUATION, 0)

    def test_request_ack_state_count(self):
        nnf = to_nnf(parse('G forall x in "/m/req" : F exists y in "/m/ack" : y = x'))
        auto = build_automaton(nnf)
        assert len(auto.states) == 9
        assert auto.accepting == {0, auto.top}

    def test_shared_subtrees_collapse(self):
        auto = build_automaton(Or(A, A))
        assert auto.states == (Or(A, A), A, TOP, BOTTOM)

    def test_state_labels(self):
        auto = build_automaton(A)
        assert auto.state_label(auto.top) == "TOP"
        assert auto.state_label(auto.bottom) == "BOTTOM"
        assert auto.state_label(0) == '"a" = "a"'

    @given(strategies.nnf_formulas())
    def test_state_count_bound(self, formula):
        auto = build_automaton(formula)
        assert len(auto.states) == len(subformulas(formula)) + 2
        assert len(auto.states) <= node_count(formula) + 2


class TestDelta:
    def test_pits_absorb(self):
        auto = build_automaton(A)
        assert auto.delta(EMPTY_VALUATION, auto.top, STOCK) == TRUE_DNF
        assert auto.delta(EMPTY_VALUATION, auto.bottom, STOCK) == FALSE_DNF

    def test_true_atom(self):
        auto = build_automaton(A)
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == TRUE_DNF

    def test_false_atom(self):
        auto = build_automaton(NO)
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == FALSE_DNF

    def test_atom_reads_the_valuation(self):
        phi = Exists("x", Path(("m", "a")), Eq(Var("x"), Const("b")))
        auto = build_automaton(phi)
        atom = auto.ref_of(Eq(Var("x"), Const("b")))
        assert auto.delta(Valuation((("x", "b"),)), atom, AB) == TRUE_DNF
        assert auto.delta(Valuation((("x", "a"),)), atom, AB) == FALSE_DNF

    def test_unbound_variable_raises(self):
        phi = Exists("x", Path(("m", "a")), Eq(Var("x"), Const("b")))
        auto = build_automaton(phi)
        atom = auto.ref_of(Eq(Var("x"), Const("b")))
        with pytest.raises(UndefinedVariableError):
            auto.delta(EMPTY_VALUATION, atom, AB)

    def test_next_defers_to_the_body(self):
        phi = Next(A)
        auto = build_automaton(phi)
        got = auto.delta(EMPTY_VALUATION, 0, STOCK)
        assert got == TransitionDnf(frozenset({frozenset({(EMPTY_VALUATION, auto.ref_of(A))})}))

    def test_until_settles_on_true_right(self):
        auto = build_automaton(Until(NO, A))
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == TRUE_DNF

    def test_until_holds_on_true_left(self):
        phi = Until(A, NO)
        auto = build_automaton(phi)
        got = auto.delta(EMPTY_VALUATION, 0, STOCK)
        assert got == TransitionDnf(frozenset({frozenset({(EMPTY_VALUATION, 0)})}))

    def test_until_fails_when_both_fail(self):
        auto = build_automaton(Until(NO, NO))
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == FALSE_DNF

    def test_release_settles_when_both_hold(self):
        auto = build_automaton(Release(A, B))
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == TRUE_DNF

    def test_release_holds_on_right_only(self):
        phi = Release(NO, A)
        auto = build_automaton(phi)
        got = auto.delta(EMPTY_VALUATION, 0, STOCK)
        assert got == TransitionDnf(frozenset({frozenset({(EMPTY_VALUATION, 0)})}))

    def test_release_fails_without_right(self):
        auto = build_automaton(Release(A, NO))
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == FALSE_DNF

    def test_exists_witness_decides(self):
        phi = parse('exists x in "/message/stock/name" : x = "stock-1"')
        auto = build_automaton(to_nnf(phi))
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == TRUE_DNF

    def test_exists_over_empty_domain_fails(self):
        phi = parse('exists x in "/message/missing" : x = "stock-1"')
        auto = build_automaton(to_nnf(phi))
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == FALSE_DNF

    def test_forall_over_empty_domain_holds(self):
        phi = parse('forall x in "/message/missing" : x = "stock-1"')
        auto = build_automaton(to_nnf(phi))
        assert auto.delta(EMPTY_VALUATION, 0, STOCK) == TRUE_DNF

    def test_exists_spawns_one_branch_per_value(self):
        phi = parse('exists x in "/m/a" : X x = "q"')
        auto = build_automaton(to_nnf(phi))
        atom = auto.ref_of(Eq(Var("x"), Const("q")))
        got = auto.delta(EMPTY_VALUATION, 0, AB)
        assert got == TransitionDnf(
            frozenset(
                {
                    frozenset({(Valuation((("x", "a"),)), atom)}),
                    frozenset({(Valuation((("x", "b"),)), atom)}),
                }
            )
        )

    def test_forall_joins_all_values(self):
        phi = parse('forall x in "/m/a" : X x = "q"')
        auto = build_automaton(to_nnf(phi))
        atom = auto.ref_of(Eq(Var("x"), Const("q")))
        got = auto.delta(EMPTY_VALUATION, 0, AB)
        assert got == TransitionDnf(
            frozenset(
                {
                    frozenset(
                        {
                            (Valuation((("x", "a"),)), atom),
                            (Valuation((("x", "b"),)), atom),
                        }
                    ),
                }
            )
        )

    def test_delta_is_pure(self):
        phi = to_nnf(parse('G exists x in "/m/a" : x = "a"'))
        auto = build_automaton(phi)
        first = auto.delta(EMPTY_VALUATION, 0, AB)
        assert auto.delta(EMPTY_VALUATION, 0, AB) == first


def _reachable(auto, messages):
    """Obligations reached from the initial one along the message list."""
    frontier = {auto.initial}
    seen = []
    for message in messages:
        step: set = set()
        for valuation, state in sorted(frontier, key=lambda o: (o[1], o[0].bindings)):
            dnf = auto.delta(valuation, state, message)
            seen.append(((valuation, state), dnf))
            for conjunct in dnf.conjuncts:
                step.update(conjunct)
        frontier = step
        if not frontier:
            break
    return seen


class TestDeltaInvariants:
    @given(strategies.nnf_formulas(), strategies.traces(max_length=2))
    def test_reachable_obligations_are_well_formed(self, formula, trace):
        auto = build_automaton(formula)
        closure_size = len(auto.states) - 2
        for (valuation, state), dnf in _reachable(auto, trace.messages):
            source = auto.states[state]
            for conjunct in dnf.conjuncts:
                for target_valuation, target in conjunct:
                    assert 0 <= target < closure_size
                    target_formula = auto.states[target]
                    bound = frozenset(n for n, _ in target_valuation.bindings)
                    assert free_variables(target_formula) <= bound
                    assert temporal_depth(target_formula) <= temporal_depth(source)
                    if temporal_depth(target_formula) == temporal_depth(source):
                        assert isinstance(target_formula, (Until, Release))

    @given(strategies.nnf_formulas(), strategies.traces(max_length=2))
    def test_depth_zero_states_decide_immediately(self, formula, trace):
        auto = build_automaton(formula)
        for (valuation, state), dnf in _reachable(auto, trace.messages):
            if temporal_depth(auto.states[state]) == 0:
                assert dnf.is_true() or dnf.is_false()

    @given(strategies.nnf_formulas(), strategies.traces(max_length=2))
    def test_dnf_results_are_antichains(self, formula, trace):
        auto = build_automaton(formula)
        for _, dnf in _reachable(auto, trace.messages):
            for left, right in itertools.combinations(dnf.conjuncts, 2):
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
        assert f"s{auto.bottom} [shape=circle, label=\"BOTTOM\"];" in dot

    def test_labels_escape_quotes(self):
        auto = build_automaton(A)
        assert '\\"a\\"' in auto.to_dot()
