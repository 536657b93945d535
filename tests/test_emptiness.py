"""The Buchi game solver behind lasso acceptance, on plain games."""
import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from foltl.acceptance import ResourceLimitError, _eve_wins

VERTICES = 6
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _solve(game, accepting=(), start=0, state_limit=1000):
    """game maps a vertex to Eve's options, each a tuple of Adam's targets."""
    return _eve_wins(start, lambda vertex: game.get(vertex, []), accepting.__contains__, state_limit)


def _reach(edges, source):
    """Vertices reachable from source; edges maps a vertex to its successors."""
    seen = {source}
    frontier = [source]
    while frontier:
        for target in edges(frontier.pop()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def _every_target(game):
    return lambda vertex: [t for option in game.get(vertex, []) for t in option]


def _brute_force(game, accepting=(), start=0):
    """Some positional choice of one option per vertex leaves Adam no way
    to reach a vertex without options or a cycle of non-accepting ones."""
    reachable = sorted(_reach(_every_target(game), start))
    choosers = [v for v in reachable if game.get(v)]
    for picks in itertools.product(*(range(len(game[v])) for v in choosers)):
        chosen = dict(zip(choosers, picks))

        def edges(vertex):
            return game[vertex][chosen[vertex]] if vertex in chosen else ()

        played = _reach(edges, start)
        if any(not game.get(v) for v in played):
            continue
        # Peel off non-accepting vertices with no non-accepting successor;
        # whatever remains holds a cycle of non-accepting vertices.
        rest = {v for v in played if v not in accepting}
        while True:
            dead = {v for v in rest if not rest.intersection(edges(v))}
            if not dead:
                break
            rest -= dead
        if not rest:
            return True
    return False


@st.composite
def games(draw):
    targets = st.tuples(*[st.integers(0, VERTICES - 1)] * 3)
    game = {
        vertex: [option[: draw(st.integers(0, 3))] for option in draw(st.lists(targets, max_size=3))]
        for vertex in range(VERTICES)
    }
    accepting = draw(st.frozensets(st.integers(0, VERTICES - 1)))
    return game, accepting


def _limit_is_the_reachable_count(game, accepting):
    reachable = len(_reach(_every_target(game), 0))
    assert _solve(game, accepting, state_limit=reachable) == _brute_force(game, accepting)
    if reachable > 1:
        with pytest.raises(ResourceLimitError) as err:
            _solve(game, accepting, state_limit=reachable - 1)
        assert err.value.states == reachable


class TestAgainstBruteForce:
    @given(games())
    def test_same_verdict(self, drawn):
        game, accepting = drawn
        assert _solve(game, accepting) == _brute_force(game, accepting)

    @given(games())
    def test_rejection_explores_every_reachable_node(self, drawn):
        assume(not _brute_force(*drawn))
        _limit_is_the_reachable_count(*drawn)

    @given(games())
    def test_acceptance_explores_every_reachable_vertex_too(self, drawn):
        assume(_brute_force(*drawn))
        _limit_is_the_reachable_count(*drawn)


class TestHandWritten:
    def test_empty_option_wins(self):
        assert _solve({0: [()]}) is True

    def test_no_option_loses(self):
        assert _solve({0: []}) is False

    def test_accepting_self_loop(self):
        assert _solve({0: [(1,)], 1: [(1,)]}, accepting={1}) is True

    def test_non_accepting_self_loop_loses(self):
        assert _solve({0: [(0,)]}) is False

    def test_adam_picks_the_bad_target(self):
        game = {0: [(1, 2)], 1: [(1,)], 2: [(2,)]}
        assert _solve(game, accepting={1}) is False
        assert _solve(game, accepting={1, 2}) is True

    def test_eve_picks_the_good_option(self):
        game = {0: [(1,), (2,)], 1: [(1,)], 2: [(2,)]}
        assert _solve(game, accepting={2}) is True
        assert _solve(game, accepting={0}) is False

    def test_accepting_vertex_between_two_cycles_loses(self):
        # Every play passes the accepting vertex 2 at most once.
        game = {0: [(1,)], 1: [(0,), (2,)], 2: [(3,)], 3: [(4,)], 4: [(3,)]}
        assert _solve(game, accepting={2}) is False

    def test_accepting_vertex_on_a_longer_cycle_wins(self):
        assert _solve({0: [(1,)], 1: [(2,)], 2: [(0,)]}, accepting={0}) is True

    def test_state_limit_exceeded(self):
        chain = {vertex: [(vertex + 1,)] for vertex in range(10)}
        with pytest.raises(ResourceLimitError) as err:
            _solve(chain, state_limit=3)
        assert err.value.states == 4


def test_import_pulls_in_no_networkx():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, foltl; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    assert done.stdout == "False\n"
