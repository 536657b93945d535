"""The on-the-fly accepting-cycle search, on plain graphs."""
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foltl.acceptance import ResourceLimitError, _accepting_cycle

NODES = 6
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _search(graph, start=0, state_limit=1000):
    """graph maps a node to its (target, accepting) edges, in DFS order."""
    return _accepting_cycle(start, lambda node: graph.get(node, ()), state_limit)


def _reach(graph, source):
    seen = {source}
    frontier = [source]
    while frontier:
        for target, _ in graph.get(frontier.pop(), ()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def _brute_force(graph, start=0):
    """Some accepting edge (u, v) has u reachable from start and from v."""
    return any(
        accepting and node in _reach(graph, target)
        for node in _reach(graph, start)
        for target, accepting in graph.get(node, ())
    )


@st.composite
def graphs(draw):
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, NODES - 1), st.integers(0, NODES - 1), st.booleans()
            ),
            max_size=14,
        )
    )
    graph: dict[int, list[tuple[int, bool]]] = {}
    for source, target, accepting in edges:
        graph.setdefault(source, []).append((target, accepting))
    return graph


class TestAgainstBruteForce:
    @given(graphs())
    def test_same_verdict(self, graph):
        assert _search(graph) == _brute_force(graph)

    @given(graphs())
    def test_rejection_explores_every_reachable_node(self, graph):
        reachable = len(_reach(graph, 0))
        assert _search(graph, state_limit=reachable) == _brute_force(graph)
        if not _brute_force(graph) and reachable > 1:
            with pytest.raises(ResourceLimitError) as err:
                _search(graph, state_limit=reachable - 1)
            assert err.value.states == reachable


class TestHandWritten:
    def test_accepting_self_loop(self):
        assert _search({0: [(1, False)], 1: [(1, True)]}) is True

    def test_accepting_edge_between_two_sccs(self):
        graph = {
            0: [(1, False)],
            1: [(0, False), (2, True)],
            2: [(3, False)],
            3: [(2, False)],
        }
        assert _search(graph) is False

    def test_accepting_tree_edge_closed_by_a_later_back_edge(self):
        graph = {0: [(1, True)], 1: [(2, False)], 2: [(0, False)]}
        assert _search(graph) is True

    @pytest.mark.parametrize(
        "tree_edge,cross_edge", [(False, True), (True, False)], ids=["cross", "entering"]
    )
    def test_cross_edge_into_an_older_open_scc(self, tree_edge, cross_edge):
        # 0, 1 and 2 form an open SCC when 1's second edge reaches 3,
        # whose edge back to the finished node 2 is a cross edge.
        graph = {
            0: [(1, False)],
            1: [(2, False), (3, tree_edge)],
            2: [(0, False)],
            3: [(2, cross_edge)],
        }
        assert _search(graph) is True

    def test_edges_into_a_closed_scc_close_no_cycle(self):
        # {1, 2} is closed before 0's accepting edges reach its root and
        # its other member.
        graph = {0: [(1, False), (1, True), (2, True)], 1: [(2, False)], 2: [(1, False)]}
        assert _search(graph) is False

    def test_state_limit_exceeded(self):
        chain = {node: [(node + 1, False)] for node in range(10)}
        with pytest.raises(ResourceLimitError) as err:
            _search(chain, state_limit=3)
        assert err.value.states > 3

    def test_stops_at_the_first_accepting_cycle(self):
        # The limit counts nodes discovered before the verdict is known.
        graph = {0: [(0, True), (1, False)]}
        graph.update({node: [(node + 1, False)] for node in range(1, 10)})
        assert _search(graph, state_limit=1) is True


def test_import_pulls_in_no_networkx():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, foltl; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    assert done.stdout == "False\n"
