"""The exploration core on tiny hand-built graphs."""

import pytest

from protolab.graph import Numbering, explore, least_path, topological

# 0 -> 1, 2; 1 -> 3; 2 -> 3, 4; 3 -> 4
DIAMOND = {"a": ["b", "c"], "b": ["d"], "c": ["d", "e"], "d": ["e"], "e": []}


def labelled(table):
    """A successor function labelling each move with its target's name."""
    return lambda state: (table[state], table[state])


def moves(graph):
    return [[t for _, t in out] for out in graph.edges]


def test_numbering_numbers_equal_values_once_in_order():
    number = Numbering()
    assert [number(v) for v in ("x", "y", "x", "z", "y")] == [0, 1, 0, 2, 1]
    assert number.values == ["x", "y", "z"]


def test_states_are_numbered_breadth_first_and_moves_keep_their_order():
    graph = explore("a", labelled(DIAMOND))
    assert graph.states == ["a", "b", "c", "d", "e"]
    assert moves(graph) == [[1, 2], [3], [3, 4], [4], []]
    assert graph.successors(2) == [("d", 3), ("e", 4)]
    assert (graph.cap, graph.declined) == (None, [])


def test_dedup_hits_count_moves_into_numbered_states():
    assert explore("a", labelled(DIAMOND)).dedup_hits == 2  # c -> d and d -> e
    # a repeated move counts too
    assert explore(0, lambda n: (None, [1, 1] if n == 0 else [])).dedup_hits == 1


def test_state_cap_names_itself_and_keeps_the_partial_graph():
    graph = explore("a", labelled(DIAMOND), state_cap=2)
    assert graph.cap == "state"
    assert graph.states == ["a", "b", "c", "d"]  # c and d were met but not expanded
    assert moves(graph) == [[1, 2], [3]]
    assert graph.successors(2) == graph.successors(3) == []
    assert graph.dedup_hits == 0


def test_state_cap_does_not_fire_when_no_state_is_left():
    graph = explore("a", labelled(DIAMOND), state_cap=5)
    assert graph.cap is None and len(graph.labels) == 5


def test_declined_state_is_recorded_and_not_expanded():
    graph = explore("a", lambda s: None if s == "c" else (None, DIAMOND[s]))
    assert graph.states == ["a", "b", "c", "d", "e"]
    assert moves(graph) == [[1, 2], [3], [], [4], []]
    assert graph.declined == [2]
    assert graph.successors(2) == []
    assert graph.successors(1) == [(None, 3)]  # moves without labels
    assert graph.cap is None


def test_cyclic_successor_function_ends():
    graph = explore(0, lambda n: ("+=", [(n + 1) % 3, n]))
    assert graph.states == [0, 1, 2]
    assert moves(graph) == [[1, 0], [2, 1], [0, 2]]
    assert graph.dedup_hits == 4


def test_unbounded_successor_function_stops_at_the_state_cap():
    graph = explore(0, lambda n: (None, [n + 1]), state_cap=10)
    assert (graph.cap, len(graph.labels), len(graph.states)) == ("state", 10, 11)


def test_topological_order_and_cycle():
    graph = explore("a", labelled(DIAMOND))
    rank = {n: i for i, n in enumerate(topological(graph))}
    assert all(rank[n] < rank[t] for n, out in enumerate(moves(graph)) for t in out)
    with pytest.raises(RuntimeError):
        topological(explore(0, lambda n: (None, [1 - n])))


def test_least_path_takes_the_least_spelling_and_skips_silent_moves():
    graph = explore("a", lambda s: ([None if t == "b" else t for t in DIAMOND[s]], DIAMOND[s]))
    # the paths to e spell (d, e) through the silent move, (c, d, e) and (c, e)
    assert least_path(0, graph.successors, lambda n: () if n == 4 else None) == ("c", "d", "e")
    assert least_path(0, graph.successors, lambda n: None) is None
