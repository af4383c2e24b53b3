"""Topological order and reachability, against straightforward references."""

from hypothesis import given
from hypothesis import strategies as st

from situnet.dag import CycleError, reachable, topological_order

# node i's links, drawn from 0..n; the link n names a node outside the graph
graphs = st.integers(1, 10).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n), max_size=3), min_size=n, max_size=n))


def resorting_kahn(parents):
    """Kahn's algorithm that re-sorts its ready list after every placement."""
    n = len(parents)
    waiting = [sum(p < n for p in ps) for ps in parents]
    ready = sorted(v for v in range(n) if waiting[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for child, ps in enumerate(parents):
            for _ in range(ps.count(v)):
                waiting[child] -= 1
                if waiting[child] == 0:
                    ready.append(child)
        ready.sort()
    return order if len(order) == n else None


@given(graphs)
def test_order_matches_reference_or_names_a_closed_cycle(parents):
    expected = resorting_kahn(parents)
    try:
        order = topological_order(range(len(parents)), parents)
    except CycleError as error:
        cycle = error.cycle
        assert expected is None
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all(b in parents[a] for a, b in zip(cycle, cycle[1:]))
    else:
        assert order == expected


@given(graphs, st.data())
def test_reachable_is_the_closure_of_the_starts(parents, data):
    links = dict(enumerate(parents))
    starts = data.draw(st.sets(st.sampled_from(sorted(links))))
    closure = set(starts)
    while True:
        grown = closure | {p for v in closure for p in links[v] if p in links}
        if grown == closure:
            break
        closure = grown
    assert reachable(starts, links) == closure
