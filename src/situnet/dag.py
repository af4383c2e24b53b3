"""Topological order and reachability over graphs given as adjacency mappings.

The hypernym hierarchy, the IsA graph and the ground network share these
walks.  Both are iterative, so a deep input is bounded by memory, not by
the interpreter's recursion limit.
"""

from __future__ import annotations

import heapq


class CycleError(ValueError):
    """The graph has a cycle; ``cycle`` is closed (first node == last)."""

    def __init__(self, cycle):
        super().__init__("cycle: " + " -> ".join(map(str, cycle)))
        self.cycle = cycle


def topological_order(nodes, parents) -> list:
    """``nodes`` ordered so that every node follows its ``parents[node]``.

    Kahn's algorithm (Kahn 1962): among the nodes whose parents are all
    placed, the smallest goes next, so the order is a function of the
    graph alone.  Parents outside ``nodes`` are ignored.  On a cycle,
    raises :class:`CycleError` with a cycle that runs from a node through
    its parents back to itself.
    """
    members = set(nodes)
    waiting = {}
    children = {node: [] for node in members}
    for node in members:
        linked = [p for p in parents[node] if p in members]
        waiting[node] = len(linked)
        for p in linked:
            children[p].append(node)
    ready = [node for node, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in children[node]:
            waiting[child] -= 1
            if waiting[child] == 0:
                heapq.heappush(ready, child)
    if len(order) < len(members):
        raise CycleError(_closed_cycle(waiting, parents))
    return order


def _closed_cycle(waiting, parents) -> list:
    """Follow unplaced parents from the smallest unplaced node until one repeats.

    Every unplaced node has an unplaced parent, so the walk cannot stop
    before it closes a cycle.
    """
    left = {node for node, count in waiting.items() if count > 0}
    path = [min(left)]
    position = {path[0]: 0}
    while True:
        node = next(p for p in parents[path[-1]] if p in left)
        if node in position:
            return path[position[node]:] + [node]
        position[node] = len(path)
        path.append(node)


def reachable(starts, links) -> set:
    """``starts`` plus every node reachable from them along ``links[node]``.

    Links to nodes that are not keys of ``links`` are ignored.
    """
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for node in links[frontier.pop()]:
            if node not in seen and node in links:
                seen.add(node)
                frontier.append(node)
    return seen
