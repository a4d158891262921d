"""Exact computation of the longest degree-monotone path parameter mp(G).

A path is degree monotone when the host-graph degrees along it are
non-decreasing or non-increasing; mp(G) counts the vertices of a longest
such path.  Two routes are provided:

* ``mp_exact``      degree-class decomposition with an in-component search,
                    exact for any graph, with a witness;
* ``mp_oracle``     exhaustive dynamic program over (vertex set, endpoint)
                    states, for independent verification on small graphs.

Only non-decreasing paths are searched by the solver: reversing a
non-increasing path yields a non-decreasing one, so the two maxima agree.

A non-decreasing path is a chain of maximal equal-degree segments.  Each
segment is a simple path inside one connected component of ``G[V_d]``, the
subgraph on the vertices of degree d, and consecutive segments are joined by
an edge whose degree strictly increases.  So ``mp_exact`` takes two steps.
The generator ``_components`` walks the components one at a time in ascending
degree (ties by smallest id), splitting each member's sorted neighbours into
``same`` and ``up`` (equal and higher degree) as it joins.  ``mp_exact`` closes
each once by one route: a single vertex inline, as it needs no search, with
its component tuple as its segment; a larger component C by one call of
``_search_component``.  ``feed[v]`` is the vertex count of the longest path
ending at a lower-degree neighbour of v; it is final before v's component is
reached, and a path entering C at a has ``feed[a] + 1`` vertices.

``_search_component`` runs a depth-first search with an explicit stack, so
path length is not limited by Python's recursion limit.  It runs over
equal-degree neighbours only, from each start a in descending
``feed[a]`` (then ascending id).  Every path it reaches raises the global
best and ``feed[h]`` of each higher-degree neighbour h of its end.  No path
from a can have more than ``feed[a] + |C|`` vertices, so the component is
finished once that is at most its floor: ``min(feed[h])`` over the exits of
C, the vertices h adjacent to C from above.  The floor of a component with no
exits is the global best itself, read directly on each new best.  Feeds only
grow, so with exits the floor is recomputed only when a raised ``feed[h]``
was at the floor.  ``into[h]`` is the segment whose end set ``feed[h]``;
``mp_exact`` builds the witness from the best segment, then ``into`` of each
start in turn.  The best path is copied once: a long path costs linear time.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import NamedTuple

from .graph import Graph, _Frozen

ORACLE_MAX_N = 12  # largest graph mp_oracle accepts: 2^n * n states


class BudgetExceededError(RuntimeError):
    """Search node budget exhausted; the instance is too large, no value is returned."""


class SearchLimits(_Frozen):
    """The solver's node budget, at least 1.  An immutable value."""

    __slots__ = _fields = ("node_budget",)
    node_budget: int

    def __init__(self, node_budget: int = 50_000_000) -> None:
        if node_budget < 1:
            raise ValueError(f"node budget must be >= 1, got {node_budget}")
        super().__init__(node_budget)


_DEFAULT_LIMITS = SearchLimits()


class MonotonePath(NamedTuple):
    vertices: tuple[int, ...]  # a path whose degrees are non-decreasing


class SearchStats(NamedTuple):
    nodes: int  # vertices pushed by the in-component search
    components: int  # connected components of equal-degree vertices
    largest_component: int  # vertices in the largest of them
    seconds: float


class MpResult(_Frozen):
    """mp(G), a witness path, and the search statistics.  An immutable value whose
    equality and hash take ``value`` and ``witness`` only, not ``stats``."""

    __slots__ = _fields = ("value", "witness", "stats")
    value: int
    witness: MonotonePath
    stats: SearchStats | None

    def __init__(self, value: int, witness: MonotonePath,
                 stats: SearchStats | None = None) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "stats", stats)

    def _key(self) -> tuple:
        return self.value, self.witness


def is_degree_monotone(g: Graph, vertices: list[int] | tuple[int, ...]) -> bool:
    """Check that ``vertices`` is a path with monotone degrees; singletons pass."""
    if len(vertices) == 0:
        raise ValueError("empty vertex list")
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertices in path")
    for v in vertices:
        if not (type(v) is int and 0 <= v < g.n):
            raise ValueError(f"vertex {v!r} out of range for n={g.n}")
    for a, b in zip(vertices, vertices[1:]):
        if not g.has_edge(a, b):
            return False
    degs = [len(g.adj[v]) for v in vertices]
    non_decr = all(a <= b for a, b in zip(degs, degs[1:]))
    non_incr = all(a >= b for a, b in zip(degs, degs[1:]))
    return non_decr or non_incr


def _search_component(comp, same, up, feed, into, on_path, best_len, best, nodes, budget):
    """Search one equal-degree component of two or more vertices, raising ``feed``
    and ``into`` at its exits; return the new ``(best_len, best, nodes)``."""
    size = len(comp)
    exits = set(chain.from_iterable(map(up.__getitem__, comp)))
    floor = min(map(feed.__getitem__, exits)) if exits else best_len
    path: list[int] = []
    for a in sorted(sorted(comp), key=feed.__getitem__, reverse=True):  # ties by id
        base = feed[a]
        if base + size <= floor:
            break
        stack, w = [], a  # one iterator over equal-degree neighbours per path vertex
        while True:  # push w, then find the next w or finish this start
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"node budget {budget} exceeded in an equal-"
                                          f"degree component of {size} vertices")
            on_path[w] = True
            path.append(w)
            val = base + len(path)
            moved = False  # whether the floor may have risen
            if val > best_len:
                best_len, best = val, None  # None: the current path, copied before it shrinks
                moved = not exits
            segment = None
            for h in up[w]:
                if feed[h] < val:
                    moved = moved or feed[h] == floor
                    segment = segment or tuple(path)
                    feed[h], into[h] = val, segment
            if moved:
                floor = min(map(feed.__getitem__, exits)) if exits else best_len
                if base + size <= floor:
                    # no later start can raise a value: the component's feeds are fixed,
                    # starts go in non-increasing feed and the floor only rises; on_path
                    # stays set, as later components are disjoint from this one
                    return best_len, tuple(path) if best is None else best, nodes
            stack.append(iter(same[w]))
            while stack:  # next w: an equal-degree neighbour off the path
                for w in stack[-1]:
                    if not on_path[w]:
                        break
                else:
                    if best is None:
                        best = tuple(path)
                    stack.pop()
                    on_path[path.pop()] = False
                    continue
                break
            else:
                break
    return best_len, best, nodes


def _components(adj, same, up):
    """Yield each equal-degree component as a tuple in walk order: ascending degree,
    ties by smallest id.  Each member's neighbours are split into ``same`` and ``up``
    (equal and higher degree) as it joins, once and in id order."""
    deg = list(map(len, adj))
    for first in sorted(range(len(adj)), key=deg.__getitem__):  # stable: ties by id
        if same[first] is not None:
            continue
        same[first] = []
        comp = [first]
        for v in comp:  # an unseen equal-degree neighbour joins the component
            level, higher, d = same[v], [], deg[v]
            for w in adj[v]:
                dw = deg[w]
                if dw == d:
                    level.append(w)
                    if same[w] is None:
                        same[w] = []
                        comp.append(w)
                elif dw > d:
                    higher.append(w)
            up[v] = higher
        yield tuple(comp)


def mp_exact(g: Graph, limits: SearchLimits | None = None) -> MpResult:
    """Exact mp(G) by degree-class decomposition over non-decreasing paths.

    One node is one vertex pushed by the search inside an equal-degree
    component; a single-vertex component costs none.  Components, starts and
    extensions go in a fixed order, so the result is deterministic.  Raises
    BudgetExceededError when the node budget runs out; a wrong value is never
    returned.
    """
    if g.n < 1:
        raise ValueError("mp is undefined for the empty graph")
    budget = (limits or _DEFAULT_LIMITS).node_budget
    started = time.perf_counter()
    n = g.n
    same: list[list[int] | None] = [None] * n  # equal-degree neighbours; None: unseen
    up: list[list[int] | None] = [None] * n  # higher-degree neighbours
    feed = [0] * n
    into: list[tuple | None] = [None] * n  # the segment whose end set feed[v]
    best_len, best = 0, ()  # the best path's last segment
    on_path = [False] * n
    nodes = 0
    largest = 1

    for components, comp in enumerate(_components(g.adj, same, up), 1):
        if len(comp) == 1:  # a single vertex needs no search and is its own segment
            val = feed[comp[0]] + 1
            if val > best_len:
                best_len, best = val, comp
            for h in up[comp[0]]:
                if feed[h] < val:
                    feed[h], into[h] = val, comp
            continue
        largest = max(largest, len(comp))
        best_len, best, nodes = _search_component(
            comp, same, up, feed, into, on_path, best_len, best, nodes, budget)

    segments = []
    while best:  # each segment's start was fed by the segment before it
        segments.append(best)
        best = into[best[0]]
    vertices = tuple(chain.from_iterable(reversed(segments)))
    stats = SearchStats(nodes, components, largest, time.perf_counter() - started)
    return MpResult(best_len, MonotonePath(vertices), stats)


def mp_oracle(g: Graph) -> int:
    """mp(G) by exhaustive dynamic programming, independent of mp_exact.

    Every (visited set, endpoint) state reachable by a monotone path is
    enumerated, with non-decreasing and non-increasing paths handled by two
    separate passes; there is no bounding, no ordering heuristic and no
    reversal argument.  Feasible only for small graphs: more than
    ``ORACLE_MAX_N`` vertices raise ValueError.
    """
    if g.n < 1:
        raise ValueError("mp is undefined for the empty graph")
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"graph has {g.n} vertices, oracle limit is {ORACLE_MAX_N}")
    n = g.n
    deg = [len(a) for a in g.adj]
    best = 1
    for upward in (True, False):
        allowed = []
        for v in range(n):
            mask = 0
            for w in g.adj[v]:
                if (deg[w] >= deg[v]) if upward else (deg[w] <= deg[v]):
                    mask |= 1 << w
            allowed.append(mask)
        # states[mask] = bitset of endpoints of monotone paths visiting mask
        states = [0] * (1 << n)
        for v in range(n):
            states[1 << v] = 1 << v
        for mask in range(1, 1 << n):
            ends = states[mask]
            if not ends:
                continue
            size = bin(mask).count("1")
            if size > best:
                best = size
            rest = ends
            while rest:
                low = rest & -rest
                end = low.bit_length() - 1
                rest ^= low
                ext = allowed[end] & ~mask
                while ext:
                    lowx = ext & -ext
                    ext ^= lowx
                    states[mask | lowx] |= lowx
    return best
