"""Exact computation of the longest degree-monotone path parameter mp(G).

A path is degree monotone when the host-graph degrees along it are
non-decreasing or non-increasing; mp(G) counts the vertices of a longest
such path.  Two routes are provided:

* ``mp_exact``      branch and bound, exact for any graph, with a witness;
* ``mp_oracle``     exhaustive dynamic program over (vertex set, endpoint)
                    states, for independent verification on small graphs.

Only non-decreasing paths are searched by the solver: reversing a
non-increasing path yields a non-decreasing one, so the two maxima agree.

``mp_exact`` is a depth-first search with an explicit stack, so path length
is not limited by Python's recursion limit.  Its optimistic bound for a
partial path is the path length plus the number of vertices off the path
whose degree is at least deg(end).  Degrees never fall along the path, so
the path vertices of degree >= deg(end) are exactly its last run of equal
degrees, and the bound is ``lower + total_ge[deg(end)]``: ``lower`` counts
the path vertices of degree below deg(end), ``total_ge[d]`` the vertices of
degree >= d.  Each stack frame carries its own ``lower``, so the bound costs
O(1) per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .graph import Graph

ORACLE_MAX_N = 12  # largest graph mp_oracle accepts: 2^n * n states


class BudgetExceededError(RuntimeError):
    """Search node budget exhausted; the instance is too large, no value is returned."""


@dataclass(frozen=True)
class SearchLimits:
    node_budget: int = 50_000_000

    def __post_init__(self) -> None:
        if self.node_budget < 1:
            raise ValueError(f"node budget must be >= 1, got {self.node_budget}")


@dataclass(frozen=True)
class MonotonePath:
    vertices: tuple[int, ...]  # a path whose degrees are non-decreasing


@dataclass(frozen=True)
class MpResult:
    value: int
    witness: MonotonePath


def is_degree_monotone(g: Graph, vertices: list[int] | tuple[int, ...]) -> bool:
    """Check that ``vertices`` is a path with monotone degrees; singletons pass."""
    if len(vertices) == 0:
        raise ValueError("empty vertex list")
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertices in path")
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    for a, b in zip(vertices, vertices[1:]):
        if b not in g.adj[a]:
            return False
    degs = [len(g.adj[v]) for v in vertices]
    non_decr = all(a <= b for a, b in zip(degs, degs[1:]))
    non_incr = all(a >= b for a, b in zip(degs, degs[1:]))
    return non_decr or non_incr


def mp_exact(g: Graph, limits: SearchLimits | None = None) -> MpResult:
    """Exact mp(G) by branch and bound over non-decreasing paths.

    Starts go in ascending (degree, id) order and extensions in ascending id
    order, so the result is deterministic.  Raises BudgetExceededError when
    the node budget runs out; a wrong value is never returned.
    """
    if g.n < 1:
        raise ValueError("mp is undefined for the empty graph")
    budget = (limits or SearchLimits()).node_budget
    deg = [len(a) for a in g.adj]

    # neighbors that can extend a non-decreasing path, ascending id
    up_nbrs = [sorted(w for w in g.adj[v] if deg[w] >= deg[v]) for v in range(g.n)]

    # total_ge[d] = number of vertices with degree >= d
    counts = [0] * (max(deg) + 2)
    for d in deg:
        counts[d] += 1
    total_ge = list(accumulate(reversed(counts)))[::-1]

    on_path = [False] * g.n
    path: list[int] = []
    best_path: tuple[int, ...] = ()
    best_len = nodes = 0

    for w in sorted(range(g.n), key=lambda x: (deg[x], x)):
        # a start at w can reach at most total_ge[deg[w]] vertices
        if total_ge[deg[w]] <= best_len:
            continue
        stack, lower = [], 0  # one frame (up-neighbors left, lower) per path vertex
        while True:  # push w, then find the next w or finish this start
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"node budget {budget} exceeded at path length {len(path)}"
                )
            on_path[w] = True
            path.append(w)
            if len(path) > best_len:
                best_len = len(path)
                best_path = tuple(path)
            if lower + total_ge[deg[w]] > best_len:
                stack.append((iter(up_nbrs[w]), lower))
            else:
                on_path[path.pop()] = False
            while stack:  # next w: an up-neighbor off the path, or backtrack
                nbrs, lower = stack[-1]
                for w in nbrs:
                    if not on_path[w]:
                        break
                else:
                    stack.pop()
                    on_path[path.pop()] = False
                    continue
                if deg[w] > deg[path[-1]]:
                    lower = len(path)
                break
            else:
                break

    return MpResult(best_len, MonotonePath(best_path))


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
