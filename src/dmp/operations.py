"""The eight graph transformations: edge add/delete/subdivide/contract,
vertex add/delete, Cartesian product and join.

All operations are pure and return new graphs.  Operations that remove or
merge vertices re-index densely and also return an old-to-new id map.
Product vertices are indexed (a, b) -> a * h.n + b.  ``apply`` dispatches
by operation name, the one dispatch every caller goes through; its table also
says what kind of target each operation takes: an edge (u, v), a vertex, the
neighbors of a new vertex as a tuple, or a partner graph.
"""

from __future__ import annotations

from .graph import Graph, from_edge_list


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Add the edge uv between two distinct non-adjacent vertices."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"endpoint out of range: ({u}, {v}) with n={g.n}")
    if u == v:
        raise ValueError(f"cannot add a loop at vertex {u}")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) already present")
    return from_edge_list(g.n, g.edges() + [(u, v)])


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Remove the existing edge uv."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    a, b = min(u, v), max(u, v)
    return from_edge_list(g.n, [e for e in g.edges() if e != (a, b)])


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace edge uv by a new degree-2 vertex w with edges uw and wv."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    a, b = min(u, v), max(u, v)
    w = g.n
    edges = [e for e in g.edges() if e != (a, b)]
    edges.extend([(u, w), (v, w)])
    return from_edge_list(g.n + 1, edges)


def contract_edge(g: Graph, u: int, v: int) -> tuple[Graph, dict[int, int]]:
    """Merge the endpoints of edge uv into one vertex, without multi-edges.

    The merged vertex sits at the smaller of the two old indices; the result
    is densely re-indexed and the returned map sends every old id (including
    both endpoints) to its new id.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    keep, drop = min(u, v), max(u, v)
    id_map = {old: (old if old < drop else old - 1) for old in range(g.n) if old != drop}
    id_map[drop] = id_map[keep]
    edges = set()
    for x, y in g.edges():
        a, b = id_map[x], id_map[y]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return from_edge_list(g.n - 1, sorted(edges)), id_map


def add_vertex(g: Graph, neighbors: list[int] | tuple[int, ...]) -> Graph:
    """Append a new vertex joined to at least one existing vertex."""
    if len(neighbors) == 0:
        raise ValueError("new vertex needs at least one neighbor")
    if len(set(neighbors)) != len(neighbors):
        raise ValueError(f"duplicate neighbors: {neighbors}")
    for w in neighbors:
        if not 0 <= w < g.n:
            raise ValueError(f"neighbor {w} out of range for n={g.n}")
    new = g.n
    return from_edge_list(g.n + 1, g.edges() + [(w, new) for w in neighbors])


def delete_vertex(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    """Remove vertex v and its incident edges; densely re-index the rest."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    if g.n < 2:
        raise ValueError("deleting the last vertex would leave an empty graph")
    id_map = {old: (old if old < v else old - 1) for old in range(g.n) if old != v}
    edges = [
        (id_map[x], id_map[y]) for x, y in g.edges() if x != v and y != v
    ]
    return from_edge_list(g.n - 1, edges), id_map


def product_index(a: int, b: int, h_n: int) -> int:
    """Index of product vertex (a, b) for a right-hand factor on h_n vertices."""
    return a * h_n + b


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,b) ~ (c,d) iff a==c and b~d, or b==d and a~c."""
    if g.n < 1 or h.n < 1:
        raise ValueError("product operands must be non-empty")
    edges = []
    for a in range(g.n):
        for b, d in h.edges():
            edges.append((product_index(a, b, h.n), product_index(a, d, h.n)))
    for b in range(h.n):
        for a, c in g.edges():
            edges.append((product_index(a, b, h.n), product_index(c, b, h.n)))
    return from_edge_list(g.n * h.n, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between them.

    g keeps ids 0..g.n-1; h is shifted to g.n..g.n+h.n-1.
    """
    if g.n < 1 or h.n < 1:
        raise ValueError("join operands must be non-empty")
    off = g.n
    edges = list(g.edges())
    edges.extend((u + off, v + off) for u, v in h.edges())
    edges.extend((u, w + off) for u in range(g.n) for w in range(h.n))
    return from_edge_list(g.n + h.n, edges)


# One row per operation: the kind of target it takes, and its call.  Each call
# looks its operation up in the module globals at call time, so a wrapper
# installed on this module (for tracing, say) also sees calls made through apply.
_DISPATCH = {
    "add-edge": ("edge", lambda g, t: add_edge(g, *t)),
    "delete-edge": ("edge", lambda g, t: delete_edge(g, *t)),
    "subdivide": ("edge", lambda g, t: subdivide_edge(g, *t)),
    "contract": ("edge", lambda g, t: contract_edge(g, *t)[0]),
    "add-vertex": ("neighbors", lambda g, t: add_vertex(g, t)),
    "delete-vertex": ("vertex", lambda g, t: delete_vertex(g, t)[0]),
    "cartesian-product": ("partner", lambda g, t: cartesian_product(g, t)),
    "join": ("partner", lambda g, t: join(g, t)),
}

OP_KINDS = tuple(_DISPATCH)


def target_kind(op: str) -> str:
    """What ``op`` takes as its target: "edge", "vertex", "neighbors" or "partner"."""
    if op not in _DISPATCH:
        raise ValueError(f"unknown operation kind {op!r}")
    return _DISPATCH[op][0]


def describe_target(op: str, target) -> str:
    """Comma-free target description for reports."""
    kind = target_kind(op)
    if kind == "edge":
        return f"edge({target[0]}-{target[1]})"
    if kind == "vertex":
        return f"vertex({target})"
    if kind == "neighbors":
        return "neighbors(" + "+".join(str(x) for x in target) + ")"
    return f"partner(n={target.n};m={target.m})"


def apply(op: str, g: Graph, target) -> Graph:
    """Apply ``op`` to a target of its kind and return the new graph; an unknown
    operation or an invalid target raises ValueError."""
    target_kind(op)  # rejects an unknown operation
    return _DISPATCH[op][1](g, target)
