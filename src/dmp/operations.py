"""The eight graph transformations: edge add/delete/subdivide/contract,
vertex add/delete, Cartesian product and join.

All operations are pure and return new graphs.  Each result's adjacency is
built directly from the parent's: a vertex whose neighbours do not change
keeps the parent's tuple, which is safe to share because graphs are
immutable.  Every neighbour tuple stays strictly increasing without a sort
where the order is known: a new vertex takes the largest id, re-indexing is
monotone, and a join shifts the second graph above the first.  A product
and a join take every entry from one tuple of vertex ids, so each vertex of
the result has one int object, not one per entry.
Subdividing and contracting are built from the basic operations: subdividing
uv deletes uv and adds a vertex joined to u and v; contracting uv joins the
smaller endpoint to the larger's other neighbours and deletes the larger.
Operations that remove or merge vertices re-index densely and also return an
old-to-new id map.  Product vertices are indexed (a, b) -> a * h.n + b.
``apply`` dispatches by operation name, the one dispatch every caller goes
through; its table also says what kind of target each operation takes: an
edge (u, v), a vertex, the neighbors of a new vertex as a tuple, or a partner
graph.  Each kind has one row: its name in messages, its shape rule and its
report text.  ``check_shape`` raises ValueError for an unknown operation or a
target of another shape; ``apply`` and the theorem checks in ``bounds`` call
it before anything else.
"""

from __future__ import annotations

from bisect import bisect_left

# from_edge_list stays importable here: perfbench's tracer patches it per module
from .graph import Graph, from_edge_list  # noqa: F401


def _insert(a: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The sorted tuple a with v, which it lacks, put in order."""
    i = bisect_left(a, v)
    return a[:i] + (v,) + a[i:]


def _remove(a: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The sorted tuple a without v, which it holds."""
    i = bisect_left(a, v)
    return a[:i] + a[i + 1:]


def _reindexed(a: tuple[int, ...], gone: int, id_map: dict[int, int]) -> tuple[int, ...]:
    """The sorted tuple a, which lacks ``gone``, once that vertex is removed: each id
    above it becomes its id_map value, one lower, so the order holds and the map's
    int objects are shared; a tuple wholly below ``gone`` is returned as it is."""
    if not a or a[-1] < gone:
        return a
    i = bisect_left(a, gone)
    return a[:i] + tuple(map(id_map.__getitem__, a[i:]))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Add the edge uv between two distinct non-adjacent vertices."""
    if not (type(u) is int and type(v) is int and 0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"endpoint out of range: ({u!r}, {v!r}) with n={g.n}")
    if u == v:
        raise ValueError(f"cannot add a loop at vertex {u}")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) already present")
    adj = list(g.adj)
    adj[u] = _insert(adj[u], v)
    adj[v] = _insert(adj[v], u)
    return Graph(g.n, tuple(adj))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Remove the existing edge uv."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u!r}, {v!r}) not present")
    adj = list(g.adj)
    adj[u] = _remove(adj[u], v)
    adj[v] = _remove(adj[v], u)
    return Graph(g.n, tuple(adj))


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace edge uv by a new degree-2 vertex w with edges uw and wv: delete uv,
    then add a vertex joined to u and v."""
    return add_vertex(delete_edge(g, u, v), (u, v))


def contract_edge(g: Graph, u: int, v: int) -> tuple[Graph, dict[int, int]]:
    """Merge the endpoints of edge uv at the smaller id, without multi-edges: join
    it to the larger's other neighbours, then delete the larger.  The returned
    map sends every old id, both endpoints included, to its densely re-indexed id."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u!r}, {v!r}) not present")
    keep, drop = min(u, v), max(u, v)
    adj = list(g.adj)
    adj[keep] = tuple(sorted(set(adj[keep]).union(adj[drop]).difference((keep,))))
    for w in g.adj[drop]:  # a neighbour of both endpoints keeps its edge to keep
        if w != keep and not g.has_edge(w, keep):
            adj[w] = _insert(adj[w], keep)
    h, id_map = delete_vertex(Graph(g.n, tuple(adj)), drop)
    id_map[drop] = id_map[keep]
    return h, id_map


def add_vertex(g: Graph, neighbors: list[int] | tuple[int, ...]) -> Graph:
    """Append a new vertex joined to at least one existing vertex."""
    if len(neighbors) == 0:
        raise ValueError("new vertex needs at least one neighbor")
    if len(set(neighbors)) != len(neighbors):
        raise ValueError(f"duplicate neighbors: {neighbors}")
    for w in neighbors:
        if not (type(w) is int and 0 <= w < g.n):
            raise ValueError(f"neighbor {w!r} out of range for n={g.n}")
    new = g.n
    adj = list(g.adj)
    for w in neighbors:
        adj[w] = adj[w] + (new,)
    adj.append(tuple(sorted(neighbors)))
    return Graph(g.n + 1, tuple(adj))


def delete_vertex(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    """Remove vertex v and its incident edges; densely re-index the rest."""
    if not (type(v) is int and 0 <= v < g.n):
        raise ValueError(f"vertex {v!r} out of range for n={g.n}")
    if g.n < 2:
        raise ValueError("deleting the last vertex would leave an empty graph")
    id_map = {old: (old if old < v else old - 1) for old in range(g.n) if old != v}
    adj = list(g.adj)
    for w in g.adj[v]:
        adj[w] = _remove(adj[w], v)
    del adj[v]
    return Graph(g.n - 1, tuple([_reindexed(a, v, id_map) for a in adj])), id_map


def product_index(a: int, b: int, h_n: int) -> int:
    """Index of product vertex (a, b) for a right-hand factor on h_n vertices."""
    return a * h_n + b


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,b) ~ (c,d) iff a==c and b~d, or b==d and a~c."""
    if g.n < 1 or h.n < 1:
        raise ValueError("product operands must be non-empty")
    hn = h.n
    ids = tuple(range(g.n * hn))  # one int object per product vertex, shared by its entries
    adj = []
    for a, ga in enumerate(g.adj):
        # (a, b)'s neighbours in order: (c, b) for c ~ a below a, (a, d) for d ~ b,
        # then (c, b) for c ~ a above a; below and above hold the offsets of (c, .)
        row, i = a * hn, bisect_left(ga, a)
        below, above = [c * hn for c in ga[:i]], [c * hn for c in ga[i:]]
        for b, hb in enumerate(h.adj):
            adj.append(tuple([ids[x + b] for x in below] + [ids[row + d] for d in hb]
                             + [ids[x + b] for x in above]))
    return Graph(len(ids), tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between them.

    g keeps ids 0..g.n-1; h is shifted to g.n..g.n+h.n-1.
    """
    if g.n < 1 or h.n < 1:
        raise ValueError("join operands must be non-empty")
    off = g.n
    g_ids, h_ids = tuple(range(off)), tuple(range(off, off + h.n))
    adj = [tuple([g_ids[w] for w in a]) + h_ids for a in g.adj]
    adj.extend(g_ids + tuple([h_ids[w] for w in b]) for b in h.adj)
    return Graph(off + h.n, tuple(adj))


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


def _ints(t) -> bool:
    return isinstance(t, (tuple, list)) and all(type(x) is int for x in t)


# One row per target kind: its name in messages, its shape rule, and its
# comma-free report text.  The rules test type() and not isinstance(), because
# True and False are ints too.
_KINDS = {
    "edge": ("an edge (u, v)", lambda t: _ints(t) and len(t) == 2,
             lambda t: f"edge({t[0]}-{t[1]})"),
    "vertex": ("a vertex", lambda t: type(t) is int, lambda t: f"vertex({t})"),
    "neighbors": ("a tuple of neighbors", _ints, lambda t: f"neighbors({'+'.join(map(str, t))})"),
    "partner": ("a partner graph", lambda t: isinstance(t, Graph),
                lambda t: f"partner(n={t.n};m={t.m})"),
}


def target_kind(op: str) -> str:
    """What ``op`` takes as its target: "edge", "vertex", "neighbors" or "partner"."""
    if op not in _DISPATCH:
        raise ValueError(f"unknown operation kind {op!r}")
    return _DISPATCH[op][0]


def describe_target(op: str, target) -> str:
    """Comma-free target description for reports."""
    return _KINDS[target_kind(op)][2](target)


def check_shape(op: str, target) -> None:
    """Raise ValueError unless ``target`` has the shape of ``op``'s target kind."""
    what, fits, _ = _KINDS[target_kind(op)]
    if not fits(target):
        raise ValueError(f"{op} takes {what}, got {target!r}")


def apply(op: str, g: Graph, target) -> Graph:
    """Apply ``op`` to a target of its kind and return the new graph; an unknown
    operation or an invalid target raises ValueError."""
    check_shape(op, target)
    return _DISPATCH[op][1](g, target)
