"""Parameterized generators for every extremal family in the catalog.

The catalog is one table, ``_FAMILIES``: one ``FamilyInfo`` row per family,
in catalog order, carrying the family's name, its parameters with their
minimums, the theorem it witnesses, the tight end, a note and a builder.
``build(**params)`` returns ``(graph, operation, target, claimed_before,
claimed_after)``; ``generate`` validates the parameters and wraps that tuple
in a ConstructionInstance, and ``list_families()`` returns the rows in table
order.  Claims are verified against the exact solver in the test suite,
never assumed.

Vertex labeling is fixed so targets are stable: spine vertices first (in
spine order), then pendant leaves in spine order, then auxiliary vertices.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .graph import Graph, from_edge_list
from . import operations as ops


class ConstructionInstance(NamedTuple):
    family: str
    params: dict[str, int]
    graph: Graph
    operation: str  # one of operations.OP_KINDS
    target: tuple[int, int] | int | tuple[int, ...] | Graph  # of the operation's kind
    claimed_mp_before: int
    claimed_mp_after: int


class FamilyInfo(NamedTuple):
    name: str
    params: tuple[tuple[str, int], ...]  # (param name, minimum value)
    theorem: str | None  # bound theorem the designated operation witnesses
    tight: str | None  # "low", "high" or None
    note: str
    # build(**params) -> (graph, operation, target, claimed_before, claimed_after)
    build: Callable[..., tuple]


def apply_designated(inst: ConstructionInstance) -> Graph:
    """Apply the instance's designated operation and return the new graph."""
    return ops.apply(inst.operation, inst.graph, inst.target)


# basic graphs


def path_graph(n: int) -> Graph:
    return from_edge_list(n, _spine_edges(n))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(m: int) -> Graph:
    """Star with center 0 and m leaves."""
    return complete_bipartite_graph(1, m)


# caterpillar helpers


def _spine_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _attach_leaves(
    edges: list[tuple[int, int]], next_id: int, hosts: list[int], per_host: int = 1
) -> tuple[int, dict[int, int]]:
    """Attach per_host leaves to each host in order; returns (next id, host -> first leaf)."""
    leaf_of: dict[int, int] = {}
    for h in hosts:
        leaf_of[h] = next_id
        edges.extend((h, next_id + i) for i in range(per_host))
        next_id += per_host
    return next_id, leaf_of


def _leafed_spine(spine: int, hosts: list[int]) -> Graph:
    """Path on spine vertices, one leaf per host; the i-th host's leaf has id spine + i."""
    edges = _spine_edges(spine)
    nxt, _ = _attach_leaves(edges, spine, hosts)
    return from_edge_list(nxt, edges)


# family builders, 0-based ids throughout (spine vertex v_i means id i-1);
# each returns (graph, operation, target, claimed_before, claimed_after)


def _build_path(n: int):
    return path_graph(n), "subdivide", (0, 1), n - 1, n


def _build_edge_add_upper(k: int):
    """Caterpillar on a 3k-vertex spine whose mp triples when edge (k, 2k) is added.

    Spine ids 0..3k-1; one leaf on spine ids 1..3k-3 except k and 2k; then an
    auxiliary vertex z joined to spine id 3k-2, carrying two extra leaves.
    """
    spine = 3 * k
    edges = _spine_edges(spine)
    hosts = [j for j in range(1, spine - 2) if j not in (k, 2 * k)]
    z, _ = _attach_leaves(edges, spine, hosts)
    edges += [(spine - 2, z), (z, z + 1), (z, z + 2)]
    return from_edge_list(z + 3, edges), "add-edge", (k, 2 * k), k, 3 * k


def _build_edge_delete_upper(k: int):
    """Spine of 3k-1 vertices with a chord (k, 2k) whose deletion almost triples mp.

    Without the chord the spine degrees descend 4, 3...3, 2...2, 1: three
    leaves on spine id 0, one pendant on each of spine ids 1..2k-2, bare
    tail.  The pendants of ids 1 and k-1 carry three sub-leaves each so that
    no leaf-ended descent or leaf-started ascent exceeds k vertices while
    the chord is present.
    """
    spine = 3 * k - 1
    edges = _spine_edges(spine) + [(k, 2 * k)]
    nxt, _ = _attach_leaves(edges, spine, [0], per_host=3)
    nxt, leaf_of = _attach_leaves(edges, nxt, list(range(1, 2 * k - 1)))
    nxt, _ = _attach_leaves(edges, nxt, [leaf_of[1], leaf_of[k - 1]], per_host=3)
    return from_edge_list(nxt, edges), "delete-edge", (k, 2 * k), k, 3 * k - 1


def _undo(built, operation: str):
    """A built instance read backwards: its edge operation done, ``operation`` undoing it."""
    g, done, edge, before, after = built
    return ops.apply(done, g, edge), operation, edge, after, before


def _build_leafed_path(n: int):
    """Path on n vertices, a leaf on each interior one; subdividing the middle edge halves mp."""
    g = _leafed_spine(n, list(range(1, n - 1)))
    mid = (n + 1) // 2 - 1
    return g, "subdivide", (mid, mid + 1), n - 1, (n + 1) // 2


def _build_contract_upper(k: int):
    """Tree whose mp doubles when a pendant edge at spine id k-1 is contracted.

    Spine ids 0..2k; one leaf on each of spine ids 1..2k-1; a second leaf on
    ids k-1 and 2k-1; the pendants of spine ids k and 2k-2 (the same pendant
    when k = 2) carry three sub-leaves each so neither can start or end a
    monotone path longer than k.
    """
    spine = 2 * k + 1
    edges = _spine_edges(spine)
    nxt, leaf_of = _attach_leaves(edges, spine, list(range(1, spine - 1)))
    nxt, _ = _attach_leaves(edges, nxt, [k - 1, 2 * k - 1])
    nxt, _ = _attach_leaves(edges, nxt, [leaf_of[h] for h in sorted({k, 2 * k - 2})], per_host=3)
    return from_edge_list(nxt, edges), "contract", (k - 1, leaf_of[k - 1]), k, 2 * k


def _build_contract_lower(k: int):
    """Triangle-free graph whose mp divides by three when edge (k, 2k+1) is contracted.

    Spine ids 0..3k+2; one leaf on each of spine ids 1..3k+1 except k and
    2k+1, which are joined by the designated edge instead; the leaves of
    spine ids k+1, 2k, 2k+2 and 3k+1 each carry three sub-leaves; spine id
    3k+2 carries three extra leaves.
    """
    spine = 3 * k + 3
    edges = _spine_edges(spine) + [(k, 2 * k + 1)]
    hosts = [j for j in range(1, spine - 1) if j not in (k, 2 * k + 1)]
    nxt, leaf_of = _attach_leaves(edges, spine, hosts)
    heavy = [leaf_of[h] for h in (k + 1, 2 * k, 2 * k + 2, 3 * k + 1)] + [spine - 1]
    nxt, _ = _attach_leaves(edges, nxt, heavy, per_host=3)
    return from_edge_list(nxt, edges), "contract", (k, 2 * k + 1), 3 * k + 3, k + 1


def _build_k4_free(k: int):
    """K4-free graph with mp 4 where contracting edge (u, v) makes mp cover n-1.

    Spine cycle ids 0..4k-1 (path plus the closing edge), u = 4k, v = 4k+1.
    Odd spine ids go to both u and v; even ids 0..2k-2 go to u, even ids
    2k..4k-2 go to v.
    """
    spine = 4 * k
    u, v = spine, spine + 1
    edges = _spine_edges(spine)
    edges += [(0, spine - 1), (u, v)]
    edges += [(j, w) for j in range(1, spine, 2) for w in (u, v)]
    edges += [(j, u if j < 2 * k else v) for j in range(0, spine, 2)]
    return from_edge_list(spine + 2, edges), "contract", (u, v), 4, 4 * k + 1


# the catalog: one row per family, in catalog order

_FAMILIES: dict[str, FamilyInfo] = {f.name: f for f in (
    FamilyInfo(
        "path", (("n", 3),), "subdivision", "high",
        "path P_n; subdividing an edge raises mp from n-1 to n", _build_path),
    FamilyInfo(
        "cycle", (("n", 3),), "edge_delete", None,
        "cycle C_n; deleting an edge drops mp from n to n-1",
        lambda n: (cycle_graph(n), "delete-edge", (0, 1), n, n - 1)),
    FamilyInfo(
        "complete", (("n", 2),), "vertex_delete_general", "high",
        "complete K_n; deleting a vertex realizes the n-1 ceiling",
        lambda n: (complete_graph(n), "delete-vertex", 0, n, n - 1)),
    FamilyInfo(
        "complete_bipartite", (("n", 1),), "vertex_add_general", "high",
        "K_{n,n+1}; joining a new vertex to the larger part realizes the n+1 ceiling",
        lambda n: (complete_bipartite_graph(n, n + 1), "add-vertex",
                   tuple(range(n, 2 * n + 1)), 2, 2 * n + 2)),
    FamilyInfo(
        "star", (("m", 1),), "vertex_delete_general", "low",
        "star K_{1,m}; deleting the center leaves an edgeless graph with mp 1",
        lambda m: (star_graph(m), "delete-vertex", 0, 2, 1)),
    FamilyInfo(
        "g1_plus", (("k", 3),), "edge_add", "high",
        "edge addition can triple mp: k to 3k", _build_edge_add_upper),
    FamilyInfo(
        "g1_minus", (("k", 3),), "edge_delete", "high",
        "edge deletion can reach 3*mp-1: k to 3k-1", _build_edge_delete_upper),
    FamilyInfo(
        "g2_plus", (("k", 3),), "edge_add", "low",
        "edge addition can collapse mp to (mp+1)/3: 3k-1 to k",
        lambda k: _undo(_build_edge_delete_upper(k), "add-edge")),
    FamilyInfo(
        "g2_minus", (("k", 3),), "edge_delete", "low",
        "edge deletion can collapse mp to mp/3: 3k to k",
        lambda k: _undo(_build_edge_add_upper(k), "delete-edge")),
    FamilyInfo(
        "subdiv_upper", (("n", 3),), "subdivision", "high",
        "plain path; subdivision gains one vertex, n-1 to n", _build_path),
    FamilyInfo(
        "subdiv_lower", (("n", 4),), "subdivision", "low",
        "leafed path; subdividing the middle edge halves mp, n-1 to ceil(n/2)",
        _build_leafed_path),
    FamilyInfo(
        "contract_g1", (("k", 2),), "contraction_triangle_free", "high",
        "contracting a pendant edge can double mp: k to 2k", _build_contract_upper),
    FamilyInfo(
        "contract_g3", (("k", 2),), "contraction_triangle_free", "low",
        "contracting a chord can divide mp by three: 3k+3 to k+1", _build_contract_lower),
    FamilyInfo(
        "k4_free", (("k", 2),), None, None,
        "K4-free, not triangle-free; contraction jumps mp from 4 to n-1 = 4k+1",
        _build_k4_free),
    FamilyInfo(
        "tree_t1_plus", (("k", 2),), "tree_leaf_add", "high",
        "adding a leaf to a tree can double mp: k to 2k",
        lambda k: (_leafed_spine(2 * k + 1, [j for j in range(1, 2 * k) if j != k]),
                   "add-vertex", (k,), k, 2 * k)),
    FamilyInfo(
        "tree_t1_minus", (("k", 2),), "tree_leaf_delete", "high",
        "deleting a leaf from a tree can double mp: k to 2k",
        # target 2k+1 is the leaf of spine id k-1
        lambda k: (_leafed_spine(2 * k + 1, [k - 1, 2 * k - 1]),
                   "delete-vertex", 2 * k + 1, k, 2 * k)),
    FamilyInfo(
        "tree_t2_plus", (("k", 2),), "tree_leaf_add", "low",
        "adding a leaf to a tree can halve mp: 2k to k",
        lambda k: (_leafed_spine(2 * k + 1, [2 * k - 1]), "add-vertex", (k - 1,), 2 * k, k)),
    FamilyInfo(
        "tree_t2_minus", (("k", 2),), "tree_leaf_delete", "low",
        "deleting a leaf from a tree can halve mp: 2k to k",
        # target 3k is the leaf of spine id k
        lambda k: (_leafed_spine(2 * k + 1, list(range(1, 2 * k))),
                   "delete-vertex", 3 * k, 2 * k, k)),
    FamilyInfo(
        "tree_blowup", (("k", 2),), "vertex_add_general", None,
        "non-leaf vertex addition is unbounded on trees: mp 2 to 2k",
        lambda k: (_leafed_spine(2 * k + 1, list(range(1, 2 * k, 2))),
                   "add-vertex", tuple(range(0, 2 * k + 1, 2)), 2, 2 * k)),
    FamilyInfo(
        "product_star_star", (("m", 2),), "cartesian_product", "low",
        "K_{1,m} x K_{1,m} pins the product floor: mp 2 and 2 give 3",
        lambda m: (star_graph(m), "cartesian-product", star_graph(m), 2, 3)),
    FamilyInfo(
        "product_regular_snake", (("t", 3),), "cartesian_product", "high",
        "regular factor snakes through all rows: C_t x P_3 gives mp t*2",
        lambda t: (cycle_graph(t), "cartesian-product", path_graph(3), t, 2 * t)),
    FamilyInfo(
        "join_same_degseq", (("n", 3),), "join", "high",
        "join of two same-degree-sequence graphs uses every vertex: P_n + P_n gives 2n",
        lambda n: (path_graph(n), "join", path_graph(n), n - 1, 2 * n)),
    FamilyInfo(
        "join_star_complete", (("m", 1), ("k", 1)), "join", "low",
        "K_{1,m} + K_k pins the join floor: mp 2 and k give k+2",
        lambda m, k: (star_graph(m), "join", complete_graph(k), 2, k + 2)),
)}


def list_families() -> list[FamilyInfo]:
    """The closed family catalog: the table's rows, in table order."""
    return list(_FAMILIES.values())


def generate(family: str, params: dict[str, int]) -> ConstructionInstance:
    """Generate one catalog instance; unknown families or bad params raise."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    info = _FAMILIES[family]
    expected = [name for name, _ in info.params]
    if sorted(params) != sorted(expected):
        raise ValueError(
            f"family {family!r} takes params {expected}, got {sorted(params)}"
        )
    for name, minimum in info.params:
        if type(params[name]) is not int or params[name] < minimum:  # a bool is not an int
            raise ValueError(f"family {family!r} needs {name} >= {minimum}, got {params[name]!r}")
    return ConstructionInstance(family, dict(params), *info.build(**params))
