"""Parameterized generators for every extremal family in the catalog.

Each family yields a ConstructionInstance: the graph, the designated
operation and target that witness a bound, and the claimed mp values before
and after the operation.  Claims are verified against the exact solver in
the test suite, never assumed.

Vertex labeling is fixed so targets are stable: spine vertices first (in
spine order), then pendant leaves in spine order, then auxiliary vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, from_edge_list
from . import operations as ops
from .operations import OP_KINDS


@dataclass(frozen=True)
class ConstructionInstance:
    family: str
    params: dict[str, int]
    graph: Graph
    operation: str  # one of OP_KINDS
    target: tuple[int, int] | int | tuple[int, ...] | Graph
    claimed_mp_before: int
    claimed_mp_after: int

    def __post_init__(self) -> None:
        if self.operation not in OP_KINDS:
            raise ValueError(f"unknown operation kind {self.operation!r}")


@dataclass(frozen=True)
class FamilyInfo:
    name: str
    params: tuple[tuple[str, int], ...]  # (param name, minimum value)
    theorem: str | None  # bound theorem the designated operation witnesses
    tight: str | None  # "low", "high" or None
    note: str


def apply_designated(inst: ConstructionInstance) -> Graph:
    """Apply the instance's designated operation and return the new graph."""
    return ops.apply(inst.operation, inst.graph, inst.target)


# basic graphs


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


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
    return from_edge_list(m + 1, [(0, i) for i in range(1, m + 1)])


# caterpillar helpers


def _spine_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _attach_leaves(
    edges: list[tuple[int, int]], next_id: int, hosts: list[int], per_host: int = 1
) -> tuple[int, dict[int, list[int]]]:
    """Attach per_host pendant leaves to each host, ids assigned in host order.

    Returns the next free id and a host -> leaf ids map.
    """
    leaf_of: dict[int, list[int]] = {}
    for h in hosts:
        for _ in range(per_host):
            edges.append((h, next_id))
            leaf_of.setdefault(h, []).append(next_id)
            next_id += 1
    return next_id, leaf_of


# family builders, 0-based ids throughout (spine vertex v_i means id i-1)


def _build_edge_add_upper(k: int) -> tuple[Graph, tuple[int, int]]:
    """Caterpillar on a 3k-vertex spine whose mp triples when edge (k, 2k) is added.

    Spine ids 0..3k-1; one leaf on spine ids 1..3k-3 except k and 2k; then an
    auxiliary vertex z joined to spine id 3k-2, carrying two extra leaves.
    """
    spine = 3 * k
    edges = _spine_edges(spine)
    hosts = [j for j in range(1, spine - 2) if j not in (k, 2 * k)]
    nxt, _ = _attach_leaves(edges, spine, hosts)
    z = nxt
    edges.append((spine - 2, z))
    edges.append((z, z + 1))
    edges.append((z, z + 2))
    return from_edge_list(z + 3, edges), (k, 2 * k)


def _build_edge_delete_upper(k: int) -> tuple[Graph, tuple[int, int]]:
    """Spine of 3k-1 vertices with a chord (k, 2k) whose deletion almost triples mp.

    Without the chord the spine degrees descend 4, 3...3, 2...2, 1: three
    leaves on spine id 0, one pendant on each of spine ids 1..2k-2, bare
    tail.  The pendants of ids 1 and k-1 carry three sub-leaves each so that
    no leaf-ended descent or leaf-started ascent exceeds k vertices while
    the chord is present.
    """
    spine = 3 * k - 1
    edges = _spine_edges(spine)
    edges.append((k, 2 * k))
    nxt, _ = _attach_leaves(edges, spine, [0], per_host=3)
    nxt, leaf_of = _attach_leaves(edges, nxt, list(range(1, 2 * k - 1)))
    for host in (1, k - 1):
        nxt, _ = _attach_leaves(edges, nxt, [leaf_of[host][0]], per_host=3)
    return from_edge_list(nxt, edges), (k, 2 * k)


def _build_contract_upper(k: int) -> tuple[Graph, tuple[int, int]]:
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
    for host in sorted({k, 2 * k - 2}):
        nxt, _ = _attach_leaves(edges, nxt, [leaf_of[host][0]], per_host=3)
    return from_edge_list(nxt, edges), (k - 1, leaf_of[k - 1][0])


def _build_contract_lower(k: int) -> tuple[Graph, tuple[int, int]]:
    """Triangle-free graph whose mp divides by three when edge (k, 2k+1) is contracted.

    Spine ids 0..3k+2; one leaf on each of spine ids 1..3k+1 except k and
    2k+1, which are joined by the designated edge instead; the leaves of
    spine ids k+1, 2k, 2k+2 and 3k+1 each carry three sub-leaves; spine id
    3k+2 carries three extra leaves.
    """
    spine = 3 * k + 3
    edges = _spine_edges(spine)
    edges.append((k, 2 * k + 1))
    hosts = [j for j in range(1, spine - 1) if j not in (k, 2 * k + 1)]
    nxt, leaf_of = _attach_leaves(edges, spine, hosts)
    pumped = [k + 1, 2 * k, 2 * k + 2, 3 * k + 1]
    for h in pumped:
        nxt, _ = _attach_leaves(edges, nxt, [leaf_of[h][0]], per_host=3)
    nxt, _ = _attach_leaves(edges, nxt, [spine - 1], per_host=3)
    return from_edge_list(nxt, edges), (k, 2 * k + 1)


def _build_k4_free(k: int) -> tuple[Graph, tuple[int, int]]:
    """K4-free graph with mp 4 where contracting edge (u, v) makes mp cover n-1.

    Spine cycle ids 0..4k-1 (path plus the closing edge), u = 4k, v = 4k+1.
    Odd spine ids go to both u and v; even ids 0..2k-2 go to u, even ids
    2k..4k-2 go to v.
    """
    spine = 4 * k
    u, v = spine, spine + 1
    edges = _spine_edges(spine)
    edges.append((0, spine - 1))
    edges.append((u, v))
    for j in range(1, spine, 2):
        edges.append((j, u))
        edges.append((j, v))
    for j in range(0, spine, 2):
        edges.append((j, u if j < 2 * k else v))
    return from_edge_list(spine + 2, edges), (u, v)


def _build_leafed_path(n: int) -> tuple[Graph, dict[int, list[int]]]:
    """Path on n spine vertices with one pendant leaf on each interior vertex."""
    edges = _spine_edges(n)
    _, leaf_of = _attach_leaves(edges, n, list(range(1, n - 1)))
    return from_edge_list(n + (n - 2), edges), leaf_of


# family registry

_FAMILY_ORDER = [
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "star",
    "g1_plus",
    "g1_minus",
    "g2_plus",
    "g2_minus",
    "subdiv_upper",
    "subdiv_lower",
    "contract_g1",
    "contract_g3",
    "k4_free",
    "tree_t1_plus",
    "tree_t1_minus",
    "tree_t2_plus",
    "tree_t2_minus",
    "tree_blowup",
    "product_star_star",
    "product_regular_snake",
    "join_same_degseq",
    "join_star_complete",
]

_FAMILY_INFO: dict[str, FamilyInfo] = {
    "path": FamilyInfo(
        "path", (("n", 3),), "subdivision", "high",
        "path P_n; subdividing an edge raises mp from n-1 to n"),
    "cycle": FamilyInfo(
        "cycle", (("n", 3),), "edge_delete", None,
        "cycle C_n; deleting an edge drops mp from n to n-1"),
    "complete": FamilyInfo(
        "complete", (("n", 2),), "vertex_delete_general", "high",
        "complete K_n; deleting a vertex realizes the n-1 ceiling"),
    "complete_bipartite": FamilyInfo(
        "complete_bipartite", (("n", 1),), "vertex_add_general", "high",
        "K_{n,n+1}; joining a new vertex to the larger part realizes the n+1 ceiling"),
    "star": FamilyInfo(
        "star", (("m", 1),), "vertex_delete_general", "low",
        "star K_{1,m}; deleting the center leaves an edgeless graph with mp 1"),
    "g1_plus": FamilyInfo(
        "g1_plus", (("k", 3),), "edge_add", "high",
        "edge addition can triple mp: k to 3k"),
    "g1_minus": FamilyInfo(
        "g1_minus", (("k", 3),), "edge_delete", "high",
        "edge deletion can reach 3*mp-1: k to 3k-1"),
    "g2_plus": FamilyInfo(
        "g2_plus", (("k", 3),), "edge_add", "low",
        "edge addition can collapse mp to (mp+1)/3: 3k-1 to k"),
    "g2_minus": FamilyInfo(
        "g2_minus", (("k", 3),), "edge_delete", "low",
        "edge deletion can collapse mp to mp/3: 3k to k"),
    "subdiv_upper": FamilyInfo(
        "subdiv_upper", (("n", 3),), "subdivision", "high",
        "plain path; subdivision gains one vertex, n-1 to n"),
    "subdiv_lower": FamilyInfo(
        "subdiv_lower", (("n", 4),), "subdivision", "low",
        "leafed path; subdividing the middle edge halves mp, n-1 to ceil(n/2)"),
    "contract_g1": FamilyInfo(
        "contract_g1", (("k", 2),), "contraction_triangle_free", "high",
        "contracting a pendant edge can double mp: k to 2k"),
    "contract_g3": FamilyInfo(
        "contract_g3", (("k", 2),), "contraction_triangle_free", "low",
        "contracting a chord can divide mp by three: 3k+3 to k+1"),
    "k4_free": FamilyInfo(
        "k4_free", (("k", 2),), None, None,
        "K4-free, not triangle-free; contraction jumps mp from 4 to n-1 = 4k+1"),
    "tree_t1_plus": FamilyInfo(
        "tree_t1_plus", (("k", 2),), "tree_leaf_add", "high",
        "adding a leaf to a tree can double mp: k to 2k"),
    "tree_t1_minus": FamilyInfo(
        "tree_t1_minus", (("k", 2),), "tree_leaf_delete", "high",
        "deleting a leaf from a tree can double mp: k to 2k"),
    "tree_t2_plus": FamilyInfo(
        "tree_t2_plus", (("k", 2),), "tree_leaf_add", "low",
        "adding a leaf to a tree can halve mp: 2k to k"),
    "tree_t2_minus": FamilyInfo(
        "tree_t2_minus", (("k", 2),), "tree_leaf_delete", "low",
        "deleting a leaf from a tree can halve mp: 2k to k"),
    "tree_blowup": FamilyInfo(
        "tree_blowup", (("k", 2),), "vertex_add_general", None,
        "non-leaf vertex addition is unbounded on trees: mp 2 to 2k"),
    "product_star_star": FamilyInfo(
        "product_star_star", (("m", 2),), "cartesian_product", "low",
        "K_{1,m} x K_{1,m} pins the product floor: mp 2 and 2 give 3"),
    "product_regular_snake": FamilyInfo(
        "product_regular_snake", (("t", 3),), "cartesian_product", "high",
        "regular factor snakes through all rows: C_t x P_3 gives mp t*2"),
    "join_same_degseq": FamilyInfo(
        "join_same_degseq", (("n", 3),), "join", "high",
        "join of two same-degree-sequence graphs uses every vertex: P_n + P_n gives 2n"),
    "join_star_complete": FamilyInfo(
        "join_star_complete", (("m", 1), ("k", 1)), "join", "low",
        "K_{1,m} + K_k pins the join floor: mp 2 and k give k+2"),
}


def list_families() -> list[FamilyInfo]:
    """The closed family catalog, in stable order."""
    return [_FAMILY_INFO[name] for name in _FAMILY_ORDER]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def generate(family: str, params: dict[str, int]) -> ConstructionInstance:
    """Generate one catalog instance; unknown families or bad params raise."""
    if family not in _FAMILY_INFO:
        raise ValueError(f"unknown family {family!r}")
    info = _FAMILY_INFO[family]
    expected = [name for name, _ in info.params]
    if sorted(params) != sorted(expected):
        raise ValueError(
            f"family {family!r} takes params {expected}, got {sorted(params)}"
        )
    for name, minimum in info.params:
        if params[name] < minimum:
            raise ValueError(f"family {family!r} needs {name} >= {minimum}, got {params[name]}")

    def inst(graph: Graph, op: str, target, before: int, after: int) -> ConstructionInstance:
        return ConstructionInstance(family, dict(params), graph, op, target, before, after)

    if family == "path":
        n = params["n"]
        return inst(path_graph(n), "subdivide", (0, 1), n - 1, n)
    if family == "cycle":
        n = params["n"]
        return inst(cycle_graph(n), "delete-edge", (0, 1), n, n - 1)
    if family == "complete":
        n = params["n"]
        return inst(complete_graph(n), "delete-vertex", 0, n, n - 1)
    if family == "complete_bipartite":
        n = params["n"]
        g = complete_bipartite_graph(n, n + 1)
        larger = tuple(range(n, 2 * n + 1))
        return inst(g, "add-vertex", larger, 2, 2 * n + 2)
    if family == "star":
        m = params["m"]
        return inst(star_graph(m), "delete-vertex", 0, 2, 1)
    if family == "g1_plus":
        k = params["k"]
        g, e = _build_edge_add_upper(k)
        return inst(g, "add-edge", e, k, 3 * k)
    if family == "g1_minus":
        k = params["k"]
        g, e = _build_edge_delete_upper(k)
        return inst(g, "delete-edge", e, k, 3 * k - 1)
    if family == "g2_plus":
        k = params["k"]
        g, e = _build_edge_delete_upper(k)
        return inst(ops.delete_edge(g, *e), "add-edge", e, 3 * k - 1, k)
    if family == "g2_minus":
        k = params["k"]
        g, e = _build_edge_add_upper(k)
        return inst(ops.add_edge(g, *e), "delete-edge", e, 3 * k, k)
    if family == "subdiv_upper":
        n = params["n"]
        return inst(path_graph(n), "subdivide", (0, 1), n - 1, n)
    if family == "subdiv_lower":
        n = params["n"]
        g, _ = _build_leafed_path(n)
        mid = _ceil_div(n, 2) - 1
        return inst(g, "subdivide", (mid, mid + 1), n - 1, _ceil_div(n, 2))
    if family == "contract_g1":
        k = params["k"]
        g, e = _build_contract_upper(k)
        return inst(g, "contract", e, k, 2 * k)
    if family == "contract_g3":
        k = params["k"]
        g, e = _build_contract_lower(k)
        return inst(g, "contract", e, 3 * k + 3, k + 1)
    if family == "k4_free":
        k = params["k"]
        g, e = _build_k4_free(k)
        return inst(g, "contract", e, 4, 4 * k + 1)
    if family == "tree_t1_plus":
        k = params["k"]
        edges = _spine_edges(2 * k + 1)
        hosts = [j for j in range(1, 2 * k) if j != k]
        _attach_leaves(edges, 2 * k + 1, hosts)
        g = from_edge_list(2 * k + 1 + len(hosts), edges)
        return inst(g, "add-vertex", (k,), k, 2 * k)
    if family == "tree_t1_minus":
        k = params["k"]
        edges = _spine_edges(2 * k + 1)
        nxt, leaf_of = _attach_leaves(edges, 2 * k + 1, [k - 1, 2 * k - 1])
        g = from_edge_list(nxt, edges)
        return inst(g, "delete-vertex", leaf_of[k - 1][0], k, 2 * k)
    if family == "tree_t2_plus":
        k = params["k"]
        edges = _spine_edges(2 * k + 1)
        nxt, _ = _attach_leaves(edges, 2 * k + 1, [2 * k - 1])
        g = from_edge_list(nxt, edges)
        return inst(g, "add-vertex", (k - 1,), 2 * k, k)
    if family == "tree_t2_minus":
        k = params["k"]
        edges = _spine_edges(2 * k + 1)
        nxt, leaf_of = _attach_leaves(edges, 2 * k + 1, list(range(1, 2 * k)))
        g = from_edge_list(nxt, edges)
        return inst(g, "delete-vertex", leaf_of[k][0], 2 * k, k)
    if family == "tree_blowup":
        k = params["k"]
        edges = _spine_edges(2 * k + 1)
        nxt, _ = _attach_leaves(edges, 2 * k + 1, list(range(1, 2 * k, 2)))
        g = from_edge_list(nxt, edges)
        evens = tuple(range(0, 2 * k + 1, 2))
        return inst(g, "add-vertex", evens, 2, 2 * k)
    if family == "product_star_star":
        m = params["m"]
        return inst(star_graph(m), "cartesian-product", star_graph(m), 2, 3)
    if family == "product_regular_snake":
        t = params["t"]
        return inst(cycle_graph(t), "cartesian-product", path_graph(3), t, 2 * t)
    if family == "join_same_degseq":
        n = params["n"]
        return inst(path_graph(n), "join", path_graph(n), n - 1, 2 * n)
    if family == "join_star_complete":
        m, k = params["m"], params["k"]
        return inst(star_graph(m), "join", complete_graph(k), 2, k + 2)
    raise AssertionError(family)
