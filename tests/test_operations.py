import json
from itertools import chain
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmp.graph import (Graph, degree_sequence, from_edge_list, is_triangle_free,
                       parse_edge_list_text, parse_json_text)
from dmp.constructions import (
    apply_designated,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    generate,
    list_families,
    path_graph,
    star_graph,
)
from dmp import operations
from dmp.operations import (
    add_edge,
    add_vertex,
    cartesian_product,
    contract_edge,
    delete_edge,
    delete_vertex,
    join,
    subdivide_edge,
)
from dmp.solver import is_degree_monotone, mp_exact
from dmp.bounds import Gnp, RandomBipartite, RandomTree, random_graph

from strategies import graphs


def test_add_edge_completes_triangle():
    assert add_edge(path_graph(3), 0, 2) == complete_graph(3)


def test_add_edge_on_two_isolated_vertices():
    g = add_edge(from_edge_list(2, []), 0, 1)
    assert mp_exact(g).value == 2


def test_add_edge_rejects_existing_and_loop():
    g = path_graph(3)
    with pytest.raises(ValueError):
        add_edge(g, 0, 1)
    with pytest.raises(ValueError):
        add_edge(g, 1, 1)


def test_delete_edge_on_triangle():
    g = delete_edge(complete_graph(3), 0, 1)
    assert sorted(degree_sequence(g)) == [1, 1, 2]


def test_delete_last_edge():
    g = delete_edge(from_edge_list(2, [(0, 1)]), 0, 1)
    assert mp_exact(g).value == 1


@pytest.mark.parametrize("op, edge, message", [
    (add_edge, (0, 3), "endpoint out of range"),
    (add_edge, (-1, 2), "endpoint out of range"),
    (subdivide_edge, (0, 2), "not present"),
])
def test_edge_operations_reject_bad_edges(op, edge, message):
    with pytest.raises(ValueError, match=message):
        op(path_graph(3), *edge)


# bools are ints to Python, so an unchecked True would be stored as vertex 1
@pytest.mark.parametrize("call, args, fragment", [
    (add_edge, (from_edge_list(3, [(1, 2)]), True, 0), "endpoint out of range: (True, 0)"),
    (delete_edge, (from_edge_list(3, [(1, 2)]), True, 2), "edge (True, 2) not present"),
    (subdivide_edge, (from_edge_list(3, [(0, 2)]), 2, False), "edge (2, False) not present"),
    (contract_edge, (from_edge_list(4, [(0, 2), (1, 2), (2, 3)]), True, 2),
     "edge (True, 2) not present"),
    (add_vertex, (from_edge_list(2, [(0, 1)]), [False]), "neighbor False out of range"),
    (add_vertex, (from_edge_list(2, [(0, 1)]), [0, False]), "neighbor False out of range"),
    (delete_vertex, (path_graph(3), True), "vertex True out of range"),
    (delete_vertex, (path_graph(3), 1.0), "vertex 1.0 out of range"),
    (Graph.degree, (path_graph(3), True), "vertex True out of range"),
    (is_degree_monotone, (path_graph(3), [True, 2]), "vertex True out of range"),
], ids=["add_edge", "delete_edge", "subdivide_edge", "contract_edge", "add_vertex",
        "add_vertex_false_beside_0", "delete_vertex", "delete_vertex_float", "degree",
        "is_degree_monotone"])
def test_operations_reject_a_non_int_vertex_id(call, args, fragment):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert fragment in str(info.value)


def test_delete_edge_rejects_absent():
    with pytest.raises(ValueError):
        delete_edge(path_graph(3), 0, 2)


@given(graphs(min_n=2))
@settings(max_examples=50)
def test_add_then_delete_is_identity(g):
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    if not non_edges:
        return
    u, v = non_edges[0]
    assert delete_edge(add_edge(g, u, v), u, v) == g


def test_subdivide_triangle_gives_c4():
    g = subdivide_edge(complete_graph(3), 0, 1)
    assert degree_sequence(g) == [2, 2, 2, 2]
    assert mp_exact(g).value == 4


def test_subdivide_path_grows_by_one():
    g = subdivide_edge(path_graph(5), 2, 3)
    assert mp_exact(g).value == 5


@given(graphs(min_n=2))
@settings(max_examples=50)
def test_subdivision_degree_facts(g):
    if g.m == 0:
        return
    u, v = g.edges()[0]
    h = subdivide_edge(g, u, v)
    assert h.n == g.n + 1 and h.m == g.m + 1
    assert h.degree(g.n) == 2
    assert h.degree(u) == g.degree(u) and h.degree(v) == g.degree(v)


def test_contract_triangle_edge():
    h, id_map = contract_edge(complete_graph(3), 0, 1)
    assert h == from_edge_list(2, [(0, 1)])
    assert id_map == {0: 0, 2: 1, 1: 0}


def test_contract_rejects_absent_edge():
    with pytest.raises(ValueError):
        contract_edge(path_graph(3), 0, 2)


@pytest.mark.parametrize("seed", range(5))
def test_contract_triangle_free_degree_identity(seed):
    g = random_graph(RandomBipartite(4, 5, 0.5), seed)
    assert is_triangle_free(g)
    for u, v in g.edges():
        du, dv = g.degree(u), g.degree(v)
        h, id_map = contract_edge(g, u, v)
        w = id_map[u]
        assert id_map[v] == w
        assert h.degree(w) == du + dv - 2
        assert h.n == g.n - 1
        for x in range(g.n):
            if x in (u, v) or g.has_edge(x, u) or g.has_edge(x, v):
                continue
            assert h.degree(id_map[x]) == g.degree(x)


def test_add_vertex_extends_bipartite():
    g = complete_bipartite_graph(2, 3)
    h = add_vertex(g, tuple(range(2, 5)))
    assert degree_sequence(h) == degree_sequence(complete_bipartite_graph(3, 3))
    assert mp_exact(h).value == 6


def test_add_vertex_to_single():
    assert add_vertex(from_edge_list(1, []), (0,)) == from_edge_list(2, [(0, 1)])


def test_add_vertex_rejects_bad_neighbors():
    g = path_graph(3)
    with pytest.raises(ValueError):
        add_vertex(g, ())
    with pytest.raises(ValueError):
        add_vertex(g, (0, 0))
    with pytest.raises(ValueError):
        add_vertex(g, (5,))


def test_delete_vertex_from_complete():
    h, id_map = delete_vertex(complete_graph(5), 0)
    assert h == complete_graph(4)
    assert id_map == {1: 0, 2: 1, 3: 2, 4: 3}
    assert mp_exact(h).value == 4


def test_delete_star_center():
    h, _ = delete_vertex(star_graph(4), 0)
    assert h.m == 0
    assert mp_exact(h).value == 1


def test_delete_vertex_rejects_bad():
    with pytest.raises(ValueError):
        delete_vertex(path_graph(3), 5)
    with pytest.raises(ValueError):
        delete_vertex(from_edge_list(1, []), 0)


def test_product_k2_k2_is_c4():
    g = from_edge_list(2, [(0, 1)])
    p = cartesian_product(g, g)
    assert degree_sequence(p) == [2, 2, 2, 2]
    assert mp_exact(p).value == 4


def test_product_star_star_value():
    p = cartesian_product(star_graph(3), star_graph(3))
    assert mp_exact(p).value == 3


def test_product_k3_p3_value():
    p = cartesian_product(complete_graph(3), path_graph(3))
    assert mp_exact(p).value == 6


def _int_objects(entries):
    return len(set(map(id, entries)))


def test_a_product_and_a_join_keep_one_int_object_per_new_vertex():
    # an id above 256 is a fresh int object each time it is computed: summing per
    # entry made the 200 x 100 random-tree product keep 78,542 of them, not 20,000
    p = cartesian_product(random_graph(RandomTree(30), 1), random_graph(RandomTree(20), 2))
    assert p.n == 600 and _int_objects(chain.from_iterable(p.adj)) == p.n
    j = join(path_graph(300), path_graph(200))
    assert _int_objects(chain.from_iterable(j.adj)) == j.n


def test_a_large_join_keeps_one_int_object_per_vertex():
    # keeping the first graph's own objects in its entries, beside the fresh ones
    # its ids took in the shifted side's entries, made this join keep 39,843
    j = join(random_graph(RandomTree(20_000), 1), random_graph(RandomTree(100), 2))
    assert j.n == 20_100 and _int_objects(chain.from_iterable(j.adj)) == j.n


@given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
@settings(max_examples=50)
def test_product_degree_and_size_identities(g, h):
    p = cartesian_product(g, h)
    assert p.n == g.n * h.n
    assert p.m == g.n * h.m + h.n * g.m
    for a in range(g.n):
        for b in range(h.n):
            assert p.degree(a * h.n + b) == g.degree(a) + h.degree(b)


@given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
@settings(max_examples=50)
def test_product_commutes_at_degree_sequence_level(g, h):
    assert degree_sequence(cartesian_product(g, h)) == degree_sequence(
        cartesian_product(h, g)
    )


def test_join_of_singletons():
    g = from_edge_list(1, [])
    assert join(g, g) == from_edge_list(2, [(0, 1)])


def test_join_star_complete_value():
    assert mp_exact(join(star_graph(3), complete_graph(2))).value == 4


def test_join_same_degree_sequence_value():
    assert mp_exact(join(path_graph(3), path_graph(3))).value == 6


@given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5))
@settings(max_examples=50)
def test_join_degree_and_size_identities(g, h):
    j = join(g, h)
    assert j.n == g.n + h.n
    assert j.m == g.m + h.m + g.n * h.n
    for v in range(g.n):
        assert j.degree(v) == g.degree(v) + h.n
    for w in range(h.n):
        assert j.degree(g.n + w) == h.degree(w) + g.n


def test_two_graph_operations_reject_empty_operand():
    empty = from_edge_list(0, [])
    g = path_graph(2)
    with pytest.raises(ValueError):
        cartesian_product(g, empty)
    with pytest.raises(ValueError):
        join(empty, g)


# The edge-list constructions: each result written as from_edge_list of the
# edges the operation adds to, removes from or re-indexes in the input's edges.

def _dense_map(n: int, gone: int) -> dict[int, int]:
    return {old: (old if old < gone else old - 1) for old in range(n) if old != gone}


def _by_edge_list(g, name, target):
    """(result, id_map or None) of operation ``name`` built from edge lists."""
    edges = g.edges()
    if name == "add_edge":
        return from_edge_list(g.n, edges + [target]), None
    if name in ("delete_edge", "subdivide_edge"):
        rest = [e for e in edges if e != (min(target), max(target))]
        if name == "delete_edge":
            return from_edge_list(g.n, rest), None
        return from_edge_list(g.n + 1, rest + [(target[0], g.n), (target[1], g.n)]), None
    if name == "contract_edge":
        keep, drop = min(target), max(target)
        id_map = _dense_map(g.n, drop)
        id_map[drop] = id_map[keep]
        merged = {(min(id_map[x], id_map[y]), max(id_map[x], id_map[y])) for x, y in edges}
        return from_edge_list(g.n - 1, [(a, b) for a, b in merged if a != b]), id_map
    if name == "add_vertex":
        return from_edge_list(g.n + 1, edges + [(w, g.n) for w in target]), None
    if name == "delete_vertex":
        id_map = _dense_map(g.n, target)
        kept = [(id_map[x], id_map[y]) for x, y in edges if target not in (x, y)]
        return from_edge_list(g.n - 1, kept), id_map
    h, hn = target, target.n
    if name == "cartesian_product":
        prod = [(a * hn + b, a * hn + d) for a in range(g.n) for b, d in h.edges()]
        prod += [(a * hn + b, c * hn + b) for b in range(hn) for a, c in edges]
        return from_edge_list(g.n * hn, prod), None
    shifted = [(u + g.n, v + g.n) for u, v in h.edges()]
    across = [(u, g.n + w) for u in range(g.n) for w in range(hn)]
    return from_edge_list(g.n + hn, edges + shifted + across), None


def _is_simple_adjacency(g) -> bool:
    """adj holds n strictly increasing int tuples, symmetric and without loops."""
    adj = g.adj
    return (type(adj) is tuple and len(adj) == g.n
            and all(type(a) is tuple and all(map(lt, a, a[1:])) for a in adj)
            and all(type(w) is int and 0 <= w < g.n and w != v and v in adj[w]
                    for v, a in enumerate(adj) for w in a))


@given(graphs(min_n=1, max_n=7), graphs(min_n=1, max_n=4), st.data())
@settings(max_examples=60)
def test_operations_match_the_edge_list_construction(g, h, data):
    pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    cases = [("add_edge", e) for e in pairs if not g.has_edge(*e)]
    cases += [(name, e) for e in pairs if g.has_edge(*e)
              for name in ("delete_edge", "subdivide_edge", "contract_edge")]
    if g.n >= 2:
        cases += [("delete_vertex", v) for v in range(g.n)]
    neighbors = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    cases += [("add_vertex", tuple(neighbors)), ("cartesian_product", h), ("join", h)]
    for name, target in cases:
        fn = getattr(operations, name)
        result = fn(g, *target) if name.endswith("_edge") else fn(g, target)
        graph, id_map = result if isinstance(result, tuple) else (result, None)
        assert (graph, id_map) == _by_edge_list(g, name, target), (name, target)
        assert _is_simple_adjacency(graph), (name, target)


@given(graphs(min_n=1, max_n=7), graphs(min_n=1, max_n=4), st.data())
@settings(max_examples=40)
def test_every_builder_gives_sorted_symmetric_loopless_adjacency(g, h, data):
    edges = [(v, u) if data.draw(st.booleans()) else (u, v)
             for u, v in data.draw(st.permutations(g.edges()))]
    built = [
        from_edge_list(g.n, edges + edges[::2]),  # the repeats collapse
        parse_edge_list_text(f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)),
        parse_json_text(json.dumps({"n": g.n, "edges": edges})),
    ]
    seed = data.draw(st.integers(0, 2**16))
    built += [random_graph(model, seed) for model in (Gnp(g.n, 0.4), RandomTree(g.n),
                                                       RandomBipartite(g.n, h.n, 0.5))]
    present = g.edges()
    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    neighbors = tuple(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True)))
    targets = {"add-edge": absent, "delete-edge": present, "subdivide": present,
               "contract": present, "delete-vertex": list(range(g.n)) if g.n > 1 else [],
               "add-vertex": [neighbors], "cartesian-product": [h], "join": [h]}
    assert set(targets) == set(operations.OP_KINDS)
    for op, choices in targets.items():
        if choices:
            built.append(operations.apply(op, g, data.draw(st.sampled_from(choices))))
    extra = data.draw(st.integers(0, 2))
    for info in list_families():
        inst = generate(info.name, {name: low + extra for name, low in info.params})
        built += [inst.graph, apply_designated(inst)]
        if isinstance(inst.target, Graph):
            built.append(inst.target)
    for graph in built:
        assert _is_simple_adjacency(graph), graph


# one wrong-shaped target per target kind, and the message apply gives for it
@pytest.mark.parametrize("op, target, message", [
    ("add-edge", 1, "add-edge takes an edge (u, v), got 1"),
    ("contract", (0, 1, 2), "contract takes an edge (u, v), got (0, 1, 2)"),
    ("delete-vertex", (1,), "delete-vertex takes a vertex, got (1,)"),
    ("add-vertex", 1, "add-vertex takes a tuple of neighbors, got 1"),
    ("add-vertex", (0, "1"), "add-vertex takes a tuple of neighbors, got (0, '1')"),
    ("join", (0, 1), "join takes a partner graph, got (0, 1)"),
    ("cartesian-product", 3, "cartesian-product takes a partner graph, got 3"),
], ids=["edge_int", "edge_triple", "vertex_tuple", "neighbors_int", "neighbors_str",
        "partner_tuple", "partner_int"])
def test_apply_rejects_a_target_of_the_wrong_shape(op, target, message):
    with pytest.raises(ValueError) as exc:
        operations.apply(op, path_graph(3), target)
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_apply_takes_lists_for_edges_and_neighbors():
    g = path_graph(3)
    assert operations.apply("add-edge", g, [0, 2]) == add_edge(g, 0, 2)
    assert operations.apply("add-vertex", g, [0, 2]) == add_vertex(g, (0, 2))
