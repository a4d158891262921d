import hashlib
import random
from itertools import chain

import pytest
from hypothesis import given, settings

from dmp.bounds import Gnp, RandomTree, random_graph
from dmp.graph import from_edge_list
from dmp.operations import cartesian_product, join
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
from dmp.solver import (
    BudgetExceededError,
    SearchLimits,
    _components,
    is_degree_monotone,
    mp_exact,
    mp_oracle,
)

from strategies import graphs


def test_is_degree_monotone_prefix_of_path():
    g = path_graph(4)
    assert is_degree_monotone(g, [0, 1, 2])       # degrees 1, 2, 2
    assert not is_degree_monotone(g, [0, 1, 2, 3])  # 1, 2, 2, 1
    assert is_degree_monotone(g, [2])


def test_is_degree_monotone_requires_adjacency():
    g = path_graph(4)
    assert not is_degree_monotone(g, [0, 2])


def test_is_degree_monotone_rejects_bad_input():
    g = path_graph(4)
    with pytest.raises(ValueError):
        is_degree_monotone(g, [])
    with pytest.raises(ValueError):
        is_degree_monotone(g, [0, 0])
    with pytest.raises(ValueError):
        is_degree_monotone(g, [0, 7])


@pytest.mark.parametrize("n", [3, 5, 9, 1200, 5000])
def test_mp_path(n):
    assert mp_exact(path_graph(n)).value == n - 1


def test_long_equal_degree_path_takes_linear_time():
    # the 99,998 inner vertices form one class, and every push is a new best:
    # a copy of the path at each of them would make the search quadratic
    g = path_graph(100_000)
    res = mp_exact(g)
    assert res.value == len(res.witness.vertices) == 99_999
    assert is_degree_monotone(g, res.witness.vertices)
    assert res.stats.seconds < 10


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_mp_complete(n):
    assert mp_exact(complete_graph(n)).value == n


@pytest.mark.parametrize("n", [1, 2, 4])
def test_mp_unbalanced_bipartite(n):
    assert mp_exact(complete_bipartite_graph(n, n + 1)).value == 2


def test_mp_even_cycle():
    assert mp_exact(cycle_graph(6)).value == 6


def test_mp_edgeless():
    g = from_edge_list(5, [])
    res = mp_exact(g)
    assert res.value == 1
    assert res.witness.vertices == (0,)


def test_mp_rejects_empty_graph():
    with pytest.raises(ValueError):
        mp_exact(from_edge_list(0, []))


def test_mp_single_vertex():
    assert mp_exact(from_edge_list(1, [])).value == 1


def test_mp_at_least_two_iff_any_edge():
    assert mp_exact(from_edge_list(2, [(0, 1)])).value == 2
    assert mp_exact(from_edge_list(2, [])).value == 1


@given(graphs())
def test_witness_is_valid_and_matches_value(g):
    res = mp_exact(g)
    assert len(res.witness.vertices) == res.value
    assert is_degree_monotone(g, res.witness.vertices)
    degs = [g.degree(v) for v in res.witness.vertices]
    assert degs == sorted(degs)


@given(graphs())
def test_reversal_symmetry(g):
    res = mp_exact(g)
    rev = tuple(reversed(res.witness.vertices))
    assert is_degree_monotone(g, rev)
    degs = [g.degree(v) for v in rev]
    assert degs == sorted(degs, reverse=True)


def test_determinism():
    g = generate("g1_plus", {"k": 3}).graph
    r1, r2 = mp_exact(g), mp_exact(g)
    assert r1 == r2


@given(graphs(max_n=7))
@settings(max_examples=50)
def test_relabeling_invariance(g):
    rng = random.Random(1234)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert mp_exact(h).value == mp_exact(g).value


def test_budget_exceeded_raises():
    g = cycle_graph(8)
    with pytest.raises(BudgetExceededError):
        mp_exact(g, SearchLimits(node_budget=5))


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_rejected(budget):
    with pytest.raises(ValueError, match="node budget must be >= 1"):
        SearchLimits(node_budget=budget)


# The fewest nodes mp_exact needs on fixed graphs: it succeeds with this
# budget and runs out with one node less.  A change to the search order or
# the bound moves these numbers, and must do so on purpose.
NODE_COUNTS = {
    "cycle_graph(8)": (lambda: cycle_graph(8), 8),
    "g1_plus(k=4)": (lambda: generate("g1_plus", {"k": 4}).graph, 3),
    "gnp(40,0.15)#7": (lambda: random_graph(Gnp(40, 0.15), 7), 230),
    "gnp(120,0.04)#11": (lambda: random_graph(Gnp(120, 0.04), 11), 308),
    "tree8#1 x tree7#2": (
        lambda: cartesian_product(random_graph(RandomTree(8), 1),
                                  random_graph(RandomTree(7), 2)),
        14),
    "gnp(7,0.4)#3 + gnp(7,0.4)#4": (
        lambda: join(random_graph(Gnp(7, 0.4), 3), random_graph(Gnp(7, 0.4), 4)),
        15),
}


@pytest.mark.parametrize("name", sorted(NODE_COUNTS))
def test_node_count_is_pinned(name):
    make, nodes = NODE_COUNTS[name]
    g = make()
    mp_exact(g, SearchLimits(node_budget=nodes))
    with pytest.raises(BudgetExceededError):
        mp_exact(g, SearchLimits(node_budget=nodes - 1))


def test_oracle_small_cases():
    assert mp_oracle(star_graph(3)) == 2
    assert mp_oracle(path_graph(5)) == 4
    assert mp_oracle(cycle_graph(4)) == 4


def test_oracle_rejects_large():
    with pytest.raises(ValueError):
        mp_oracle(complete_graph(13))


def test_oracle_rejects_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        mp_oracle(from_edge_list(0, []))


@given(graphs(max_n=8))
def test_oracle_matches_exact(g):
    assert mp_exact(g).value == mp_oracle(g)


def _dag_longest_path(g):
    """Vertices on a longest path once each edge points to its higher-degree end."""
    deg = [len(a) for a in g.adj]
    longest = [1] * g.n
    for v in sorted(range(g.n), key=lambda v: deg[v]):
        for w in g.adj[v]:
            if deg[w] > deg[v]:
                longest[w] = max(longest[w], longest[v] + 1)
    return max(longest)


def _no_equal_degree_edge(g):
    return all(g.degree(u) != g.degree(v) for u, v in g.edges())


# The fast path: with no edge between equal degrees the orientation is
# acyclic, and a longest degree-monotone path is a longest path in that DAG.
# mp_exact must agree with it wherever it applies.
def test_fast_path_star():
    g = star_graph(3)
    res = mp_exact(g)
    assert res.value == _dag_longest_path(g) == 2
    assert is_degree_monotone(g, res.witness.vertices)


@given(graphs().filter(_no_equal_degree_edge))
def test_fast_path_sound_when_applicable(g):
    res = mp_exact(g)
    assert res.value == _dag_longest_path(g)
    assert is_degree_monotone(g, res.witness.vertices)


def test_fast_path_consistent_on_generated_instances():
    for name, params in [
        ("contract_g1", {"k": 2}),
        ("tree_t1_plus", {"k": 2}),
        ("tree_blowup", {"k": 5}),
    ]:
        g = generate(name, params).graph
        assert _no_equal_degree_edge(g), name
        assert mp_exact(g).value == _dag_longest_path(g), name


def _union(a, b):
    return from_edge_list(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()])


# Instances on which a search over the whole graph, bounded by vertex degree
# counts alone, needs from half a million to over three million nodes: two
# disjoint copies of one cubic component, many small classes in a large
# sparse graph, and a join with large equal-degree classes.  Each entry:
# (graph, mp, the fewest nodes mp_exact needs).
HARD_PINS = {
    "2 x cycle_graph(14) x path_graph(2)": (
        lambda: _union(cartesian_product(cycle_graph(14), path_graph(2)),
                       cartesian_product(cycle_graph(14), path_graph(2))),
        28, 28),
    "gnp(300,0.03)#1": (lambda: random_graph(Gnp(300, 0.03), 1), 47, 1110),
    "gnp(8,0.4)#294 + gnp(8,0.4)#1294": (
        lambda: join(random_graph(Gnp(8, 0.4), 294), random_graph(Gnp(8, 0.4), 1294)),
        12, 24),
}


@pytest.mark.parametrize("name", sorted(HARD_PINS))
def test_hard_instance_is_pinned(name):
    make, value, nodes = HARD_PINS[name]
    g = make()
    res = mp_exact(g, SearchLimits(node_budget=nodes))
    assert res.value == value
    assert is_degree_monotone(g, res.witness.vertices)
    with pytest.raises(BudgetExceededError):
        mp_exact(g, SearchLimits(node_budget=nodes - 1))


@pytest.mark.parametrize("name", sorted(NODE_COUNTS) + sorted(HARD_PINS))
def test_stats_count_the_pinned_nodes(name):
    make, *_, nodes = NODE_COUNTS.get(name) or HARD_PINS[name]
    assert mp_exact(make()).stats.nodes == nodes


def test_stats_describe_the_components():
    # path_graph(5): the two ends are single-vertex classes, the middle one
    # class of three that the search walks once from vertex 1
    stats = mp_exact(path_graph(5)).stats
    assert (stats.nodes, stats.components, stats.largest_component) == (3, 3, 3)
    assert stats.seconds >= 0


def test_budget_on_a_hard_inner_component():
    # a 30-vertex degree-4 grid class with higher-degree neighbours; its mp
    # is 43, which a full search reaches in about two million nodes
    g = cartesian_product(random_graph(RandomTree(8), 19), random_graph(RandomTree(10), 22))
    with pytest.raises(BudgetExceededError):
        mp_exact(g, SearchLimits(node_budget=100_000))


def _class_dp(g):
    """mp(G) by a max-plus DP over the reachable (vertex set, end) states of
    each equal-degree component, lowest degree first, seeded with the longest
    path entering each vertex from below."""
    deg = [len(a) for a in g.adj]
    enter = [1] * g.n  # vertices on the longest path that enters at v
    best_end = [0] * g.n
    seen = set()
    for s in sorted(range(g.n), key=lambda v: deg[v]):
        if s in seen:
            continue
        comp, todo = [], [s]
        seen.add(s)
        while todo:
            v = todo.pop()
            comp.append(v)
            for w in g.adj[v]:
                if deg[w] == deg[v] and w not in seen:
                    seen.add(w)
                    todo.append(w)
        bit = {v: 1 << i for i, v in enumerate(comp)}
        layer = {(bit[v], v): enter[v] for v in comp}  # paths of one vertex
        while layer:
            longer = {}
            for (mask, v), val in layer.items():
                best_end[v] = max(best_end[v], val)
                for w in g.adj[v]:
                    if deg[w] == deg[v] and not mask & bit[w]:
                        key = (mask | bit[w], w)
                        longer[key] = max(longer.get(key, 0), val + 1)
            layer = longer
        for v in comp:
            for w in g.adj[v]:
                if deg[w] > deg[v]:
                    enter[w] = max(enter[w], best_end[v] + 1)
    return max(best_end)


def _random_cubic_edges(k, rng):
    """The sorted edges of a random cubic graph on k vertices: configuration
    model with rejection."""
    while True:
        points = [v for v in range(k) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(edges) == 3 * k // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def _cubic_plus_hub(k, p, rng):
    """A random cubic graph on k vertices plus a vertex k joined to each vertex
    with probability p."""
    edges = _random_cubic_edges(k, rng)
    return from_edge_list(k + 1, edges + [(v, k) for v in range(k) if rng.random() < p])


def _reference_graphs():
    rng = random.Random(909)
    for _ in range(60):
        yield join(random_graph(Gnp(rng.randint(5, 8), 0.4), rng.getrandbits(32)),
                   random_graph(Gnp(rng.randint(5, 8), 0.4), rng.getrandbits(32)))
    for _ in range(40):
        yield cartesian_product(random_graph(RandomTree(rng.randint(4, 9)), rng.getrandbits(32)),
                                random_graph(RandomTree(rng.randint(4, 9)), rng.getrandbits(32)))
    for k in (10, 12, 14, 16) * 4:  # up to about 18k DP states at k = 16, p = 1
        yield _cubic_plus_hub(k, rng.choice((0.5, 1.0)), rng)
    for _ in range(24):
        yield random_graph(Gnp(rng.randint(60, 120), rng.choice((0.03, 0.04, 0.05))),
                           rng.getrandbits(32))


# Beyond mp_oracle's size: the DP above computes each component's longest
# entry-to-end paths by dynamic programming instead of search.
def test_exact_matches_class_dp_beyond_oracle_size():
    for g in _reference_graphs():
        res = mp_exact(g)
        assert res.value == _class_dp(g)
        assert is_degree_monotone(g, res.witness.vertices)


def _equal_degree_components(g):
    """The connected components of each degree's subgraph, as vertex lists in order
    of their smallest id, found by a search of this test's own."""
    deg = [len(a) for a in g.adj]
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if not seen[s]:
            seen[s] = True
            comp = [s]
            for v in comp:
                for w in g.adj[v]:
                    if deg[w] == deg[v] and not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(comp)
    return comps


@given(graphs())
def test_components_walk_each_equal_degree_class_once(g):
    same, up = [None] * g.n, [None] * g.n
    comps = list(_components(g.adj, same, up))
    assert all(type(c) is tuple for c in comps)
    assert sorted(chain.from_iterable(comps)) == list(range(g.n))
    deg = [len(a) for a in g.adj]
    order = [(deg[c[0]], min(c)) for c in comps]
    assert order == sorted(order)  # ascending degree, then smallest id
    assert sorted(map(sorted, comps)) == sorted(map(sorted, _equal_degree_components(g)))
    for v in range(g.n):
        assert same[v] == [w for w in g.adj[v] if deg[w] == deg[v]]
        assert up[v] == [w for w in g.adj[v] if deg[w] > deg[v]]


def test_components_are_walked_one_at_a_time():
    # path_graph(5): ends of degree 1 first, then the inner class; a component is
    # split only when the walk reaches it
    same, up = [None] * 5, [None] * 5
    walk = _components(path_graph(5).adj, same, up)
    assert next(walk) == (0,) and up[0] == [1]
    assert same[4] is None and up[4] is None and up[1] is None
    assert list(walk) == [(4,), (1, 2, 3)]


def _chain_bound(g):
    """U: the most vertices on a chain of whole equal-degree components, each
    adjacent to the next from below.  A non-decreasing path's maximal
    equal-degree segments lie in such a chain, one per component, so mp <= U."""
    deg = [len(a) for a in g.adj]
    comps = _equal_degree_components(g)
    where = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            where[v] = i
    longest = [0] * len(comps)  # most vertices on a chain that ends at comps[i]
    for i in sorted(range(len(comps)), key=lambda i: deg[comps[i][0]]):
        below = (longest[where[w]] for v in comps[i] for w in g.adj[v] if deg[w] < deg[v])
        longest[i] = len(comps[i]) + max(below, default=0)
    return max(longest)


def _certificate_graphs():
    yield "path_graph(5000)", path_graph(5000)
    yield "path_graph(50000)", path_graph(50_000)
    for n, seed in [(10_000, 1), (10_000, 2), (10_000, 3), (30_000, 4), (30_000, 5),
                    (100_000, 6)]:
        yield f"tree{n}#{seed}", random_graph(RandomTree(n), seed)
    yield "tree8#19 x tree10#22", cartesian_product(random_graph(RandomTree(8), 19),
                                                    random_graph(RandomTree(10), 22))
    yield "cubic-40", from_edge_list(40, _random_cubic_edges(40, random.Random(40)))


# the graphs of _certificate_graphs whose mp meets the chain bound, which proves it
CHAIN_BOUND_MET = ["cubic-40", "path_graph(5000)", "path_graph(50000)", "tree10000#2",
                   "tree8#19 x tree10#22"]


def test_values_beyond_the_oracle_are_certified_by_the_chain_bound():
    # no oracle reaches these graphs: a value above U, or a witness that is not a
    # non-decreasing path of `value` vertices, is a defect; pinning the graphs
    # that meet U catches a solver that loses length on them
    met = []
    for name, g in _certificate_graphs():
        res = mp_exact(g)
        bound = _chain_bound(g)
        path = res.witness.vertices
        assert res.value <= bound, name
        assert len(set(path)) == len(path) == res.value, name
        assert all(b in g.adj[a] for a, b in zip(path, path[1:])), name
        degs = [len(g.adj[v]) for v in path]
        assert degs == sorted(degs), name
        if res.value == bound:
            met.append(name)
    assert sorted(met) == CHAIN_BOUND_MET


# sha256 over the witnesses of _witness_graphs, see _witness_digest
WITNESS_DIGEST = "3f1a35d21f844eaf90a42a86d489f790b8af2bf20a84d14590c35c40faceb770"
# stats.nodes and stats.components summed over _witness_graphs, most of them
# small components; a solver change moves them only on purpose
WORK_TOTALS = {"nodes": 71_939, "components": 3_370}


def _witness_graphs():
    for name in sorted(NODE_COUNTS):
        yield NODE_COUNTS[name][0]()
    for name in sorted(HARD_PINS):
        yield HARD_PINS[name][0]()
    for info in list_families():
        for off in range(3):
            inst = generate(info.name, {name: lo + off for name, lo in info.params})
            yield inst.graph
            yield apply_designated(inst)
    rng = random.Random(1010)
    for _ in range(40):
        yield random_graph(Gnp(rng.randint(5, 60), rng.choice((0.05, 0.1, 0.2, 0.4))),
                           rng.getrandbits(32))
    for _ in range(30):
        yield cartesian_product(random_graph(RandomTree(rng.randint(3, 9)), rng.getrandbits(32)),
                                random_graph(RandomTree(rng.randint(3, 9)), rng.getrandbits(32)))
    for _ in range(30):
        yield join(random_graph(Gnp(rng.randint(3, 8), 0.4), rng.getrandbits(32)),
                   random_graph(Gnp(rng.randint(3, 8), 0.4), rng.getrandbits(32)))


def _witness_digest() -> str:
    h = hashlib.sha256()
    for g in _witness_graphs():
        h.update(repr(mp_exact(g).witness.vertices).encode())
    return h.hexdigest()


def test_witness_digest_is_pinned():
    # which longest path mp_exact returns is fixed by its search order and
    # witness links; record a new digest only on purpose, and say so in
    # CHANGES.md
    assert _witness_digest() == WITNESS_DIGEST


def test_work_on_the_witness_graphs_is_pinned():
    stats = [mp_exact(g).stats for g in _witness_graphs()]
    assert {"nodes": sum(s.nodes for s in stats),
            "components": sum(s.components for s in stats)} == WORK_TOTALS
