import random

import pytest
from hypothesis import given, settings

from dmp.bounds import Gnp, RandomTree, random_graph
from dmp.graph import from_edge_list
from dmp.operations import cartesian_product, join
from dmp.constructions import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    generate,
    path_graph,
    star_graph,
)
from dmp.solver import (
    BudgetExceededError,
    SearchLimits,
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
    "cycle_graph(8)": (lambda: cycle_graph(8), 9),
    "g1_plus(k=4)": (lambda: generate("g1_plus", {"k": 4}).graph, 85),
    "gnp(40,0.15)#7": (lambda: random_graph(Gnp(40, 0.15), 7), 7095),
    "gnp(120,0.04)#11": (lambda: random_graph(Gnp(120, 0.04), 11), 18942),
    "tree8#1 x tree7#2": (
        lambda: cartesian_product(random_graph(RandomTree(8), 1),
                                  random_graph(RandomTree(7), 2)),
        421),
    "gnp(7,0.4)#3 + gnp(7,0.4)#4": (
        lambda: join(random_graph(Gnp(7, 0.4), 3), random_graph(Gnp(7, 0.4), 4)),
        135),
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
