"""Metamorphic checks: how mp moves under disjoint union, Cartesian product and join.

Each value from mp_exact is also checked against mp_oracle wherever the graph
is small enough for it.
"""

from hypothesis import given, settings

from dmp.graph import Graph, from_edge_list, is_connected
from dmp.operations import cartesian_product, join
from dmp.solver import ORACLE_MAX_N, mp_exact, mp_oracle

from strategies import graphs


def _mp(g: Graph) -> int:
    value = mp_exact(g).value
    if g.n <= ORACLE_MAX_N:
        assert mp_oracle(g) == value
    return value


def _disjoint_union(g: Graph, h: Graph) -> Graph:
    return from_edge_list(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])


@given(graphs(max_n=6), graphs(max_n=6))
@settings(max_examples=50)
def test_disjoint_union_takes_the_larger_mp(g, h):
    assert _mp(_disjoint_union(g, h)) == max(_mp(g), _mp(h))


@given(graphs(max_n=4).filter(is_connected), graphs(max_n=4).filter(is_connected))
@settings(max_examples=50)
def test_product_of_connected_factors_lies_within_its_bounds(g, h):
    mp_g, mp_h = _mp(g), _mp(h)
    assert mp_g + mp_h - 1 <= _mp(cartesian_product(g, h)) <= mp_g * mp_h


@given(graphs(max_n=6), graphs(max_n=6))
@settings(max_examples=50)
def test_join_lies_within_its_bounds(g, h):
    assert _mp(g) + _mp(h) <= _mp(join(g, h)) <= g.n + h.n
