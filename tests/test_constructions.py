import hashlib
from itertools import combinations

import pytest

from dmp.graph import Graph, is_tree, is_triangle_free
from dmp.constructions import apply_designated, generate, list_families
from dmp.operations import add_edge, delete_edge
from dmp.solver import mp_exact

# sha256 of the whole catalog at min..min+6, see _catalog_digest
CATALOG_DIGEST = "a5b18c1fc739dff31f61c5aced1bfa986e247dbb2bdd8600b793cdb31f0fb8ab"


def test_catalog_has_23_families_in_stable_order():
    fams = list_families()
    assert len(fams) == 23
    assert fams == list_families()
    names = [f.name for f in fams]
    assert names[0] == "path" and "g1_plus" in names and "join_star_complete" in names


def test_catalog_metadata():
    info = {f.name: f for f in list_families()}
    assert info["g1_plus"].theorem == "edge_add" and info["g1_plus"].tight == "high"
    assert info["k4_free"].theorem is None
    assert info["contract_g3"].theorem == "contraction_triangle_free"
    assert info["contract_g3"].tight == "low"


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        generate("mystery", {"k": 3})


def test_param_below_bound_rejected():
    with pytest.raises(ValueError, match="needs k >= 3"):
        generate("g1_plus", {"k": 2})


# a parameter is an int: True passed as m = 1, and 4.0 or "4" raised TypeError
@pytest.mark.parametrize("family, params, message", [
    ("star", {"m": True}, "needs m >= 1, got True"),
    ("path", {"n": 4.0}, "needs n >= 3, got 4.0"),
    ("path", {"n": "4"}, "needs n >= 3, got '4'"),
], ids=["bool", "float", "str"])
def test_a_param_that_is_not_an_int_is_rejected(family, params, message):
    with pytest.raises(ValueError) as info:
        generate(family, params)
    assert message in str(info.value)


def test_wrong_param_names_rejected():
    with pytest.raises(ValueError, match="takes params"):
        generate("g1_plus", {"n": 3})
    with pytest.raises(ValueError, match="takes params"):
        generate("join_star_complete", {"m": 1})


@pytest.mark.parametrize("k", range(3, 10))
def test_g1_plus_vertex_count(k):
    assert generate("g1_plus", {"k": k}).graph.n == 6 * k - 2


@pytest.mark.parametrize("k", range(2, 7))
def test_contract_g3_spine_degrees(k):
    g = generate("contract_g3", {"k": k}).graph
    spine = [g.degree(v) for v in range(3 * k + 3)]
    assert spine == [1] + [3] * (3 * k + 1) + [4]
    assert is_triangle_free(g)


@pytest.mark.parametrize("k", [2, 3])
def test_k4_free_structure(k):
    g = generate("k4_free", {"k": k}).graph
    assert g.n == 4 * k + 2
    assert not is_triangle_free(g)
    assert not any(
        all(g.has_edge(a, b) for a, b in combinations(quad, 2))
        for quad in combinations(range(g.n), 4)
    )


@pytest.mark.parametrize(
    "family", ["tree_t1_plus", "tree_t1_minus", "tree_t2_plus", "tree_t2_minus"]
)
@pytest.mark.parametrize("k", [2, 4])
def test_tree_families_are_trees(family, k):
    assert is_tree(generate(family, {"k": k}).graph)


@pytest.mark.parametrize("family", ["contract_g1"])
@pytest.mark.parametrize("k", [2, 4])
def test_contract_g1_is_triangle_free_tree(family, k):
    g = generate(family, {"k": k}).graph
    assert is_tree(g) and is_triangle_free(g)


@pytest.mark.parametrize("k", range(3, 8))
def test_g2_families_invert_g1_families(k):
    g2p = generate("g2_plus", {"k": k})
    assert add_edge(g2p.graph, *g2p.target) == generate("g1_minus", {"k": k}).graph
    g2m = generate("g2_minus", {"k": k})
    assert delete_edge(g2m.graph, *g2m.target) == generate("g1_plus", {"k": k}).graph


@pytest.mark.parametrize(
    "family,params,before,after",
    [
        ("g1_plus", {"k": 4}, 4, 12),
        ("g1_minus", {"k": 4}, 4, 11),
        ("contract_g1", {"k": 4}, 4, 8),
        ("contract_g3", {"k": 3}, 12, 4),
        ("k4_free", {"k": 2}, 4, 9),
        ("tree_t1_plus", {"k": 4}, 4, 8),
        ("tree_t2_plus", {"k": 3}, 6, 3),
        ("tree_t2_minus", {"k": 3}, 6, 3),
        ("subdiv_lower", {"n": 8}, 7, 4),
        ("complete_bipartite", {"n": 2}, 2, 6),
    ],
)
def test_spot_check_claims(family, params, before, after):
    inst = generate(family, params)
    assert (inst.claimed_mp_before, inst.claimed_mp_after) == (before, after)
    assert mp_exact(inst.graph).value == before
    assert mp_exact(apply_designated(inst)).value == after


def test_designated_target_valid_in_graph():
    inst = generate("g1_plus", {"k": 3})
    u, v = inst.target
    assert not inst.graph.has_edge(u, v)
    inst = generate("contract_g3", {"k": 2})
    assert inst.graph.has_edge(*inst.target)


def test_tree_blowup_target_is_non_leaf_addition():
    inst = generate("tree_blowup", {"k": 3})
    assert inst.operation == "add-vertex"
    assert len(inst.target) == 4  # joins every odd spine position, not a leaf add
    assert is_tree(inst.graph)
    assert not is_tree(apply_designated(inst))


def _catalog_digest() -> str:
    """sha256 over every family's metadata and instances at min..min+6."""
    h = hashlib.sha256()
    for info in list_families():
        h.update(repr((info.name, info.params, info.theorem, info.tight, info.note)).encode())
        for off in range(7):
            inst = generate(info.name, {name: lo + off for name, lo in info.params})
            target = inst.target
            if isinstance(target, Graph):
                target = (target.n, target.edges())
            h.update(repr((
                inst.family, sorted(inst.params.items()), inst.graph.n, inst.graph.edges(),
                inst.operation, target, inst.claimed_mp_before, inst.claimed_mp_after,
            )).encode())
    return h.hexdigest()


def test_catalog_digest_is_pinned():
    # any change to a family's graph, target, claims or metadata moves the
    # digest; record a new one only on purpose, and say so in CHANGES.md
    assert _catalog_digest() == CATALOG_DIGEST
