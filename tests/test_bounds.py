import hashlib
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from dmp.graph import from_edge_list, is_connected, is_triangle_free, is_tree
from dmp import bounds
from dmp.constructions import complete_graph, cycle_graph, generate, path_graph
from dmp.bounds import (
    CSV_HEADER,
    CampaignConfig,
    Gnp,
    PreconditionError,
    RandomBipartite,
    RandomTree,
    THEOREMS,
    check_bound,
    random_graph,
    records_to_csv,
    records_to_json,
    run_campaign,
)


def test_theorem_catalog_complete():
    assert tuple(THEOREMS) == (
        "edge_add", "edge_delete", "subdivision", "contraction_triangle_free",
        "tree_leaf_add", "tree_leaf_delete", "vertex_add_general",
        "vertex_delete_general", "cartesian_product", "join",
    )
    assert all(THEOREMS[k].id == k for k in THEOREMS)


@pytest.mark.parametrize(
    "tid,mp,n,p,np_,lo,hi",
    [
        ("edge_add", 4, 22, None, None, Fraction(5, 3), Fraction(12)),
        ("edge_delete", 4, 20, None, None, Fraction(4, 3), Fraction(11)),
        ("subdivision", 4, 5, None, None, Fraction(3), Fraction(5)),
        ("subdivision", 5, 6, None, None, Fraction(3), Fraction(6)),
        ("contraction_triangle_free", 5, 9, None, None, Fraction(5, 3), Fraction(10)),
        ("vertex_add_general", 2, 7, None, None, Fraction(2), Fraction(8)),
        ("vertex_delete_general", 3, 7, None, None, Fraction(1), Fraction(6)),
        ("tree_leaf_add", 5, 9, None, None, Fraction(5, 2), Fraction(10)),
        ("tree_leaf_delete", 5, 9, None, None, Fraction(5, 2), Fraction(10)),
        ("cartesian_product", 3, 3, 2, 3, Fraction(4), Fraction(6)),
        ("join", 2, 4, 3, 3, Fraction(5), Fraction(7)),
    ],
)
def test_bound_formulas_exact(tid, mp, n, p, np_, lo, hi):
    spec = THEOREMS[tid]
    assert spec.bounds(mp, n, p, np_) == (lo, hi)


def test_subdivision_lower_uses_ceiling():
    spec = THEOREMS["subdivision"]
    assert spec.bounds(4, 9, None, None) == (Fraction(3), Fraction(5))  # ceil(5/2)
    assert spec.bounds(5, 9, None, None) == (Fraction(3), Fraction(6))  # ceil(6/2)


def test_check_bound_edge_add_sharp_instance():
    inst = generate("g1_plus", {"k": 4})
    rec = check_bound("edge_add", inst.graph, inst.target)
    assert (rec.mp_before, rec.mp_after) == (4, 12)
    assert rec.passed and rec.tight_high and not rec.tight_low
    assert (rec.lower, rec.upper) == (Fraction(5, 3), Fraction(12))


def test_check_bound_subdivision_example():
    rec = check_bound("subdivision", path_graph(5), (0, 1))
    assert (rec.mp_before, rec.mp_after) == (4, 5)
    assert rec.passed and rec.tight_high


def test_check_bound_join_of_singletons():
    one = from_edge_list(1, [])
    rec = check_bound("join", one, one)
    assert rec.mp_after == 2
    assert rec.lower == Fraction(2)
    assert rec.passed and rec.tight_low


def test_check_bound_rejects_triangle_for_contraction():
    with pytest.raises(PreconditionError):
        check_bound("contraction_triangle_free", complete_graph(3), (0, 1))


def test_check_bound_rejects_non_tree_for_leaf_theorems():
    with pytest.raises(PreconditionError):
        check_bound("tree_leaf_add", complete_graph(3), (0,))
    with pytest.raises(PreconditionError):
        check_bound("tree_leaf_delete", path_graph(4), 1)  # not a leaf


def test_check_bound_rejects_a_cycle_for_leaf_delete():
    with pytest.raises(PreconditionError, match="graph not a tree"):
        check_bound("tree_leaf_delete", cycle_graph(4), 0)


def test_check_bound_rejects_disconnected_product_operand():
    disc = from_edge_list(3, [(0, 1)])
    with pytest.raises(PreconditionError):
        check_bound("cartesian_product", disc, path_graph(2))


def test_check_bound_unknown_theorem():
    with pytest.raises(ValueError):
        check_bound("nope", path_graph(3), (0, 1))


def test_gnp_extremes():
    assert random_graph(Gnp(5, 0.0), 9).m == 0
    assert random_graph(Gnp(4, 1.0), 9) == complete_graph(4)
    assert random_graph(Gnp(5, 0), 9).m == 0  # an int p of 0 or 1 is a probability
    assert random_graph(Gnp(4, 1), 9) == complete_graph(4)


def test_gnp_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_graph(Gnp(0, 0.5), 1)
    with pytest.raises(ValueError):
        random_graph(Gnp(5, 1.5), 1)
    with pytest.raises(ValueError):  # a bool p is not a probability: True drew K3
        random_graph(Gnp(3, True), 1)
    with pytest.raises(ValueError):
        random_graph(Gnp(3.0, 0.5), 1)


@pytest.mark.parametrize("model", [
    RandomTree(0),
    RandomBipartite(0, 3, 0.5),
    RandomBipartite(3, 0, 0.5),
    RandomBipartite(3, 3, -0.1),
    RandomBipartite(3, 3, 1.5),
    RandomTree(True),  # a bool size drew Graph(n=True, ...)
    RandomTree(3.5),
    RandomBipartite(True, 2, 0.5),
    RandomBipartite(2, True, 0.5),
    RandomBipartite("3", 2, 0.5),
    RandomBipartite(3, 2, True),
], ids=repr)
def test_models_reject_bad_parameters(model):
    with pytest.raises(ValueError, match="bad "):
        random_graph(model, 1)


def test_random_graph_rejects_a_non_model():
    with pytest.raises(ValueError, match="unknown model 'gnp'"):
        random_graph("gnp", 1)


def test_random_tree_on_one_vertex():
    assert random_graph(RandomTree(1), 5) == from_edge_list(1, [])


@pytest.mark.parametrize("seed", range(10))
def test_random_tree_is_tree(seed):
    g = random_graph(RandomTree(9), seed)
    assert g.m == g.n - 1 and is_tree(g)


@pytest.mark.parametrize("seed", range(10))
def test_random_bipartite_triangle_free(seed):
    assert is_triangle_free(random_graph(RandomBipartite(5, 6, 0.6), seed))


def test_random_graph_deterministic():
    assert random_graph(Gnp(8, 0.5), 33) == random_graph(Gnp(8, 0.5), 33)
    assert random_graph(RandomTree(8), 33) == random_graph(RandomTree(8), 33)


def _heap_decoded_tree(n, rng):
    """A reference for RandomTree(n).draw(rng): the same Pruefer sequence, decoded
    through a heap of the current leaves, the smallest popped at each step, into
    edges that from_edge_list builds."""
    vertices = list(range(n))
    seq = [rng.choice(vertices) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in vertices if deg[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heappush(leaves, x)
    if n > 1:
        edges.append((heappop(leaves), heappop(leaves)))
    return from_edge_list(n, edges)


def _draws_as_the_heap_decoder(n, seed):
    """The draw equals the reference and leaves the generator where the reference does."""
    rng, ref = random.Random(seed), random.Random(seed)
    return RandomTree(n).draw(rng) == _heap_decoded_tree(n, ref) and rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_a_tree_draw_matches_the_heap_decoder_on_every_small_size(seed):
    assert [n for n in range(1, 41) if not _draws_as_the_heap_decoder(n, seed)] == []


def test_a_tree_draw_matches_the_heap_decoder_at_random_sizes():
    meta = random.Random(2)
    cases = [(meta.randrange(1, 2001), meta.getrandbits(64)) for _ in range(300)]
    assert [case for case in cases if not _draws_as_the_heap_decoder(*case)] == []


# sha256 of the edge lists each model draws at DRAW_SEEDS; every seeded
# campaign, golden report and benchmark input is built from these streams
DRAW_SEEDS = (0, 1, 7, 2**40 + 3)
DRAW_DIGESTS = {
    Gnp(2000, 0.002): "cb825ce82a1e61dc80ad231d1401c639c66aa6f3e558f951ae13e24e8beb1375",
    Gnp(14, 0.3): "93c2d51267a860093c99787e4eaf6d8799af1655beb3082384ad603da7eb085a",
    RandomBipartite(7, 7, 0.4): "c861921d2bcbaa674ea9b5c09d801e6fcac8d69c02a2c42573bef798af430622",
    RandomTree(500): "0c07bdd446bbdc2048bf23735a6d3c603935b2888dd92dae78588da0ef53942f",
}


@pytest.mark.parametrize("model", list(DRAW_DIGESTS), ids=lambda m: m.describe())
def test_seeded_draws_are_pinned(model):
    h = hashlib.sha256()
    for seed in DRAW_SEEDS:
        h.update(repr(random_graph(model, seed).edges()).encode())
    assert h.hexdigest() == DRAW_DIGESTS[model]


def test_campaign_deterministic_records():
    config = CampaignConfig("edge_add", Gnp(7, 0.4), trials=20, seed=5)
    recs1, summ1 = run_campaign(config)
    recs2, summ2 = run_campaign(config)
    assert recs1 == recs2 and summ1 == summ2
    assert records_to_csv(recs1) == records_to_csv(recs2)
    assert records_to_json(recs1, summ1) == records_to_json(recs2, summ2)


def test_campaign_zero_failures_small():
    config = CampaignConfig("edge_delete", Gnp(8, 0.4), trials=30, seed=11)
    records, summary = run_campaign(config)
    assert summary.failures == 0 and summary.records == len(records)
    assert summary.passes == summary.records


def test_campaign_counts_skips_on_dense_gnp_contraction():
    config = CampaignConfig("contraction_triangle_free", Gnp(8, 0.9), trials=20, seed=3)
    _, summary = run_campaign(config)
    assert summary.skipped_trials > 0


# the two theorems whose rows name a campaign model, with the other two models
@pytest.mark.parametrize("model", [Gnp(8, 0.3), RandomBipartite(4, 4, 0.5)],
                         ids=["gnp", "random_bipartite"])
@pytest.mark.parametrize("tid", [
    "tree_leaf_add",
    "tree_leaf_delete",
])
def test_campaign_rejects_incompatible_model(tid, model):
    with pytest.raises(ValueError) as exc:
        run_campaign(CampaignConfig(tid, model, trials=5, seed=1))
    assert str(exc.value) == f"{tid} campaigns need the random_tree model"


def test_campaign_rejects_unknown_theorem():
    with pytest.raises(ValueError, match="unknown theorem 'nope'"):
        run_campaign(CampaignConfig("nope", Gnp(5, 0.5), trials=3, seed=1))


def test_campaign_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig("edge_add", Gnp(5, 0.5), trials=0, seed=1))
    # trials and seed are ints, and True and False are not
    for trials, seed, name in [(True, 1, "trials"), (3.0, 1, "trials"),
                               (3, True, "seed"), (3, 1.5, "seed")]:
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            run_campaign(CampaignConfig("edge_add", Gnp(5, 0.5), trials=trials, seed=seed))


@pytest.mark.parametrize("j", [0, -1])
def test_campaign_rejects_sample_below_one(j):
    config = CampaignConfig(
        "edge_add", Gnp(6, 0.4), trials=3, seed=1, target_policy=("sample", j)
    )
    with pytest.raises(ValueError, match="sample must be >= 1"):
        run_campaign(config)


@pytest.mark.parametrize("policy", ["all", ("every", 2), ("sample", True), ("sample", "2"), 5])
def test_campaign_rejects_unknown_target_policy(policy):
    config = CampaignConfig("edge_add", Gnp(6, 0.4), 3, 1, policy)
    with pytest.raises(ValueError, match="target_policy"):
        run_campaign(config)


@pytest.mark.parametrize("theorem", ["cartesian_product", "join"])
def test_campaign_rejects_sample_for_partner_theorems(theorem):
    config = CampaignConfig(theorem, Gnp(4, 0.5), 5, 1, ("sample", 7))
    with pytest.raises(ValueError, match=f"{theorem} takes no target sample: "
                                         "its one target per trial is the partner graph"):
        run_campaign(config)


def test_campaign_sampled_targets():
    config = CampaignConfig(
        "edge_add", Gnp(8, 0.3), trials=10, seed=2, target_policy=("sample", 2)
    )
    records, summary = run_campaign(config)
    assert summary.failures == 0
    assert len(records) <= 20


def test_csv_header_exact():
    assert CSV_HEADER == (
        "theorem,seed,trial,n,m,target,mp_before,mp_after,"
        "lower,upper,pass,tight_low,tight_high"
    )


def test_csv_rows_carry_fractions():
    inst = generate("g1_plus", {"k": 3})
    rec = check_bound("edge_add", inst.graph, inst.target)
    row = rec.csv_row()
    assert row.startswith("edge_add,0,0,")
    assert ",4/3," in row and row.endswith(",9,true,false,true")


def test_partner_is_drawn_apart_from_every_trial_graph(monkeypatch):
    # each trial draws its graph and its partner: no seed may repeat across trials
    seeds = []

    def recording(model, seed):
        seeds.append(seed)
        return random_graph(model, seed)

    monkeypatch.setattr(bounds, "random_graph", recording)
    run_campaign(CampaignConfig("join", Gnp(4, 0.5), trials=30, seed=7))
    assert len(seeds) == 60 and len(set(seeds)) == 60


def test_lower_never_exceeds_upper_on_campaign_records():
    for tid, model in [
        ("edge_add", Gnp(7, 0.3)),
        ("join", Gnp(4, 0.5)),
        ("tree_leaf_delete", RandomTree(8)),
    ]:
        records, _ = run_campaign(CampaignConfig(tid, model, trials=15, seed=8))
        assert all(r.lower <= r.upper for r in records)


_SMALL_CAMPAIGNS = {
    "edge_add": Gnp(7, 0.3),
    "edge_delete": Gnp(7, 0.3),
    "subdivision": Gnp(7, 0.4),
    "contraction_triangle_free": RandomBipartite(4, 4, 0.5),
    "tree_leaf_add": RandomTree(8),
    "tree_leaf_delete": RandomTree(8),
    "vertex_add_general": Gnp(7, 0.3),
    "vertex_delete_general": Gnp(7, 0.3),
    "cartesian_product": RandomTree(4),
    "join": Gnp(5, 0.5),
}


@pytest.mark.parametrize("tid", list(THEOREMS))
def test_record_flags_match_the_fraction_comparisons(tid):
    records, _ = run_campaign(CampaignConfig(tid, _SMALL_CAMPAIGNS[tid], trials=20, seed=5))
    assert records
    for r in records:
        assert isinstance(r.lower, Fraction) and isinstance(r.upper, Fraction)
        assert r.passed == (r.lower <= Fraction(r.mp_after) <= r.upper)
        assert r.tight_low == (Fraction(r.mp_after) == r.lower)
        assert r.tight_high == (Fraction(r.mp_after) == r.upper)


@pytest.mark.parametrize("lower, upper, passed", [
    (Fraction(11, 3), Fraction(9, 2), True),  # ceil and floor are both 4
    (Fraction(13, 3), Fraction(9, 2), False),  # 4 < 13/3
    (Fraction(7, 3), Fraction(7, 2), False),  # 4 > 7/2
    (Fraction(4), Fraction(4), True),  # integral ends: tight at both
])
def test_record_flags_on_ends_set_by_hand(monkeypatch, lower, upper, passed):
    # C4 from P4 by edge_add: mp 3 before and 4 after, under ends set by hand
    spec = THEOREMS["edge_add"]._replace(bounds=lambda mp, n, p, np_: (lower, upper))
    monkeypatch.setitem(THEOREMS, "edge_add", spec)
    rec = check_bound("edge_add", path_graph(4), (0, 3))
    assert (rec.mp_before, rec.mp_after, rec.lower, rec.upper) == (3, 4, lower, upper)
    assert rec.passed is passed
    assert rec.tight_low is (lower == 4) and rec.tight_high is (upper == 4)


@pytest.mark.parametrize("tid, target, message", [
    ("edge_add", 1, "add-edge takes an edge (u, v), got 1"),
    ("edge_delete", (0,), "delete-edge takes an edge (u, v), got (0,)"),
    ("tree_leaf_add", 1, "add-vertex takes a tuple of neighbors, got 1"),
    ("vertex_add_general", [0.5], "add-vertex takes a tuple of neighbors, got [0.5]"),
    ("tree_leaf_delete", (1,), "delete-vertex takes a vertex, got (1,)"),
    ("vertex_delete_general", (1,), "delete-vertex takes a vertex, got (1,)"),
    ("cartesian_product", 3, "cartesian-product takes a partner graph, got 3"),
    ("join", (0, 1), "join takes a partner graph, got (0, 1)"),
], ids=["edge_add", "edge_delete", "tree_leaf_add", "vertex_add_general", "tree_leaf_delete",
        "vertex_delete_general", "cartesian_product", "join"])
def test_check_bound_rejects_a_target_of_the_wrong_shape(tid, target, message):
    with pytest.raises(ValueError) as exc:
        check_bound(tid, path_graph(3), target)
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_check_bound_takes_lists_for_edges_and_neighbors():
    assert check_bound("edge_add", path_graph(4), [0, 3]) == check_bound(
        "edge_add", path_graph(4), (0, 3))
    assert check_bound("vertex_add_general", path_graph(4), [0, 3]).passed


def _summary_record_by_record(config, records):
    """The campaign summary with one Fraction slack per record."""
    passes = sum(1 for r in records if r.passed)
    lo_slacks = [r.mp_after - r.lower for r in records]
    hi_slacks = [r.upper - r.mp_after for r in records]
    return bounds.CampaignSummary(
        theorem=config.theorem,
        trials=config.trials,
        records=len(records),
        passes=passes,
        failures=len(records) - passes,
        skipped_trials=config.trials - len({r.trial for r in records}),
        tight_low=sum(1 for r in records if r.tight_low),
        tight_high=sum(1 for r in records if r.tight_high),
        min_lower_slack=min(lo_slacks) if lo_slacks else None,
        min_upper_slack=min(hi_slacks) if hi_slacks else None,
    )


# the small campaigns, but with triangles, and so skipped trials, for contraction
_FOLD_CAMPAIGNS = {**_SMALL_CAMPAIGNS, "contraction_triangle_free": Gnp(7, 0.3)}


@pytest.mark.parametrize("tid", list(THEOREMS))
def test_summary_folds_per_trial_as_per_record(tid):
    # vertex_add_general checks one neighbor set per trial unless sampled
    policy = ("sample", 3) if tid == "vertex_add_general" else None
    config = CampaignConfig(tid, _FOLD_CAMPAIGNS[tid], trials=12, seed=9, target_policy=policy)
    records, summary = run_campaign(config)
    assert records and summary == _summary_record_by_record(config, records)
    assert type(summary.min_lower_slack) is Fraction
    assert type(summary.min_upper_slack) is Fraction
    assert run_campaign(config, jobs=2) == (records, summary)
