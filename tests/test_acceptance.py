"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact equalities; the time budgets are asserted
against wall-clock measurements.
"""

import time

from dmp.cli import main
from dmp.constructions import (
    apply_designated,
    complete_bipartite_graph,
    complete_graph,
    generate,
    list_families,
    path_graph,
    star_graph,
)
from dmp.cli import _oracle_graphs
from dmp.operations import add_vertex, delete_vertex, subdivide_edge
from dmp.solver import mp_exact, mp_oracle
from dmp.bounds import (
    CampaignConfig,
    Gnp,
    RandomBipartite,
    RandomTree,
    check_bound,
    run_campaign,
)

PARAM_SPAN = 7  # minimum through minimum + 6


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_construction_reproduction():
    t0 = time.time()
    mismatches = []
    checked = 0
    for info in list_families():
        for off in range(PARAM_SPAN):
            params = {name: lo + off for name, lo in info.params}
            inst = generate(info.name, params)
            before = mp_exact(inst.graph).value
            after = mp_exact(apply_designated(inst)).value
            checked += 1
            if (before, after) != (inst.claimed_mp_before, inst.claimed_mp_after):
                mismatches.append((info.name, params, before, after))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 60.0
    _report(
        "1 construction-reproduction",
        ok,
        f"{checked} instances, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    graphs = list(_oracle_graphs(12, 500, 42))
    mismatches = sum(1 for g in graphs if mp_exact(g).value != mp_oracle(g))
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 300.0
    _report(
        "2 oracle-equivalence",
        ok,
        f"{len(graphs) - 500} catalog + 500 random graphs, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_theorem_fuzzing():
    t0 = time.time()
    plans = [
        ("edge_add", Gnp(10, 0.3)),
        ("edge_delete", Gnp(10, 0.4)),
        ("subdivision", Gnp(9, 0.35)),
        ("contraction_triangle_free", RandomBipartite(5, 5, 0.4)),
        ("vertex_add_general", Gnp(8, 0.4)),
        ("vertex_delete_general", Gnp(9, 0.4)),
        ("tree_leaf_add", RandomTree(10)),
        ("tree_leaf_delete", RandomTree(12)),
        ("cartesian_product", Gnp(4, 0.6)),
        ("join", Gnp(5, 0.5)),
    ]
    failures = {}
    records_total = 0
    for theorem, model in plans:
        _, summary = run_campaign(CampaignConfig(theorem, model, trials=200, seed=42))
        records_total += summary.records
        if summary.failures:
            failures[theorem] = summary.failures
    elapsed = time.time() - t0
    ok = not failures and elapsed < 600.0
    _report(
        "3 theorem-fuzzing",
        ok,
        f"10 theorems x 200 trials, {records_total} records, "
        f"violations={sum(failures.values())}, {elapsed:.1f}s",
    )


def test_criterion_4_sharpness_witnesses():
    designations = [
        ("edge_add", "g1_plus", {"k": 4}, "high"),
        ("edge_add", "g2_plus", {"k": 4}, "low"),
        ("edge_delete", "g1_minus", {"k": 4}, "high"),
        ("edge_delete", "g2_minus", {"k": 4}, "low"),
        ("subdivision", "subdiv_upper", {"n": 6}, "high"),
        ("subdivision", "subdiv_lower", {"n": 7}, "low"),
        ("contraction_triangle_free", "contract_g1", {"k": 3}, "high"),
        ("contraction_triangle_free", "contract_g3", {"k": 3}, "low"),
        ("vertex_add_general", "complete_bipartite", {"n": 3}, "high"),
        ("vertex_delete_general", "complete", {"n": 5}, "high"),
        ("vertex_delete_general", "star", {"m": 4}, "low"),
        ("tree_leaf_add", "tree_t1_plus", {"k": 3}, "high"),
        ("tree_leaf_add", "tree_t2_plus", {"k": 3}, "low"),
        ("tree_leaf_delete", "tree_t1_minus", {"k": 3}, "high"),
        ("tree_leaf_delete", "tree_t2_minus", {"k": 3}, "low"),
        ("cartesian_product", "product_regular_snake", {"t": 4}, "high"),
        ("cartesian_product", "product_star_star", {"m": 3}, "low"),
        ("join", "join_same_degseq", {"n": 4}, "high"),
        ("join", "join_star_complete", {"m": 2, "k": 3}, "low"),
    ]
    wrong = []
    for theorem, family, params, expect in designations:
        inst = generate(family, params)
        rec = check_bound(theorem, inst.graph, inst.target)
        got = rec.passed and (rec.tight_high if expect == "high" else rec.tight_low)
        if not got:
            wrong.append((theorem, family))
    # vertex addition lower bound: joining a vertex to one side of a
    # balanced complete bipartite graph drops mp back to 2
    rec = check_bound(
        "vertex_add_general", complete_bipartite_graph(3, 3), tuple(range(3))
    )
    if not (rec.passed and rec.tight_low and rec.mp_after == 2):
        wrong.append(("vertex_add_general", "balanced-bipartite-low"))
    _report(
        "4 sharpness-witnesses",
        not wrong,
        f"{len(designations) + 1} designations, wrong flags: {wrong or 'none'}",
    )


def test_criterion_5_point_values():
    bad = []

    for n in (5, 8, 11):
        if mp_exact(path_graph(n)).value != n - 1:
            bad.append(("path", n))
    for n in (3, 7, 12):
        if mp_exact(complete_graph(n)).value != n:
            bad.append(("complete", n))
    for n in (2, 4, 5):
        if mp_exact(complete_bipartite_graph(n, n + 1)).value != 2:
            bad.append(("unbalanced-bipartite", n))
    for n in (4, 6, 9):
        g = path_graph(n)
        for u, v in g.edges():
            if mp_exact(subdivide_edge(g, u, v)).value != n:
                bad.append(("subdivide-path", n, (u, v)))
    for n in (2, 3, 4):
        g = add_vertex(complete_bipartite_graph(n, n + 1), tuple(range(n, 2 * n + 1)))
        if mp_exact(g).value != 2 * n + 2:
            bad.append(("bipartite-plus-vertex", n))
    for m in (3, 5, 9):
        g, _ = delete_vertex(star_graph(m), 0)
        if mp_exact(g).value != 1:
            bad.append(("star-minus-center", m))

    _report("5 point-values", not bad, f"6 identities x 3 params, wrong: {bad or 'none'}")


def test_criterion_6_verify_determinism(tmp_path):
    args = [
        "verify", "--theorem", "edge_add", "--model", "gnp",
        "--n", "9", "--p", "0.3", "--trials", "60", "--seed", "42",
    ]
    outputs = []
    for name in ("a.csv", "b.csv"):
        report = tmp_path / name
        code = main(args + ["--report", str(report)])
        assert code == 0
        outputs.append(report.read_bytes())
    json_outputs = []
    for name in ("a.json", "b.json"):
        report = tmp_path / name
        code = main(args + ["--report", str(report)])
        assert code == 0
        json_outputs.append(report.read_bytes())
    ok = outputs[0] == outputs[1] and json_outputs[0] == json_outputs[1]
    _report(
        "6 verify-determinism",
        ok,
        f"csv {len(outputs[0])} bytes identical={outputs[0] == outputs[1]}, "
        f"json identical={json_outputs[0] == json_outputs[1]}",
    )
