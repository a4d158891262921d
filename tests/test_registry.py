"""Guards for the single operation dispatch and the single theorem registry."""

import hashlib
import re
from pathlib import Path

import pytest

from dmp import bounds, cli, operations as ops
from dmp.bounds import (
    CampaignConfig,
    Gnp,
    PreconditionError,
    RandomBipartite,
    RandomTree,
    THEOREMS,
    check_bound,
    records_to_csv,
    records_to_json,
    run_campaign,
    select_theorem,
)
from dmp.constructions import (
    complete_graph,
    cycle_graph,
    generate,
    list_families,
    path_graph,
    star_graph,
)
from dmp.graph import Graph, from_edge_list, to_edge_list_text

# sha256 of records_to_csv for 10 trials at seed 42 on the acceptance
# criterion 3 models: campaign reports must not change by a single byte
GOLDEN_CSV_SHA256 = {
    "edge_add": (Gnp(10, 0.3),
                 "411dd127b204188e65adafbedd985681f05a0932b7a52f8fe65b393ba028db52"),
    "edge_delete": (Gnp(10, 0.4),
                    "57d7209f6b217cc07a4671331e954f6842131cfbac9c808500810000124db060"),
    "subdivision": (Gnp(9, 0.35),
                    "162e73488c6c974da6b125f298909eb65be69847b04efff2cf837491aaa4c01c"),
    "contraction_triangle_free": (
        RandomBipartite(5, 5, 0.4),
        "04cd933f3678da242cd03a8dfa1146fa8447e6043ed6ee9c63a327360d842794"),
    "vertex_add_general": (Gnp(8, 0.4),
                           "692b4660ff0bf95c199623c9195c68bd21868bd8e26a5989c186b92e6a861313"),
    "vertex_delete_general": (
        Gnp(9, 0.4),
        "326f727575754942c617bbfe4f0fcbb962a168c589aa0e3aa3eb2e5fa1a219d4"),
    "tree_leaf_add": (RandomTree(10),
                      "cbe54077c41a470f113bb4c39f2bf5dc8b6d7d51d58cb048f5f3cddb47a2777d"),
    "tree_leaf_delete": (RandomTree(12),
                         "cd8005cd9307463cc060f38a57912e6191846b76b985c46da51392941c8a2096"),
    "cartesian_product": (Gnp(4, 0.6),
                          "e81125e666819e13fc2cd460e1c02f093798858d09aa6717850dad4610605c64"),
    "join": (Gnp(5, 0.5),
             "5f24c9e7af6288d757c2e1cab952793b5b77a234e2c6e1c26c085f654fc1e76a"),
}


@pytest.mark.parametrize("tid", sorted(GOLDEN_CSV_SHA256))
def test_golden_report_digest(tid):
    model, digest = GOLDEN_CSV_SHA256[tid]
    records, _ = run_campaign(CampaignConfig(tid, model, trials=10, seed=42))
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == digest


# sha256 of records_to_json on the same campaigns
GOLDEN_JSON_SHA256 = {
    "edge_add": "198bf8bf01c48f8943e9a398f2becf4a99b1cb9df5376d40dee72beff57a2f47",
    "edge_delete": "42f7201a9f12d3aca818e0d5af70cfb8c3b986dfc1dbf151de1a7cca10ca0515",
    "subdivision": "1748b9f4fbe37c46b54224e049ef7b63bdd55e2dd1483b4c5d4ce559b0ca85ac",
    "contraction_triangle_free":
        "837c85fdbb86f29c304c5016fb81c466c3fe3e3ac88207f67f7312e1d7eae4cc",
    "vertex_add_general": "42c6502e1e2e32126b5403bd9bf667947f17fb895030f2b9249cd80e2dd90190",
    "vertex_delete_general": "9310616e214ae2d2622fc5435f690bf93e322aeb64f94906e4d94cc9c8bed080",
    "tree_leaf_add": "512532b16c5c62d43ad3b5d46793a17cb190dda57304118c886d356fce02ef05",
    "tree_leaf_delete": "a221f3061f30523f03cc0e2c4fb2f104ecb23e186edc24204dad5e0d45082044",
    "cartesian_product": "81750ecbc611003d8bf70ac7289cd9b8da8d26480393192205fa212829b142d9",
    "join": "ffbc894491e55083fe83361a8b7a28733344845cc08f8a7049de59a399c54b9f",
}

# sha256 of every theorem's CSV, in GOLDEN_CSV_SHA256 order, under ("sample", 3)
GOLDEN_SAMPLED_CSV_SHA256 = "152d5256114cae77f5771ac0da3c7b4980355f2442656c3375503f6cf6eff3df"


@pytest.mark.parametrize("tid", sorted(GOLDEN_JSON_SHA256))
def test_golden_json_report_digest(tid):
    model, _ = GOLDEN_CSV_SHA256[tid]
    report = records_to_json(*run_campaign(CampaignConfig(tid, model, trials=10, seed=42)))
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_JSON_SHA256[tid]


def test_golden_sampled_report_digest():
    # a product or a join has one target per trial, the partner graph: no sample
    reports = "".join(
        records_to_csv(run_campaign(CampaignConfig(
            tid, model, 10, 42, None if THEOREMS[tid].needs_partner else ("sample", 3)))[0])
        for tid, (model, _) in GOLDEN_CSV_SHA256.items()
    )
    assert hashlib.sha256(reports.encode()).hexdigest() == GOLDEN_SAMPLED_CSV_SHA256


def test_every_operation_has_a_theorem_and_a_dispatch():
    assert set(tuple(THEOREMS)) == set(GOLDEN_CSV_SHA256)
    assert {spec.operation for spec in THEOREMS.values()} == set(ops.OP_KINDS)


def test_apply_rejects_unknown_operation():
    with pytest.raises(ValueError, match="unknown operation"):
        ops.apply("rotate", path_graph(3), (0, 1))


def _min_instance(info):
    return generate(info.name, {name: lo for name, lo in info.params})


@pytest.mark.parametrize(
    "info", [f for f in list_families() if f.theorem], ids=lambda f: f.name
)
def test_family_theorem_matches_its_operation(info):
    inst = _min_instance(info)
    spec = THEOREMS[info.theorem]
    assert spec.operation == inst.operation
    rec = check_bound(info.theorem, inst.graph, inst.target)
    assert rec.passed
    assert (rec.mp_before, rec.mp_after) == (inst.claimed_mp_before, inst.claimed_mp_after)


def _ints(t) -> bool:
    return isinstance(t, tuple) and all(type(x) is int for x in t)


# what a target of each kind looks like
TARGET_SHAPES = {
    "edge": lambda t: _ints(t) and len(t) == 2,
    "vertex": lambda t: type(t) is int,
    "neighbors": _ints,
    "partner": lambda t: isinstance(t, Graph),
}


@pytest.mark.parametrize("info", list_families(), ids=lambda f: f.name)
def test_family_target_has_its_operation_kind_shape(info):
    inst = _min_instance(info)
    assert TARGET_SHAPES[ops.target_kind(inst.operation)](inst.target)


def test_k4_free_fails_the_triangle_free_hypothesis():
    inst = generate("k4_free", {"k": 2})
    spec = THEOREMS["contraction_triangle_free"]
    assert spec.hypothesis(inst.graph, (inst.target,)) is not None
    assert select_theorem("contract", inst.graph, inst.target) == (
        None, "graph not triangle-free")
    with pytest.raises(PreconditionError):
        check_bound("contraction_triangle_free", inst.graph, inst.target)


def test_selection_prefers_the_tree_rows():
    tree = star_graph(3)
    assert select_theorem("add-vertex", tree, (1,))[0].id == "tree_leaf_add"
    assert select_theorem("add-vertex", tree, (1, 2))[0].id == "vertex_add_general"
    assert select_theorem("add-vertex", cycle_graph(4), (1,))[0].id == "vertex_add_general"
    assert select_theorem("delete-vertex", tree, 1)[0].id == "tree_leaf_delete"
    assert select_theorem("delete-vertex", tree, 0)[0].id == "vertex_delete_general"


def test_selection_reports_disconnected_product_operands():
    disc = from_edge_list(3, [(0, 1)])
    assert select_theorem("cartesian-product", disc, path_graph(2)) == (
        None, "operands not both connected")
    assert select_theorem("join", disc, path_graph(2))[0].id == "join"


# each target has the wrong shape for its operation, or the operation is unknown
@pytest.mark.parametrize("op, target, message", [
    ("add-vertex", 1, "add-vertex takes a tuple of neighbors, got 1"),
    ("delete-vertex", (1,), "delete-vertex takes a vertex, got (1,)"),
    ("cartesian-product", 3, "cartesian-product takes a partner graph, got 3"),
    ("add-edge", 1, "add-edge takes an edge (u, v), got 1"),
    ("join", 3, "join takes a partner graph, got 3"),
    ("rotate", (0, 1), "unknown operation kind 'rotate'"),
])
def test_selection_checks_the_shape_before_any_hypothesis(monkeypatch, op, target, message):
    def never(g):
        raise AssertionError("a hypothesis ran before the shape check")

    monkeypatch.setattr(bounds, "is_tree", never)
    monkeypatch.setattr(bounds, "is_connected", never)
    with pytest.raises(ValueError, match=re.escape(message)):
        select_theorem(op, path_graph(3), target)


def test_selection_takes_lists_for_edges_and_neighbors():
    assert select_theorem("add-edge", path_graph(3), [0, 2])[0].id == "edge_add"
    assert select_theorem("add-vertex", star_graph(3), [1])[0].id == "tree_leaf_add"


# True and False are ints to isinstance(), but no target kind takes them
@pytest.mark.parametrize("op, target, message", [
    ("delete-vertex", True, "delete-vertex takes a vertex, got True"),
    ("add-edge", (True, 2), "add-edge takes an edge (u, v), got (True, 2)"),
    ("add-vertex", [0, False], "add-vertex takes a tuple of neighbors, got [0, False]"),
])
def test_a_bool_is_not_an_int_target(op, target, message):
    theorem = next(t for t in THEOREMS.values() if t.operation == op).id
    for call in (lambda: ops.apply(op, path_graph(3), target),
                 lambda: check_bound(theorem, path_graph(3), target),
                 lambda: select_theorem(op, path_graph(3), target)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def _count_solves(monkeypatch, *modules):
    calls = []
    for mod in modules:
        orig = mod.mp_exact

        def counted(g, limits=None, _orig=orig):
            calls.append(g)
            return _orig(g, limits)

        monkeypatch.setattr(mod, "mp_exact", counted)
    return calls


@pytest.mark.parametrize("tid", [
    "tree_leaf_add",
    "tree_leaf_delete",
])
def test_tree_hypothesis_checks_the_graph_once_per_trial(monkeypatch, tid):
    calls = []
    orig = bounds.is_tree

    def counted(g):
        calls.append(g)
        return orig(g)

    monkeypatch.setattr(bounds, "is_tree", counted)
    _, summary = run_campaign(CampaignConfig(tid, RandomTree(40), trials=5, seed=3))
    assert summary.skipped_trials == 0 and summary.records > summary.trials
    assert len(calls) == summary.trials


def test_campaign_solves_each_graph_once(monkeypatch):
    calls = _count_solves(monkeypatch, bounds)
    config = CampaignConfig("edge_add", Gnp(7, 0.4), trials=12, seed=5)
    records, summary = run_campaign(config)
    assert summary.records > summary.trials
    assert len(calls) == summary.records + (summary.trials - summary.skipped_trials)


def test_bad_target_fails_before_any_solve(monkeypatch):
    calls = _count_solves(monkeypatch, bounds)
    with pytest.raises(ValueError, match="not present"):
        check_bound("edge_delete", path_graph(4), (0, 2))
    with pytest.raises(ValueError, match="at least one neighbor"):
        check_bound("vertex_add_general", path_graph(4), ())
    assert calls == []


def _op_counts(monkeypatch, tmp_path, g, partner, *flags):
    """Solver calls and operation calls made by one `dmp op` run."""
    solves = _count_solves(monkeypatch, bounds, cli)
    applied = []
    for name in ("add_edge", "contract_edge", "join"):
        orig = getattr(ops, name)

        def counted(*args, _orig=orig, _name=name):
            applied.append(_name)
            return _orig(*args)

        monkeypatch.setattr(ops, name, counted)
    (tmp_path / "g.txt").write_text(to_edge_list_text(g))
    (tmp_path / "h.txt").write_text(to_edge_list_text(partner))
    argv = ["op", str(tmp_path / "g.txt"), *flags, "--out", str(tmp_path / "o.txt")]
    code = cli.main([str(tmp_path / "h.txt") if a == "H" else a for a in argv])
    return code, solves, applied


def test_op_applies_once_and_solves_each_graph_once(monkeypatch, tmp_path, capsys):
    g, h = path_graph(3), complete_graph(2)
    code, solves, applied = _op_counts(
        monkeypatch, tmp_path, g, h, "--op", "join", "--partner", "H")
    assert code == 0 and applied == ["join"]
    assert solves[:2] == [g, h] and len(solves) == 3 and solves[2].n == 5
    assert capsys.readouterr().out == "2 -> 4, bounds [4, 5], pass\n"


def test_op_inapplicable_solves_graph_and_result_once(monkeypatch, tmp_path, capsys):
    code, solves, applied = _op_counts(
        monkeypatch, tmp_path, complete_graph(3), path_graph(1),
        "--op", "contract", "--u", "0", "--v", "1")
    assert code == 0 and applied == ["contract_edge"] and len(solves) == 2
    assert capsys.readouterr().out == (
        "3 -> 2, theorem inapplicable (graph not triangle-free)\n")


def test_op_bad_target_fails_before_any_solve(monkeypatch, tmp_path):
    code, solves, _ = _op_counts(
        monkeypatch, tmp_path, path_graph(3), path_graph(1),
        "--op", "add-edge", "--u", "0", "--v", "1")
    assert code == 1 and solves == []


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(bounds.os, "cpu_count", lambda: 4)
    assert bounds._worker_count(100_000, 1_000) == 4
    assert bounds._worker_count(100_000, 3) == 3
    assert bounds._worker_count(2, 1_000) == 2
    assert bounds._worker_count(1, 1_000) == 1
    monkeypatch.setattr(bounds.os, "cpu_count", lambda: None)
    assert bounds._worker_count(8, 1_000) == 1


@pytest.mark.parametrize("jobs", [0, -4])
def test_campaign_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_campaign(CampaignConfig("edge_add", Gnp(5, 0.5), trials=3, seed=1), jobs=jobs)


def test_verify_rejects_negative_jobs_with_exit_1(capsys):
    assert cli.main(["verify", "--theorem", "edge_add", "--model", "gnp", "--n", "5",
                     "--p", "0.5", "--trials", "3", "--jobs", "-4"]) == 1
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_readme_lists_families_and_theorems_in_order():
    # the README is the last hand-kept copy of both orders
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Families, in table order:", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in list_families()]
    table_ids = re.findall(r"^\| `(\w+)`", readme, flags=re.MULTILINE)
    assert tuple(table_ids) == tuple(THEOREMS)


def test_readme_examples_run_as_printed(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    # each "$ dmp ..." line, then the lines it prints; "..." ends a printed prefix
    examples = re.findall(r"^\$ dmp (.*)\n((?:(?!\$ ).*\n)*)", block, re.MULTILINE)
    assert len(examples) == 4
    monkeypatch.chdir(tmp_path)
    for command, printed in examples:
        assert cli.main(command.split()) == 0, command
        lines = capsys.readouterr().out.splitlines()
        expected = printed.splitlines()
        assert len(lines) == len(expected), command
        for line, want in zip(lines, expected):
            if want.endswith("..."):
                assert line.startswith(want[:-3]), command
            else:
                assert line == want, command
