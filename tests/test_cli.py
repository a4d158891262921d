import re

import pytest

from dmp import bounds
from dmp.cli import _oracle_graphs, main
from dmp.graph import (MAX_FILE_VERTICES, parse_edge_list_text, parse_json_text, to_edge_list_text,
                       to_json_text)
from dmp.constructions import complete_graph, list_families, path_graph
from dmp.operations import OP_KINDS
from dmp.solver import mp_exact


def _write(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(to_edge_list_text(g))
    return str(p)


def test_mp_basic(tmp_path, capsys):
    path = _write(tmp_path, "p5.txt", path_graph(5))
    assert main(["mp", path]) == 0
    assert capsys.readouterr().out == "mp=4\n"


def test_mp_witness(tmp_path, capsys):
    path = _write(tmp_path, "k4.txt", complete_graph(4))
    assert main(["mp", path, "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "mp=4"
    assert out[1].startswith("witness=") and out[2] == "direction=non-decreasing"


def test_mp_stats_go_to_stderr(tmp_path, capsys):
    path = _write(tmp_path, "p5.txt", path_graph(5))
    assert main(["mp", path, "--stats"]) == 0
    out, err = capsys.readouterr()
    assert out == "mp=4\n"
    assert re.fullmatch(r"nodes=3 components=3 largest_component=3 seconds=\d+\.\d{6}\n", err)


def test_mp_single_vertex(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1 0\n")
    assert main(["mp", str(path)]) == 0
    assert capsys.readouterr().out == "mp=1\n"


# each named format reads its own text and rejects the other's
@pytest.mark.parametrize("fmt, text, code, out", [
    ("edgelist", "3 2\n0 1\n1 2\n", 0, "mp=2\n"),
    ("json", '{"n": 3, "edges": [[0, 1], [1, 2]]}', 0, "mp=2\n"),
    ("edgelist", '{"n": 3, "edges": [[0, 1], [1, 2]]}', 1, ""),
    ("json", "3 2\n0 1\n1 2\n", 1, ""),
], ids=["edgelist", "json", "edgelist_given_json", "json_given_edgelist"])
def test_mp_reads_the_named_format(tmp_path, capsys, fmt, text, code, out):
    path = tmp_path / "p3"
    path.write_text(text)
    assert main(["mp", str(path), "--format", fmt]) == code
    assert capsys.readouterr().out == out


def test_mp_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"n": 1, "edges": ' + "[" * 200_000 + "]" * 200_000 + "}")
    assert main(["mp", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid JSON graph: nested too deeply\n"


def test_mp_repeated_json_key_exits_1(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "edges": [[0, 1]], "n": 3}')
    assert main(["mp", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid JSON graph: repeated key 'n'\n"


@pytest.mark.parametrize("name, text", [("big.txt", "{n} 0\n"),
                                        ("big.json", '{{"n": {n}, "edges": []}}')],
                         ids=["edgelist", "json"])
@pytest.mark.parametrize("argv", [
    ["mp", "BIG"],
    ["op", "BIG", "--op", "delete-vertex", "--vertex", "0"],
    ["op", "SMALL", "--op", "join", "--partner", "BIG"],
], ids=["mp", "op", "op-partner"])
def test_a_file_declaring_too_many_vertices_exits_1(tmp_path, capsys, argv, name, text):
    big = tmp_path / name
    big.write_text(text.format(n=MAX_FILE_VERTICES + 1))
    small = _write(tmp_path, "p2.txt", path_graph(2))
    paths = {"BIG": str(big), "SMALL": small}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: declared vertex count {MAX_FILE_VERTICES + 1} exceeds "
                            f"the limit of {MAX_FILE_VERTICES} for a graph file\n")


# a leading byte-order mark is dropped: the file is read as UTF-8 with BOM
@pytest.mark.parametrize("text, fmt", [
    ('{"n": 2, "edges": [[0, 1]]}', "auto"),
    ('{"n": 2, "edges": [[0, 1]]}', "json"),
    ("2 1\n0 1\n", "auto"),
    ("2 1\n0 1\n", "edgelist"),
], ids=["json_auto", "json", "edgelist_auto", "edgelist"])
def test_mp_reads_a_file_with_a_byte_order_mark(tmp_path, capsys, text, fmt):
    path = tmp_path / "g"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    assert main(["mp", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == "mp=2\n"


def test_op_reads_a_partner_file_with_a_byte_order_mark(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", path_graph(2))
    partner = tmp_path / "h.json"
    partner.write_bytes(b"\xef\xbb\xbf" + to_json_text(path_graph(2)).encode())
    assert main(["op", path, "--op", "join", "--partner", str(partner)]) == 0
    assert capsys.readouterr().out.startswith("2 -> 4, ")


def test_mp_parse_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a graph\n")
    assert main(["mp", str(path)]) == 1


def test_mp_missing_file_exits_1(tmp_path):
    assert main(["mp", str(tmp_path / "nope.txt")]) == 1


def test_mp_budget_exceeded_exits_3(tmp_path, monkeypatch):
    monkeypatch.setenv("DMP_NODE_BUDGET", "3")
    path = _write(tmp_path, "c8.txt", complete_graph(8))
    assert main(["mp", path]) == 3


@pytest.mark.parametrize("raw", ["lots", "0", "-5", "1_000", "+50", " 7", "\u0661\u0660\u0660"])
def test_mp_bad_budget_env_exits_1(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("DMP_NODE_BUDGET", raw)
    path = _write(tmp_path, "p3.txt", path_graph(3))
    assert main(["mp", path]) == 1
    err = capsys.readouterr().err
    assert "DMP_NODE_BUDGET must be a positive integer" in err and repr(raw) in err


def test_mp_long_path_has_no_recursion_limit(tmp_path, capsys):
    path = _write(tmp_path, "p1200.txt", path_graph(1200))
    assert main(["mp", path]) == 0
    assert capsys.readouterr().out == "mp=1199\n"


def test_unknown_flag_exits_1(tmp_path):
    path = _write(tmp_path, "p3.txt", path_graph(3))
    assert main(["mp", path, "--frobnicate"]) == 1


def test_op_add_edge_with_bounds_line(tmp_path, capsys):
    assert main(["construct", "--family", "g1_plus", "--k", "4",
                 "--out", str(tmp_path / "g.txt")]) == 0
    capsys.readouterr()
    assert main(["op", str(tmp_path / "g.txt"), "--op", "add-edge",
                 "--u", "4", "--v", "8"]) == 0
    assert capsys.readouterr().out == "4 -> 12, bounds [5/3, 12], pass\n"


def test_op_contract_on_triangle_reports_inapplicable(tmp_path, capsys):
    path = _write(tmp_path, "k3.txt", complete_graph(3))
    assert main(["op", path, "--op", "contract", "--u", "0", "--v", "1",
                 "--out", str(tmp_path / "out.txt")]) == 0
    out = capsys.readouterr().out
    assert "theorem inapplicable" in out and "triangle" in out
    assert parse_edge_list_text((tmp_path / "out.txt").read_text()).n == 2


def test_op_cartesian_writes_product(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", complete_graph(3))
    b = _write(tmp_path, "b.txt", path_graph(3))
    out = tmp_path / "prod.txt"
    assert main(["op", a, "--op", "cartesian", "--partner", b,
                 "--out", str(out)]) == 0
    assert "6 -> " not in capsys.readouterr().out  # before is mp(K3) = 3
    prod = parse_edge_list_text(out.read_text())
    assert prod.n == 9 and mp_exact(prod).value == 6


def test_op_missing_target_exits_1(tmp_path):
    path = _write(tmp_path, "p4.txt", path_graph(4))
    assert main(["op", path, "--op", "add-edge"]) == 1
    assert main(["op", path, "--op", "cartesian"]) == 1
    assert main(["op", path, "--op", "add-vertex"]) == 1


@pytest.mark.parametrize("raw", ["1_0", "+1", "\u0661"], ids=["underscore", "plus", "arabic"])
@pytest.mark.parametrize("flags, message", [
    (["op", "G", "--op", "add-edge", "--u", "RAW", "--v", "2"],
     "argument --u: invalid int value: 'RAW'"),
    (["op", "G", "--op", "add-vertex", "--neighbors", "RAW"],
     "expected comma-separated integers, got 'RAW'"),
    (["op", "G", "--op", "add-vertex", "--neighbors", "0,RAW"],
     "expected comma-separated integers, got '0,RAW'"),
    (["construct", "--family", "g1_plus", "--k", "RAW"],
     "argument --k: invalid int value: 'RAW'"),
], ids=["op_u", "op_neighbors", "op_neighbors_token", "construct_k"])
def test_integer_flags_follow_the_file_readers_rule(tmp_path, capsys, raw, flags, message):
    # an optional '-' and ASCII digits only: int() alone takes all three
    path = _write(tmp_path, "p12.txt", path_graph(12))
    argv = [path if a == "G" else a.replace("RAW", raw) for a in flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.replace('RAW', raw)}\n"


def test_op_invalid_target_exits_1(tmp_path):
    path = _write(tmp_path, "p4.txt", path_graph(4))
    assert main(["op", path, "--op", "delete-edge", "--u", "0", "--v", "2"]) == 1


def test_construct_prints_claims(tmp_path, capsys):
    assert main(["construct", "--family", "k4_free", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "family=k4_free" in out and "claimed 4 -> 9" in out and "n=10" in out


@pytest.mark.parametrize("info", list_families(), ids=lambda info: info.name)
def test_construct_line_repeats_no_key(info, capsys):
    flags = [x for name, minimum in info.params for x in (f"--{name}", str(minimum))]
    assert main(["construct", "--family", info.name, *flags]) == 0
    keys = re.findall(r"(?:^| )(\w+)=", capsys.readouterr().out)
    assert len(keys) == len(set(keys)), keys


def test_construct_writes_normalized_file(tmp_path):
    out = tmp_path / "sub.txt"
    assert main(["construct", "--family", "subdiv_lower", "--n", "8",
                 "--out", str(out)]) == 0
    g = parse_edge_list_text(out.read_text())
    assert to_edge_list_text(g) == out.read_text()


def test_construct_json_output(tmp_path):
    out = tmp_path / "p.json"
    assert main(["construct", "--family", "path", "--n", "3",
                 "--out", str(out)]) == 0
    assert parse_json_text(out.read_text()) == path_graph(3)


@pytest.mark.parametrize("name", ["G.JSON", "g.Json"])
def test_construct_writes_json_when_the_name_ends_in_json(tmp_path, name):
    out = tmp_path / name
    assert main(["construct", "--family", "path", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text() == '{"n": 3, "edges": [[0, 1], [1, 2]]}\n'


def test_op_writes_json_when_the_name_ends_in_json(tmp_path, capsys):
    path = _write(tmp_path, "p4.txt", path_graph(4))
    out = tmp_path / "h.json"
    assert main(["op", path, "--op", "add-edge", "--u", "0", "--v", "3", "--out", str(out)]) == 0
    assert out.read_text() == '{"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}\n'


@pytest.mark.parametrize("name", ["g.txt", "g", "g.json.txt"])
def test_any_other_name_gets_edge_list_text(tmp_path, capsys, name):
    out, partner = tmp_path / name, tmp_path / ("partner-" + name)
    assert main(["construct", "--family", "product_star_star", "--m", "3",
                 "--out", str(out), "--partner-out", str(partner)]) == 0
    assert out.read_text() == "4 3\n0 1\n0 2\n0 3\n"
    assert partner.read_text() == out.read_text()
    path = _write(tmp_path, "p3.txt", path_graph(3))
    assert main(["op", path, "--op", "add-edge", "--u", "0", "--v", "2", "--out", str(out)]) == 0
    assert out.read_text() == "3 3\n0 1\n0 2\n1 2\n"


def test_op_reads_json_input_and_partner_by_content(tmp_path, capsys):
    # .txt names holding JSON: the reader goes by the text, not the name
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(to_json_text(complete_graph(3)))
    b.write_text(to_json_text(path_graph(3)) + "\n")
    out = tmp_path / "prod.txt"
    assert main(["op", str(a), "--op", "cartesian", "--partner", str(b), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("3 -> 6, ")
    assert parse_edge_list_text(out.read_text()).n == 9
    assert main(["op", str(a), "--op", "delete-edge", "--u", "0", "--v", "1"]) == 0
    assert capsys.readouterr().out == "3 -> 2, bounds [1, 8], pass\n"


@pytest.mark.parametrize("flags, unknown", [
    (["op", "GRAPH", "--op", "add-edge", "--u", "0", "--v", "2", "--json"], "--json"),
    (["op", "GRAPH", "--op", "add-edge", "--u", "0", "--v", "2", "--out", "OUT.json",
      "--json"], "--json"),
    (["op", "GRAPH", "--op", "add-edge", "--u", "0", "--v", "2", "--format", "json"],
     "--format json"),
    (["construct", "--family", "path", "--n", "3", "--out", "OUT.json", "--json"], "--json"),
    (["verify", "--theorem", "edge_add", "--model", "gnp", "--n", "4", "--p", "0.5",
      "--trials", "2", "--report", "OUT.json", "--json"], "--json"),
], ids=["op-json", "op-out-json", "op-format", "construct-json", "verify-json"])
def test_removed_format_flags_exit_1(tmp_path, capsys, flags, unknown):
    graph = _write(tmp_path, "p4.txt", path_graph(4))
    out = str(tmp_path / "out")
    assert main([f.replace("GRAPH", graph).replace("OUT", out) for f in flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {unknown}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p4.txt"]


def test_two_outputs_naming_one_file_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--family", "join_star_complete", "--m", "2", "--k", "3",
                 "--out", "same.txt", "--partner-out", "./same.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: two outputs name the same file: same.txt and ./same.txt\n"
    assert list(tmp_path.iterdir()) == []


def test_op_may_write_over_its_input(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", path_graph(3))
    assert main(["op", path, "--op", "add-edge", "--u", "0", "--v", "2", "--out", path]) == 0
    assert parse_edge_list_text((tmp_path / "g.txt").read_text()) == complete_graph(3)


def test_construct_partner_out(tmp_path, capsys):
    out = tmp_path / "star.txt"
    partner = tmp_path / "partner.txt"
    assert main(["construct", "--family", "product_star_star", "--m", "3",
                 "--out", str(out), "--partner-out", str(partner)]) == 0
    assert parse_edge_list_text(partner.read_text()).n == 4


def test_construct_partner_out_rejected_without_partner(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["construct", "--family", "path", "--n", "4", "--out", str(out),
                 "--partner-out", str(tmp_path / "x.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "family path has no partner graph" in captured.err
    assert not out.exists() and not (tmp_path / "x.txt").exists()


def test_construct_unknown_family_exits_1():
    assert main(["construct", "--family", "mystery", "--k", "3"]) == 1


def test_construct_bad_params_exits_1():
    assert main(["construct", "--family", "g1_plus", "--k", "2"]) == 1
    assert main(["construct", "--family", "g1_plus", "--n", "5"]) == 1


def test_verify_writes_report_and_exits_0(tmp_path, capsys):
    report = tmp_path / "rep.csv"
    code = main(["verify", "--theorem", "edge_add", "--model", "gnp",
                 "--n", "8", "--p", "0.3", "--trials", "25", "--seed", "42",
                 "--report", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == ("theorem,seed,trial,n,m,target,mp_before,mp_after,"
                        "lower,upper,pass,tight_low,tight_high")
    assert "failures=0" in capsys.readouterr().out


def test_verify_byte_identical_reports(tmp_path):
    args = ["verify", "--theorem", "tree_leaf_delete", "--model", "random_tree",
            "--n", "9", "--trials", "30", "--seed", "7"]
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_json_report(tmp_path):
    report = tmp_path / "rep.json"
    assert main(["verify", "--theorem", "join", "--model", "gnp",
                 "--n", "4", "--p", "0.5", "--trials", "10", "--seed", "1",
                 "--report", str(report)]) == 0
    import json

    obj = json.loads(report.read_text())
    assert obj["summary"]["failures"] == 0
    assert len(obj["records"]) == obj["summary"]["records"]


def test_verify_report_format_follows_the_name(tmp_path):
    args = ["verify", "--theorem", "edge_add", "--model", "gnp", "--n", "5", "--p", "0.5",
            "--trials", "4", "--seed", "3", "--report"]
    for name in ("r.csv", "r", "R.JSON"):
        assert main(args + [str(tmp_path / name)]) == 0
    assert (tmp_path / "r").read_bytes() == (tmp_path / "r.csv").read_bytes()
    assert (tmp_path / "r.csv").read_text().startswith("theorem,seed,trial,")
    import json

    assert json.loads((tmp_path / "R.JSON").read_text())["summary"]["trials"] == 4


@pytest.mark.parametrize("raw", ["\u0660.\u0665", "0_5", " 0.5"],
                         ids=["arabic", "underscore", "space"])
def test_verify_float_flag_takes_ascii_digits_only(raw, capsys):
    assert main(["verify", "--theorem", "edge_add", "--model", "gnp", "--n", "4",
                 "--p", raw, "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument --p: invalid float value: {raw!r}\n"


@pytest.mark.parametrize("raw, p", [("0.3", "0.3"), (".5", "0.5"), ("1e-1", "0.1")])
def test_verify_float_flag_accepts_plain_decimals(raw, p, capsys):
    assert main(["verify", "--theorem", "edge_add", "--model", "gnp", "--n", "4",
                 "--p", raw, "--trials", "2"]) == 0
    assert f" model=gnp(n=4;p={p}) " in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["op", "GRAPH", "--op", "add-edge", "--u", "0", "--v", "2", "--out", "OUT"],
    ["construct", "--family", "path", "--n", "4", "--out", "OUT"],
    ["construct", "--family", "product_star_star", "--m", "3", "--partner-out", "OUT"],
    ["construct", "--family", "product_star_star", "--m", "3", "--out", "OK",
     "--partner-out", "OUT"],
    ["verify", "--theorem", "edge_add", "--model", "gnp", "--n", "4", "--p", "0.5",
     "--trials", "2", "--report", "OUT"],
], ids=["op-out", "construct-out", "construct-partner-out", "construct-out-and-partner-out",
        "verify-report"])
def test_write_to_a_missing_directory_exits_1(flags, tmp_path, capsys):
    graph = _write(tmp_path, "p4.txt", path_graph(4))
    out = str(tmp_path / "missing" / "out.txt")
    ok = str(tmp_path / "ok.txt")
    assert main([{"GRAPH": graph, "OUT": out, "OK": ok}.get(f, f) for f in flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # the check comes before any work
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["p4.txt"]


_VERIFY_GNP = ["verify", "--theorem", "edge_add", "--model", "gnp", "--n", "8", "--p", "0.5",
               "--trials", "3", "--seed", "1"]


def test_verify_checks_the_report_path_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("run_campaign was called")

    monkeypatch.setattr(bounds, "run_campaign", no_trial)
    out = str(tmp_path / "missing" / "rep.csv")
    assert main(_VERIFY_GNP + ["--report", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_verify_over_budget_writes_no_report(tmp_path, monkeypatch):
    monkeypatch.setenv("DMP_NODE_BUDGET", "1")
    report = tmp_path / "rep.csv"
    assert main(_VERIFY_GNP + ["--report", str(report)]) == 3
    assert not report.exists()


def test_verify_over_budget_keeps_an_existing_report(tmp_path, monkeypatch):
    report = tmp_path / "rep.csv"
    report.write_text("kept\n")
    monkeypatch.setenv("DMP_NODE_BUDGET", "1")
    assert main(_VERIFY_GNP + ["--report", str(report)]) == 3
    assert report.read_text() == "kept\n"


def test_verify_incompatible_model_exits_1():
    assert main(["verify", "--theorem", "tree_leaf_add", "--model", "gnp",
                 "--n", "8", "--p", "0.3", "--trials", "5"]) == 1


def test_verify_missing_model_params_exits_1():
    assert main(["verify", "--theorem", "edge_add", "--model", "gnp",
                 "--trials", "5"]) == 1


@pytest.mark.parametrize("model, message", [
    ("gnp", "gnp model needs --n and --p"),
    ("random_tree", "random_tree model needs --n"),
    ("random_bipartite", "random_bipartite model needs --n1, --n2 and --p"),
])
def test_verify_names_the_missing_model_flags(model, message, capsys):
    assert main(["verify", "--theorem", "edge_add", "--model", model, "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("model, flags, message", [
    ("gnp", ["--n", "4", "--p", "0.5", "--n1", "3"], "gnp model does not take --n1"),
    ("random_tree", ["--n", "4", "--p", "0.5"], "random_tree model does not take --p"),
    ("random_bipartite", ["--n", "4", "--n1", "2", "--n2", "2", "--p", "0.5"],
     "random_bipartite model does not take --n"),
])
def test_verify_rejects_flags_the_model_does_not_take(model, flags, message, capsys):
    args = ["verify", "--theorem", "edge_add", "--model", model, "--trials", "5"]
    assert main(args + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("theorem", ["cartesian_product", "join"])
def test_verify_rejects_sample_for_partner_theorems(theorem, capsys):
    assert main(["verify", "--theorem", theorem, "--model", "gnp", "--n", "4",
                 "--p", "0.5", "--trials", "5", "--seed", "1", "--sample", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {theorem} takes no target sample: "
                            "its one target per trial is the partner graph\n")


def test_oracle_check_ok(capsys):
    assert main(["oracle-check", "--max-n", "8", "--trials", "50", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith("mismatches=0")


def test_oracle_check_exits_2_on_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr("dmp.cli.mp_oracle", lambda g: 0)  # no graph has mp 0
    assert main(["oracle-check", "--max-n", "3", "--trials", "2", "--seed", "7"]) == 2
    assert capsys.readouterr().out == "mismatches=11 graphs=11\n"


def test_oracle_graphs_are_built_one_at_a_time():
    graphs = _oracle_graphs(12, 100_000, 0)
    assert iter(graphs) is graphs
    assert next(graphs) == path_graph(1)


def test_oracle_check_rejects_large_max_n():
    assert main(["oracle-check", "--max-n", "20"]) == 1


@pytest.mark.parametrize("max_n", ["0", "-2", "13"])
def test_oracle_check_rejects_max_n_outside_range(max_n, capsys):
    assert main(["oracle-check", "--max-n", max_n, "--trials", "5"]) == 1
    assert capsys.readouterr().err == f"error: --max-n must be in 1..12, got {max_n}\n"


def test_oracle_check_full_range_graph_count(capsys):
    assert main(["oracle-check", "--max-n", "12", "--trials", "500", "--seed", "7"]) == 0
    assert capsys.readouterr().out == "mismatches=0 graphs=570\n"


def test_oracle_check_rejects_negative_trials(capsys):
    assert main(["oracle-check", "--max-n", "12", "--trials", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trials must be >= 0, got -5\n"


def test_oracle_check_zero_trials_checks_only_the_catalog(capsys):
    assert main(["oracle-check", "--max-n", "12", "--trials", "0"]) == 0
    assert capsys.readouterr().out == "mismatches=0 graphs=70\n"


@pytest.mark.parametrize("sample", ["0", "-1"])
@pytest.mark.parametrize("theorem", ["edge_add", "vertex_add_general"])
def test_verify_rejects_sample_below_one(theorem, sample, capsys):
    assert main(["verify", "--theorem", theorem, "--model", "gnp", "--n", "6",
                 "--p", "0.4", "--trials", "5", "--sample", sample]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sample must be >= 1, got {sample}\n"


def test_op_exits_2_on_a_bound_violation(tmp_path, capsys, monkeypatch):
    # C4 from P4 by edge_add has mp' = 4, outside ends set by hand to [5, 9]
    spec = bounds.THEOREMS["edge_add"]._replace(bounds=lambda mp, n, p, np_: (5, 9))
    monkeypatch.setitem(bounds.THEOREMS, "edge_add", spec)
    path = _write(tmp_path, "p4.txt", path_graph(4))
    out = tmp_path / "c4.txt"
    assert main(["op", path, "--op", "add-edge", "--u", "0", "--v", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().out == "3 -> 4, bounds [5, 9], FAIL\n"
    assert parse_edge_list_text(out.read_text()).m == 4


# one case per target kind: the flags of another kind are rejected before any solve
@pytest.mark.parametrize("flags, message", [
    (["--op", "add-edge", "--u", "0", "--v", "2", "--vertex", "3", "--neighbors", "1,2"],
     "--op add-edge does not take --vertex"),
    (["--op", "delete-vertex", "--vertex", "1", "--u", "0"],
     "--op delete-vertex does not take --u"),
    (["--op", "add-vertex", "--neighbors", "0,1", "--partner", "G"],
     "--op add-vertex does not take --partner"),
    (["--op", "join", "--partner", "G", "--v", "1"],
     "--op join does not take --v"),
], ids=["edge", "vertex", "neighbors", "partner"])
def test_op_rejects_target_flags_of_another_kind(tmp_path, capsys, flags, message):
    path = _write(tmp_path, "g.txt", path_graph(4))
    assert main(["op", path] + [path if a == "G" else a for a in flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _help(cmd, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_construct_help_names_every_catalog_parameter(capsys):
    out = _help("construct", capsys)
    for info in list_families():
        for name, _ in info.params:
            assert f"--{name} {name.upper()}" in out


def test_verify_help_names_every_theorem_model_and_model_flag(capsys):
    out = _help("verify", capsys)
    assert re.search(r"--theorem \{([^}]*)\}", out)[1].split(",") == list(bounds.THEOREMS)
    assert re.search(r"--model \{([^}]*)\}", out)[1].split(",") == list(bounds.MODELS)
    for cls in bounds.MODELS.values():
        for name in cls._fields:
            assert f"--{name} {name.upper()}" in out


def test_op_help_names_every_op_choice(capsys):
    out = _help("op", capsys)
    names = ["cartesian" if k == "cartesian-product" else k for k in OP_KINDS]
    assert re.search(r"--op \{([^}]*)\}", out)[1].split(",") == names


@pytest.mark.parametrize("argv, message", [
    (["verify", "--theorem", "bogus", "--model", "gnp"], "argument --theorem: invalid choice"),
    (["construct", "--n", "6"], "the following arguments are required: --family"),
    (["op", "G", "--op", "bogus"], "argument --op: invalid choice"),
], ids=["verify_theorem", "construct_family", "op"])
def test_a_bad_subcommand_flag_exits_1_with_one_error_line(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "g.txt", path_graph(3))
    assert main([path if a == "G" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
