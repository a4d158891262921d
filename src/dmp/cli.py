"""Command-line front end: solve, operate, construct, verify, oracle-check.

Exit codes: 0 success, 1 invalid input or flags, 2 verification mismatch or
bound violation, 3 solver budget exceeded.  The env var DMP_NODE_BUDGET, a
positive integer, overrides the solver's node budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import bounds, constructions, graph as gr, operations as ops
from .solver import ORACLE_MAX_N, BudgetExceededError, SearchLimits, mp_exact, mp_oracle


# --op names: the operation kinds, with cartesian-product spelled "cartesian"
_OP_NAMES = {("cartesian" if k == "cartesian-product" else k): k for k in ops.OP_KINDS}
# construct flags: the catalog's parameter names, in order of first appearance
_CATALOG_PARAMS = tuple(dict.fromkeys(
    name for info in constructions.list_families() for name, _ in info.params))
# verify model flags: every model's field names, in order of first appearance, with
# their types (bounds postpones annotations, so a field's type is its name)
_MODEL_FLAGS = {
    f.name: {"int": int, "float": float}[f.type]
    for cls in bounds.MODELS.values() for f in fields(cls)
}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on bad flags, not argparse's 2
        raise CliError(message)


def _limits() -> SearchLimits:
    raw = os.environ.get("DMP_NODE_BUDGET")
    if raw is None:
        return SearchLimits()
    try:
        return SearchLimits(node_budget=int(raw))
    except ValueError:  # not an integer, or below 1
        raise CliError(f"DMP_NODE_BUDGET must be a positive integer, got {raw!r}") from None


def _read_graph(path: str, fmt: str) -> gr.Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    if fmt == "edgelist":
        return gr.parse_edge_list_text(text)
    if fmt == "json":
        return gr.parse_json_text(text)
    return gr.parse_graph_text(text)


def _write_graph(g: gr.Graph, path: str, as_json: bool) -> None:
    text = gr.to_json_text(g) + "\n" if as_json else gr.to_edge_list_text(g)
    Path(path).write_text(text)


def _cmd_mp(args) -> int:
    g = _read_graph(args.input, args.format)
    res = mp_exact(g, _limits())
    print(f"mp={res.value}")
    if args.witness:
        print("witness=" + ",".join(str(v) for v in res.witness.vertices))
        print("direction=non-decreasing")
    return 0


def _parse_ids(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise CliError(f"expected comma-separated integers, got {raw!r}") from None


def _op_target(args, op: str):
    """The operation's target from the flags: an edge, a vertex, neighbors or a partner."""
    if op in ops.PARTNER_OPS:
        if args.partner is None:
            raise CliError(f"--op {args.op} needs --partner")
        return _read_graph(args.partner, args.format)
    if op == "add-vertex":
        if args.neighbors is None:
            raise CliError("--op add-vertex needs --neighbors")
        return _parse_ids(args.neighbors)
    if op == "delete-vertex":
        if args.vertex is None:
            raise CliError("--op delete-vertex needs --vertex")
        return args.vertex
    if args.u is None or args.v is None:
        raise CliError(f"--op {args.op} needs --u and --v")
    return (args.u, args.v)


def _cmd_op(args) -> int:
    g = _read_graph(args.input, args.format)
    op = _OP_NAMES[args.op]
    limits = _limits()
    target = _op_target(args, op)
    spec, reason = bounds.select_theorem(op, g, target)
    if spec is None:
        after = ops.apply(op, g, target)
        mp_before, mp_after = mp_exact(g, limits).value, mp_exact(after, limits).value
        print(f"{mp_before} -> {mp_after}, theorem inapplicable ({reason})")
    else:
        (rec,), (after,) = bounds._evaluate(spec, g, [target], limits)
        verdict = "pass" if rec.passed else "FAIL"
        print(f"{rec.mp_before} -> {rec.mp_after}, bounds [{rec.lower}, {rec.upper}], {verdict}")
    if args.out:
        _write_graph(after, args.out, args.json)
    return 0


def _cmd_construct(args) -> int:
    params = {n: getattr(args, n) for n in _CATALOG_PARAMS if getattr(args, n) is not None}
    inst = constructions.generate(args.family, params)
    if args.partner_out and not isinstance(inst.target, gr.Graph):
        raise CliError(f"family {inst.family} has no partner graph")
    g = inst.graph
    tgt = bounds.describe_target(inst.operation, inst.target)
    pstr = " ".join(f"{k}={v}" for k, v in sorted(inst.params.items()))
    print(
        f"family={inst.family} {pstr} n={g.n} m={g.m} "
        f"claimed {inst.claimed_mp_before} -> {inst.claimed_mp_after} "
        f"op={inst.operation} target={tgt}"
    )
    if args.out:
        _write_graph(g, args.out, args.json)
    if args.partner_out:
        _write_graph(inst.target, args.partner_out, args.json)
    return 0


def _make_model(args) -> bounds.Model:
    cls = bounds.MODELS[args.model]
    names = [f.name for f in fields(cls)]
    for flag in _MODEL_FLAGS:
        if flag not in names and getattr(args, flag) is not None:
            raise CliError(f"{args.model} model does not take --{flag}")
    values = [getattr(args, name) for name in names]
    if None in values:
        flags = [f"--{name}" for name in names]
        listed = flags[0] if len(flags) == 1 else ", ".join(flags[:-1]) + " and " + flags[-1]
        raise CliError(f"{args.model} model needs {listed}")
    return cls(*values)


def _cmd_verify(args) -> int:
    config = bounds.CampaignConfig(
        theorem=args.theorem,
        model=_make_model(args),
        trials=args.trials,
        seed=args.seed,
        target_policy=("sample", args.sample) if args.sample is not None else None,
    )
    try:
        records, summary = bounds.run_campaign(config, _limits(), jobs=args.jobs)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.report:
        Path(args.report).write_text(
            bounds.records_to_json(records, summary)
            if args.json
            else bounds.records_to_csv(records)
        )
    print(
        f"theorem={summary.theorem} model={config.model.describe()} "
        f"trials={summary.trials} records={summary.records} "
        f"failures={summary.failures} skips={summary.skipped_trials} "
        f"tight_low={summary.tight_low} tight_high={summary.tight_high}"
    )
    return 2 if summary.failures else 0


def _oracle_catalog(max_n: int) -> list[gr.Graph]:
    cat: list[gr.Graph] = []
    cat.extend(constructions.path_graph(n) for n in range(1, max_n + 1))
    cat.extend(constructions.cycle_graph(n) for n in range(3, max_n + 1))
    cat.extend(constructions.star_graph(m) for m in range(1, max_n))
    cat.extend(constructions.complete_graph(n) for n in range(1, max_n + 1))
    cat.extend(
        constructions.complete_bipartite_graph(a, b)
        for a in range(1, max_n)
        for b in range(a, max_n + 1 - a)
    )
    return cat


def _cmd_oracle_check(args) -> int:
    if not 1 <= args.max_n <= ORACLE_MAX_N:
        raise CliError(f"--max-n must be in 1..{ORACLE_MAX_N}, got {args.max_n}")
    if args.trials < 0:
        raise CliError(f"--trials must be >= 0, got {args.trials}")
    limits = _limits()
    graphs = _oracle_catalog(args.max_n)
    rng_n = min(args.max_n, 10)
    for t in range(args.trials):
        seed = bounds._trial_seed(args.seed, t)
        n = 1 + (seed % rng_n)
        p = 0.1 + 0.8 * ((seed >> 8) % 100) / 100.0
        graphs.append(bounds.random_graph(bounds.Gnp(n, p), seed))
    mismatches = 0
    for g in graphs:
        if mp_exact(g, limits).value != mp_oracle(g, args.max_n):
            mismatches += 1
    print(f"mismatches={mismatches} graphs={len(graphs)}")
    return 2 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="dmp", description="degree-monotone path toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_mp = sub.add_parser("mp", help="compute mp of a graph file")
    p_mp.add_argument("input")
    p_mp.add_argument("--format", choices=["auto", "edgelist", "json"], default="auto")
    p_mp.add_argument("--witness", action="store_true")

    p_op = sub.add_parser("op", help="apply an operation and report mp before/after")
    p_op.add_argument("input")
    p_op.add_argument("--op", required=True, choices=list(_OP_NAMES))
    p_op.add_argument("--format", choices=["auto", "edgelist", "json"], default="auto")
    p_op.add_argument("--u", type=int)
    p_op.add_argument("--v", type=int)
    p_op.add_argument("--vertex", type=int)
    p_op.add_argument("--neighbors")
    p_op.add_argument("--partner")
    p_op.add_argument("--out")
    p_op.add_argument("--json", action="store_true")

    p_con = sub.add_parser("construct", help="emit a catalog construction")
    p_con.add_argument("--family", required=True)
    for name in _CATALOG_PARAMS:
        p_con.add_argument(f"--{name}", type=int)
    p_con.add_argument("--out")
    p_con.add_argument("--partner-out")
    p_con.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="run a randomized bound campaign")
    p_ver.add_argument("--theorem", required=True, choices=list(bounds.THEOREM_IDS))
    p_ver.add_argument("--model", required=True, choices=list(bounds.MODELS))
    for name, type_ in _MODEL_FLAGS.items():
        p_ver.add_argument(f"--{name}", type=type_)
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--sample", type=int, help="check only this many targets per trial (>= 1)")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--report")
    p_ver.add_argument("--json", action="store_true")

    p_or = sub.add_parser("oracle-check", help="cross-check solver against the oracle")
    p_or.add_argument("--max-n", type=int, default=ORACLE_MAX_N)
    p_or.add_argument("--trials", type=int, default=500)
    p_or.add_argument("--seed", type=int, default=0)

    try:
        args = parser.parse_args(argv)
        handler = {
            "mp": _cmd_mp,
            "op": _cmd_op,
            "construct": _cmd_construct,
            "verify": _cmd_verify,
            "oracle-check": _cmd_oracle_check,
        }[args.cmd]
        return handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
