"""Command-line front end: solve, operate, construct, verify, oracle-check.

Exit codes: 0 success, 1 invalid input or flags, 2 verification mismatch or
bound violation, 3 solver budget exceeded.  The env var DMP_NODE_BUDGET, a
positive integer by the integer flags' rule, overrides the solver's node budget.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

from . import bounds, constructions, graph as gr, operations as ops
from .solver import ORACLE_MAX_N, BudgetExceededError, SearchLimits, mp_exact, mp_oracle


def _int(raw: str) -> int:
    """An integer flag value, by the graph readers' rule (see ``graph._INT``)."""
    if re.fullmatch(gr._INT, raw) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    return int(raw)


def _float(raw: str) -> float:
    """A float flag value: an optional '-', ASCII digits with at most one '.', and an
    optional exponent."""
    if re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?", raw) is None:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}")
    return float(raw)


# --op names: the operation kinds, with cartesian-product spelled "cartesian"
_OP_NAMES = {("cartesian" if k == "cartesian-product" else k): k for k in ops.OP_KINDS}
# construct flags: the catalog's parameter names, in order of first appearance
_CATALOG_PARAMS = tuple(dict.fromkeys(
    name for info in constructions.list_families() for name, _ in info.params))
# verify model flags: every model's field names, in order of first appearance, with
# their types (bounds postpones annotations, so a field's type is its name)
_MODEL_FLAGS = {
    f.name: {"int": _int, "float": _float}[f.type]
    for cls in bounds.MODELS.values() for f in fields(cls)
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on bad flags, not argparse's 2
        raise ValueError(message)


def _limits() -> SearchLimits:
    raw = os.environ.get("DMP_NODE_BUDGET")
    if raw is None:
        return SearchLimits()
    try:
        return SearchLimits(node_budget=_int(raw))
    except (argparse.ArgumentTypeError, ValueError):  # not an integer, or below 1
        raise ValueError(f"DMP_NODE_BUDGET must be a positive integer, got {raw!r}") from None


def _read_graph(path: str, fmt: str) -> gr.Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if fmt == "edgelist":
        return gr.parse_edge_list_text(text)
    if fmt == "json":
        return gr.parse_json_text(text)
    return gr.parse_graph_text(text)


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Raise _write_text's error now if ``path`` cannot be written; create nothing."""
    target = Path(path)
    existed = target.exists()
    try:
        target.open("a").close()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
    if not existed:
        target.unlink()


def _write_graph(g: gr.Graph, path: str, as_json: bool) -> None:
    _write_text(path, gr.to_json_text(g) + "\n" if as_json else gr.to_edge_list_text(g))


def _cmd_mp(args) -> int:
    g = _read_graph(args.input, args.format)
    res = mp_exact(g, _limits())
    print(f"mp={res.value}")
    if args.witness:
        print("witness=" + ",".join(str(v) for v in res.witness.vertices))
        print("direction=non-decreasing")
    if args.stats:
        st = res.stats
        print(f"nodes={st.nodes} components={st.components} "
              f"largest_component={st.largest_component} seconds={st.seconds:.6f}",
              file=sys.stderr)
    return 0


def _parse_ids(raw: str) -> tuple[int, ...]:
    try:
        return tuple(_int(x) for x in raw.split(","))
    except argparse.ArgumentTypeError:
        raise ValueError(f"expected comma-separated integers, got {raw!r}") from None


# per target kind (operations.target_kind): its flags, and the target they give
_TARGET_FLAGS = {
    "edge": (("u", "v"), lambda args: (args.u, args.v)),
    "vertex": (("vertex",), lambda args: args.vertex),
    "neighbors": (("neighbors",), lambda args: _parse_ids(args.neighbors)),
    "partner": (("partner",), lambda args: _read_graph(args.partner, args.format)),
}


def _flag_values(args, flags, every, owner: str) -> list:
    """The values of ``flags``, the flags ``owner`` takes: a flag among ``every`` that it
    does not take is rejected first, then the missing ones are named."""
    for flag in every:
        if flag not in flags and getattr(args, flag) is not None:
            raise ValueError(f"{owner} does not take --{flag}")
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        *rest, last = [f"--{flag}" for flag in flags]
        raise ValueError(f"{owner} needs " + (f"{', '.join(rest)} and {last}" if rest else last))
    return values


def _op_target(args, op: str):
    """The operation's target, from the flags of its target kind."""
    flags, read = _TARGET_FLAGS[ops.target_kind(op)]
    every = [f for kind_flags, _ in _TARGET_FLAGS.values() for f in kind_flags]
    _flag_values(args, flags, every, f"--op {args.op}")
    return read(args)


def _cmd_op(args) -> int:
    g = _read_graph(args.input, args.format)
    op = _OP_NAMES[args.op]
    limits = _limits()
    target = _op_target(args, op)
    spec, reason = bounds.select_theorem(op, g, target)
    status = 0
    if spec is None:
        after = ops.apply(op, g, target)
        mp_before, mp_after = mp_exact(g, limits).value, mp_exact(after, limits).value
        print(f"{mp_before} -> {mp_after}, theorem inapplicable ({reason})")
    else:
        (rec,), (after,) = bounds._evaluate(spec, g, [target], limits)
        verdict, status = ("pass", 0) if rec.passed else ("FAIL", 2)
        print(f"{rec.mp_before} -> {rec.mp_after}, bounds [{rec.lower}, {rec.upper}], {verdict}")
    if args.out:
        _write_graph(after, args.out, args.json)
    return status


def _cmd_construct(args) -> int:
    params = {n: getattr(args, n) for n in _CATALOG_PARAMS if getattr(args, n) is not None}
    inst = constructions.generate(args.family, params)
    if args.partner_out and ops.target_kind(inst.operation) != "partner":
        raise ValueError(f"family {inst.family} has no partner graph")
    g = inst.graph
    tgt = ops.describe_target(inst.operation, inst.target)
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
    return cls(*_flag_values(args, names, _MODEL_FLAGS, f"{args.model} model"))


def _cmd_verify(args) -> int:
    config = bounds.CampaignConfig(
        theorem=args.theorem,
        model=_make_model(args),
        trials=args.trials,
        seed=args.seed,
        target_policy=("sample", args.sample) if args.sample is not None else None,
    )
    if args.report:  # a report that cannot be written fails before the first trial
        _check_writable(args.report)
    records, summary = bounds.run_campaign(config, _limits(), jobs=args.jobs)
    if args.report:
        _write_text(
            args.report,
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


def _oracle_graphs(max_n: int, trials: int, seed: int) -> list[gr.Graph]:
    """The graphs oracle-check compares mp_exact with mp_oracle on: a fixed catalog
    of graphs on at most max_n vertices, then ``trials`` seeded Gnp graphs."""
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
    for t in range(trials):
        tseed = bounds._trial_seed(seed, t)
        n = 1 + (tseed % min(max_n, 10))
        p = 0.1 + 0.8 * ((tseed >> 8) % 100) / 100.0
        cat.append(bounds.random_graph(bounds.Gnp(n, p), tseed))
    return cat


def _cmd_oracle_check(args) -> int:
    if not 1 <= args.max_n <= ORACLE_MAX_N:
        raise ValueError(f"--max-n must be in 1..{ORACLE_MAX_N}, got {args.max_n}")
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    limits = _limits()
    graphs = _oracle_graphs(args.max_n, args.trials, args.seed)
    mismatches = 0
    for g in graphs:
        if mp_exact(g, limits).value != mp_oracle(g):
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
    p_mp.add_argument("--stats", action="store_true", help="print search statistics on stderr")

    p_op = sub.add_parser("op", help="apply an operation and report mp before/after")
    p_op.add_argument("input")
    p_op.add_argument("--op", required=True, choices=list(_OP_NAMES))
    p_op.add_argument("--format", choices=["auto", "edgelist", "json"], default="auto")
    p_op.add_argument("--u", type=_int)
    p_op.add_argument("--v", type=_int)
    p_op.add_argument("--vertex", type=_int)
    p_op.add_argument("--neighbors")
    p_op.add_argument("--partner")
    p_op.add_argument("--out")
    p_op.add_argument("--json", action="store_true")

    p_con = sub.add_parser("construct", help="emit a catalog construction")
    p_con.add_argument("--family", required=True)
    for name in _CATALOG_PARAMS:
        p_con.add_argument(f"--{name}", type=_int)
    p_con.add_argument("--out")
    p_con.add_argument("--partner-out")
    p_con.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="run a randomized bound campaign")
    p_ver.add_argument("--theorem", required=True, choices=list(bounds.THEOREMS))
    p_ver.add_argument("--model", required=True, choices=list(bounds.MODELS))
    for name, type_ in _MODEL_FLAGS.items():
        p_ver.add_argument(f"--{name}", type=type_)
    p_ver.add_argument("--trials", type=_int, default=200)
    p_ver.add_argument("--seed", type=_int, default=0)
    p_ver.add_argument("--sample", type=_int, help="check only this many targets per trial (>= 1)")
    p_ver.add_argument("--jobs", type=_int, default=1)
    p_ver.add_argument("--report")
    p_ver.add_argument("--json", action="store_true")

    p_or = sub.add_parser("oracle-check", help="cross-check solver against the oracle")
    p_or.add_argument("--max-n", type=_int, default=ORACLE_MAX_N)
    p_or.add_argument("--trials", type=_int, default=500)
    p_or.add_argument("--seed", type=_int, default=0)

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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
