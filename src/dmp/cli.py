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
from collections.abc import Iterator
from pathlib import Path

# graph and the solver names only; a handler or a parser build imports the rest
from . import graph as gr
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


def _op_names() -> dict[str, str]:
    """--op names: the operation kinds, with cartesian-product spelled "cartesian"."""
    from .operations import OP_KINDS

    return {("cartesian" if k == "cartesian-product" else k): k for k in OP_KINDS}


def _catalog_params() -> tuple[str, ...]:
    """construct flags: the catalog's parameter names, in order of first appearance.
    They are read from the table and not through list_families(): each main() call
    builds its parser, and a catalog call there would count as catalog work."""
    from .constructions import _FAMILIES

    return tuple(dict.fromkeys(name for info in _FAMILIES.values() for name, _ in info.params))


def _model_flags() -> dict:
    """verify model flags: every model's field names, in order of first appearance, with
    the types its constructor declares (bounds postpones annotations, so a type is its
    name)."""
    from .bounds import MODELS

    return {name: {"int": _int, "float": _float}[cls.__init__.__annotations__[name]]
            for cls in MODELS.values() for name in cls._fields}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on bad flags, not argparse's 2.  A subcommand's parser adds its
    arguments with ``build(parser)`` when it first parses, so one command does not
    import what only another command's flags need."""

    def __init__(self, *args, build=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._build = build

    def parse_known_args(self, args=None, namespace=None):
        if self._build is not None:  # --help is parsed too, so it sees every argument
            build, self._build = self._build, None
            build(self)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
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
        text = Path(path).read_text(encoding="utf-8-sig")  # UTF-8, a leading BOM dropped
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


def _is_json(path: str) -> bool:
    """A file dmp writes is JSON when its name ends in .json, in any case."""
    return path.lower().endswith(".json")


def _write_graph(g: gr.Graph, path: str) -> None:
    _write_text(path, gr.to_json_text(g) + "\n" if _is_json(path) else gr.to_edge_list_text(g))


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


# per target kind (operations.target_kind): its flags with their types, and its target
_TARGET_FLAGS = {
    "edge": ({"u": _int, "v": _int}, lambda args: (args.u, args.v)),
    "vertex": ({"vertex": _int}, lambda args: args.vertex),
    "neighbors": ({"neighbors": str}, lambda args: _parse_ids(args.neighbors)),
    "partner": ({"partner": str}, lambda args: _read_graph(args.partner, "auto")),
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
    from .operations import target_kind

    flags, read = _TARGET_FLAGS[target_kind(op)]
    every = [f for kind_flags, _ in _TARGET_FLAGS.values() for f in kind_flags]
    _flag_values(args, flags, every, f"--op {args.op}")
    return read(args)


def _cmd_op(args) -> int:
    from . import bounds, operations as ops

    g = _read_graph(args.input, "auto")
    op = _op_names()[args.op]
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
        _write_graph(after, args.out)
    return status


def _cmd_construct(args) -> int:
    from . import constructions, operations as ops

    params = {n: getattr(args, n) for n in _catalog_params() if getattr(args, n) is not None}
    inst = constructions.generate(args.family, params)
    if args.partner_out and ops.target_kind(inst.operation) != "partner":
        raise ValueError(f"family {inst.family} has no partner graph")
    g = inst.graph
    tgt = ops.describe_target(inst.operation, inst.target)
    pstr = ";".join(f"{k}={v}" for k, v in sorted(inst.params.items()))
    print(
        f"family={inst.family}({pstr}) n={g.n} m={g.m} "
        f"claimed {inst.claimed_mp_before} -> {inst.claimed_mp_after} "
        f"op={inst.operation} target={tgt}"
    )
    if args.out:
        _write_graph(g, args.out)
    if args.partner_out:
        _write_graph(inst.target, args.partner_out)
    return 0


def _make_model(args):
    from .bounds import MODELS

    cls = MODELS[args.model]
    return cls(*_flag_values(args, cls._fields, _model_flags(), f"{args.model} model"))


def _cmd_verify(args) -> int:
    from . import bounds

    config = bounds.CampaignConfig(
        theorem=args.theorem,
        model=_make_model(args),
        trials=args.trials,
        seed=args.seed,
        target_policy=("sample", args.sample) if args.sample is not None else None,
    )
    records, summary = bounds.run_campaign(config, _limits(), jobs=args.jobs)
    if args.report:
        _write_text(args.report, bounds.records_to_json(records, summary)
                    if _is_json(args.report) else bounds.records_to_csv(records))
    print(
        f"theorem={summary.theorem} model={config.model.describe()} "
        f"trials={summary.trials} records={summary.records} "
        f"failures={summary.failures} skips={summary.skipped_trials} "
        f"tight_low={summary.tight_low} tight_high={summary.tight_high}"
    )
    return 2 if summary.failures else 0


def _oracle_graphs(max_n: int, trials: int, seed: int) -> Iterator[gr.Graph]:
    """The graphs oracle-check compares mp_exact with mp_oracle on, built one at a
    time: a fixed catalog of graphs on at most max_n vertices, then ``trials``
    seeded Gnp graphs."""
    from . import bounds, constructions

    yield from map(constructions.path_graph, range(1, max_n + 1))
    yield from map(constructions.cycle_graph, range(3, max_n + 1))
    yield from map(constructions.complete_graph, range(1, max_n + 1))
    for a in range(1, max_n):
        yield from (constructions.complete_bipartite_graph(a, b)
                    for b in range(a, max_n + 1 - a))
    for t in range(trials):
        tseed = bounds._trial_seed(seed, t)
        n = 1 + (tseed % min(max_n, 10))
        p = 0.1 + 0.8 * ((tseed >> 8) % 100) / 100.0
        yield bounds.random_graph(bounds.Gnp(n, p), tseed)


def _cmd_oracle_check(args) -> int:
    if not 1 <= args.max_n <= ORACLE_MAX_N:
        raise ValueError(f"--max-n must be in 1..{ORACLE_MAX_N}, got {args.max_n}")
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    limits = _limits()
    mismatches = graphs = 0
    for g in _oracle_graphs(args.max_n, args.trials, args.seed):
        graphs += 1
        if mp_exact(g, limits).value != mp_oracle(g):
            mismatches += 1
    print(f"mismatches={mismatches} graphs={graphs}")
    return 2 if mismatches else 0


def _mp_args(p: _Parser) -> None:
    p.add_argument("input")
    p.add_argument("--format", choices=["auto", "edgelist", "json"], default="auto")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--stats", action="store_true", help="print search statistics on stderr")


def _op_args(p: _Parser) -> None:
    p.add_argument("input")
    p.add_argument("--op", required=True, choices=list(_op_names()))
    for flags, _ in _TARGET_FLAGS.values():
        for name, type_ in flags.items():
            p.add_argument(f"--{name}", type=type_)
    p.add_argument("--out")


def _construct_args(p: _Parser) -> None:
    p.add_argument("--family", required=True)
    for name in _catalog_params():
        p.add_argument(f"--{name}", type=_int)
    p.add_argument("--out")
    p.add_argument("--partner-out")


def _verify_args(p: _Parser) -> None:
    from .bounds import MODELS, THEOREMS

    p.add_argument("--theorem", required=True, choices=list(THEOREMS))
    p.add_argument("--model", required=True, choices=list(MODELS))
    for name, type_ in _model_flags().items():
        p.add_argument(f"--{name}", type=type_)
    p.add_argument("--trials", type=_int, default=200)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--sample", type=_int, help="check only this many targets per trial (>= 1)")
    p.add_argument("--jobs", type=_int, default=1)
    p.add_argument("--report")


def _oracle_check_args(p: _Parser) -> None:
    p.add_argument("--max-n", type=_int, default=ORACLE_MAX_N)
    p.add_argument("--trials", type=_int, default=500)
    p.add_argument("--seed", type=_int, default=0)


# per subcommand: its help line, the function that adds its arguments, its handler
_COMMANDS = {
    "mp": ("compute mp of a graph file", _mp_args, _cmd_mp),
    "op": ("apply an operation and report mp before/after", _op_args, _cmd_op),
    "construct": ("emit a catalog construction", _construct_args, _cmd_construct),
    "verify": ("run a randomized bound campaign", _verify_args, _cmd_verify),
    "oracle-check": ("cross-check solver against the oracle", _oracle_check_args,
                     _cmd_oracle_check),
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="dmp", description="degree-monotone path toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_, build, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_, build=build)

    try:
        args = parser.parse_args(argv)
        paths = [p for n in ("out", "partner_out", "report") if (p := getattr(args, n, None))]
        if len({os.path.realpath(p) for p in paths}) < len(paths):
            raise ValueError(f"two outputs name the same file: {' and '.join(paths)}")
        for path in paths:  # an output that cannot be written fails before any work
            _check_writable(path)
        return _COMMANDS[args.cmd][2](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
