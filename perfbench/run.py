"""Benchmark for dmp: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve|campaign|cli --seed N --seconds S --trace 0|1 [--quick]

The program is imported from ``src/`` of the checkout and driven only through
its public functions and its CLI.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; lines
before it describe the environment and the workload-specific results.  Full
results (and, with ``--trace 1``, every span) are written to
``.perfbench_out/``.  Exit code 0 means the run completed; ``correct`` says
whether every output passed its check.  Without ``src/dmp`` the benchmark
exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from inputs import SOLVE_CLASSES
from spans import Tracer
from workloads import WORKLOADS, Run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# name -> unit; every workload emits every end-to-end metric
END_TO_END = {
    "batch_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "solver.s": "s",
    **{f"solver.s.{c}": "s" for c in SOLVE_CLASSES},
    "solver.calls": "count",
    "solver.distinct_share": "share",
    "solver.failed": "count",
    "operations.calls": "count",
    "operations.s": "s",
    "operations.edges_in": "count",
    "graph.build_calls": "count",
    "graph.build_s": "s",
    "graph.predicates_s": "s",
    "graph.parse_s": "s",
    "graph.parse_bytes": "bytes",
    "graph.serialize_s": "s",
    "bounds.checks": "count",
    "bounds.check_self_s": "s",
    "bounds.random_graph_s": "s",
    "bounds.skipped_trials": "count",
    "bounds.jobs2_speedup": "ratio",
    "constructions.calls": "count",
    "constructions.s": "s",
    "cli.startup_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_share": "share",
}


def _load_program():
    """Import dmp from this checkout's src/, or exit 1 if it is not there."""
    src = ROOT / "src"
    if not (src / "dmp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'dmp'}; run from a dmp checkout")
    sys.path.insert(0, str(src))
    import dmp

    if Path(dmp.__file__).resolve().parent != (src / "dmp").resolve():
        sys.exit(f"perfbench: imported dmp from {dmp.__file__}, not from {src}")
    names = ("graph", "solver", "operations", "constructions", "bounds", "cli")
    modules = {n: importlib.import_module(f"dmp.{n}") for n in names}
    return dmp, modules


def _environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dmp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["solve", "campaign", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and one round, for checking the benchmark itself")
    args = parser.parse_args(argv)

    dmp, modules = _load_program()
    expected = json.loads((HERE / "expected.json").read_text())
    env = _environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    run = Run(dmp, modules, args.seed, 0.0 if args.quick else args.seconds, args.quick,
              expected, ROOT, workdir, tracer)
    try:
        outcome = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    known = {f"{f['kind']}: {f['operation']}" for f in expected["known_failures"]
             if f["workload"] == args.workload}
    table = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.e2e
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in table.items()}
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": sum(outcome.failures.values()),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "quick": args.quick,
        **outcome.detail,
        "failures_by_kind": dict(outcome.failures),
        "failed_operations": dict(outcome.failed_ops),
        "unexpected_failures": sorted(set(outcome.failed_ops) - known),
        "known_failures_not_seen": sorted(known - set(outcome.failed_ops)),
        "errors": outcome.errors,
    }
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"environment": env, "detail": detail, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(f"{stem}-spans.json")
    for message in outcome.errors[:20]:
        print(f"perfbench: incorrect: {message}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
