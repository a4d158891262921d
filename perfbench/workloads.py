"""The three workloads: `solve`, `campaign` and `cli`.

Each is a closed loop from one process: the next call starts only when the
previous one has returned.  A workload sets up its inputs several times
(reporting the median), measures rounds of its batch until another round
would overrun the run's seconds, then checks every output.  A traced run
instead runs each operation untraced and then at once traced, so that both
halves of a pair see the same machine speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import inputs
from spans import Tracer, layer_metrics
from speed import Clock

SETUP_REPEATS = 11
CMD_TIMEOUT_S = 150


@dataclass
class Run:
    """What a workload is given: the program, the seed and where to work."""
    dmp: object
    modules: dict  # dmp submodules by name, for the tracer
    seed: int
    seconds: float
    quick: bool
    expected: dict
    root: Path
    workdir: Path
    tracer: Tracer | None = None
    clock: Clock = field(default_factory=Clock)


@dataclass
class Outcome:
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0  # operations in the batch, each counted once however many rounds
    failures: Counter = field(default_factory=Counter)  # kind -> count
    failed_ops: Counter = field(default_factory=Counter)  # "kind: operation" -> count
    errors: list[str] = field(default_factory=list)  # correctness mismatches
    detail: dict = field(default_factory=dict)

    def fail(self, kind: str, what: str) -> None:
        self.failures[kind] += 1
        self.failed_ops[f"{kind}: {what}"] += 1

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _median_setup(run: Run, build):
    """Median rescaled time of repeated set-ups, and the last one's result."""
    times, value = [], None
    for _ in range(SETUP_REPEATS):
        scale = run.clock.scale()
        t0 = time.perf_counter()
        value = build()
        times.append((time.perf_counter() - t0) * scale)
    return statistics.median(times), value


def _rounds(seconds: float, run_round) -> list:
    """Run rounds until another one as long as the last would overrun."""
    start, out = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        out.append(run_round())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return out


def _best(rounds, at: int = 0) -> float:
    """The batch's time with each operation at its best over the rounds.

    Each round is a list of tuples per operation, seconds at index ``at``.  An
    operation's minimum over repetitions (the timeit convention) is steadier
    than a round's total.
    """
    return sum(min(op[at] for op in ops) for ops in zip(*rounds))


def _rescaled(run: Run, measure):
    """``measure`` with its seconds rescaled by the clock; raw seconds go last."""
    def timed(*args):
        scale = run.clock.scale()
        m = measure(*args)
        return (m[0] * scale, *m[1:], m[0])
    return timed


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the largest child
    return (own + kids) / 1024.0  # Linux reports KiB


def _e2e(out: Outcome, run: Run, rounds, setup_s: float) -> float:
    """Fill the end-to-end metrics from untraced rounds; return batch_s."""
    batch_s = _best(rounds)
    out.e2e = {"batch_s": batch_s, "peak_rss_mb": _peak_rss_mb(), "setup_s": setup_s}
    out.detail.update(batch_wall_s=_best(rounds, -1),
                      reference_ms_median=statistics.median(run.clock.samples) * 1e3)
    return batch_s


def _paired(run: Run, ops, measure) -> tuple[list, list]:
    """Measure each operation untraced, then at once under the tracer."""
    plain, traced = [], []
    for op in ops:
        plain.append(measure(op))
        run.tracer.install(run.modules)
        try:
            traced.append(measure(op))
        finally:
            run.tracer.uninstall()
    return plain, traced


def _span(run: Run, name: str):
    """A request span, recorded only while the tracer is installed."""
    if run.tracer is not None and run.tracer.installed:
        return run.tracer.span(name)
    return contextlib.nullcontext()


def _overhead(plain, traced) -> float:
    return sum(t[0] for t in traced) / sum(p[0] for p in plain) - 1.0


def _certifies(dmp, g, witness, value: int) -> bool:
    """True iff ``witness`` is a degree-monotone path of ``value`` vertices in g."""
    try:
        return len(witness) == value and dmp.is_degree_monotone(g, witness)
    except ValueError:  # empty, repeated or out-of-range vertices
        return False


# solve ------------------------------------------------------------------------

def solve(run: Run) -> Outcome:
    dmp, out = run.dmp, Outcome()
    setup_s, suite = _median_setup(run, lambda: inputs.solve_suite(dmp, run.seed, run.quick))

    def measure(inst):
        t0 = time.perf_counter()
        with _span(run, f"solve.{inst.cls}"):
            try:
                res = dmp.solver.mp_exact(inst.graph, inst.limits)
            except (RecursionError, dmp.BudgetExceededError) as exc:
                res = exc
        return time.perf_counter() - t0, res

    if run.tracer is None:
        timed = _rescaled(run, measure)
        rounds = _rounds(run.seconds, lambda: [timed(inst) for inst in suite])
        solve_s = _e2e(out, run, rounds, setup_s)
    else:
        rounds = list(_paired(run, suite, measure))
        solve_s = sum(t for t, _ in rounds[0])
        out.layers = layer_metrics(run.tracer, inputs.SOLVE_CLASSES)
        out.layers["trace.overhead_share"] = _overhead(*rounds)

    first = [m[1] for m in rounds[0]]
    out.attempted = len(suite)
    for inst, res in zip(suite, first):
        if isinstance(res, Exception):
            out.fail(type(res).__name__, f"{inst.cls}/{inst.label}")
        else:
            _check_solve(dmp, out, inst, res, run.expected["pinned_mp"])
    for ops in rounds[1:]:
        for inst, (_, res, *_), was in zip(suite, ops, first):
            out.check(_solve_outcome(res) == _solve_outcome(was),
                      f"{inst.cls}/{inst.label}: outcome changed between rounds")

    per_class: Counter[str] = Counter()
    for inst, m in zip(suite, rounds[0]):
        per_class[inst.cls] += m[0]
    out.detail.update(solve_s=solve_s, class_s=dict(per_class), instances=len(suite),
                      rounds=len(rounds))
    return out


def _solve_outcome(res):
    return type(res).__name__ if isinstance(res, Exception) else res.value


def _check_solve(dmp, out: Outcome, inst, res, pinned: dict) -> None:
    name = f"{inst.cls}/{inst.label}"
    out.check(_certifies(dmp, inst.graph, res.witness.vertices, res.value),
              f"{name}: witness does not certify mp {res.value}")
    want = pinned.get(name)
    out.check(want is None or res.value == want, f"{name}: mp {res.value}, pinned {want}")
    if inst.cls == "two_cubic":  # mp of a disjoint union is the larger part's mp
        want = max(dmp.mp_exact(p).value for p in inst.parts)
        out.check(res.value == want, f"{name}: mp {res.value}, parts give {want}")
    if inst.cls == "product_trees":  # cartesian_product theorem, connected factors
        a, b = (dmp.mp_exact(p).value for p in inst.parts)
        out.check(a + b - 1 <= res.value <= a * b,
                  f"{name}: mp {res.value} outside [{a + b - 1}, {a * b}]")


# campaign ---------------------------------------------------------------------

def campaign(run: Run) -> Outcome:
    dmp, out = run.dmp, Outcome()

    def setup():
        configs = inputs.campaign_mix(dmp, run.seed, run.quick)
        # warm-up: first-call imports and a pool start happen here, not in a round
        for c in configs:
            dmp.bounds.run_campaign(replace(c, trials=2))
        dmp.bounds.run_campaign(replace(configs[0], trials=2), jobs=2)
        return configs

    setup_s, configs = _median_setup(run, setup)

    def measure(c, jobs=1):
        """(seconds, CSV digest, summary, failure kind) of one campaign."""
        t0 = time.perf_counter()
        with _span(run, f"campaign.{c.theorem}"):
            try:
                records, summary = dmp.bounds.run_campaign(c, jobs=jobs)
            except (RecursionError, dmp.BudgetExceededError) as exc:
                return time.perf_counter() - t0, None, None, type(exc).__name__
        seconds = time.perf_counter() - t0
        out.check(summary.failures == 0 and all(r.passed for r in records),
                  f"bound violation in {c.theorem} (jobs={jobs})")
        digest = hashlib.sha256(dmp.bounds.records_to_csv(records).encode()).hexdigest()
        return seconds, digest, summary, None

    if run.tracer is None:
        timed = _rescaled(run, measure)
        rounds = _rounds(run.seconds, lambda: [timed(c, jobs) for jobs in (1, 2) for c in configs])
        _e2e(out, run, rounds, setup_s)
        n = len(configs)
        serial_s, jobs2_s = _best(r[:n] for r in rounds), _best(r[n:] for r in rounds)
        passes = [p for r in rounds for p in (r[:n], r[n:])]
    else:
        # pool workers are not traced: only the serial pass runs under the tracer
        serial, traced = _paired(run, configs, measure)
        jobs2 = [measure(c, 2) for c in configs]
        serial_s, jobs2_s = sum(m[0] for m in serial), sum(m[0] for m in jobs2)
        out.layers = layer_metrics(run.tracer, inputs.SOLVE_CLASSES)
        out.layers["bounds.skipped_trials"] = sum(m[2].skipped_trials for m in traced if m[2])
        out.layers["bounds.jobs2_speedup"] = serial_s / jobs2_s
        out.layers["trace.overhead_share"] = _overhead(serial, traced)
        passes = [serial, jobs2, traced]

    digests = [m[1] for m in passes[0]]
    for jobs, p in enumerate(passes[:2], 1):
        out.attempted += len(p)
        for c, m in zip(configs, p):
            if m[3]:
                out.fail(m[3], f"{c.theorem} (jobs={jobs})")
    for p in passes:  # a failed campaign has no digest, so its outcome is compared too
        out.check([m[1] for m in p] == digests,
                  "CSV reports differ between passes (serial, jobs=2, rounds)")
    records = sum(m[2].records for m in passes[0] if m[2])
    out.detail.update(
        campaign_records_per_s=records / serial_s, campaign_jobs2_records_per_s=records / jobs2_s,
        records_per_pass=records, passes=len(passes),
        note="pool workers are untraced: the jobs=2 pass gives end-to-end numbers only")
    return out


# cli --------------------------------------------------------------------------

def _argv(cmd, directory: Path) -> list[str]:
    return [a.replace("{dir}", str(directory)) for a in cmd.argv]


def cli(run: Run) -> Outcome:
    dmp, out = run.dmp, Outcome()
    sub, ref = run.workdir / "sub", run.workdir / "ref"  # subprocess / in-process outputs

    def setup():
        for d in (sub, ref):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        cmds = inputs.cli_batch(dmp, run.seed, sub, run.quick)
        for f in sub.iterdir():
            shutil.copyfile(f, ref / f.name)
        return cmds

    setup_s, cmds = _median_setup(run, setup)
    env = dict(os.environ, PYTHONPATH="src")

    def spawn(cmd):
        """(seconds, exit code, stdout, stderr) of one `python -m dmp.cli` run."""
        t0 = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, "-m", "dmp.cli", *_argv(cmd, sub)], cwd=run.root,
                               env=env, capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # the child is killed and waited for
            return time.perf_counter() - t0, "timeout", "", ""
        return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr

    def in_process(cmd):
        """(seconds, exit code, stdout) of the same command through dmp.cli.main."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with _span(run, f"cli.{cmd.argv[0]}"):
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = dmp.cli.main(_argv(cmd, ref))
        return time.perf_counter() - t0, code, buf.getvalue()

    if run.tracer is None:
        timed = _rescaled(run, spawn)
        rounds = _rounds(run.seconds, lambda: [timed(cmd) for cmd in cmds])
        cli_s = _e2e(out, run, rounds, setup_s)
        local = [in_process(cmd) for cmd in cmds]
    else:
        rounds = [[spawn(cmd) for cmd in cmds]]
        cli_s = sum(r[0] for r in rounds[0])
        local, traced = _paired(run, cmds, in_process)
        main_ms = [m[0] * 1e3 for m in local]
        out.layers = layer_metrics(run.tracer, inputs.SOLVE_CLASSES)
        out.layers["cli.main_ms"] = statistics.median(main_ms)
        out.layers["cli.startup_ms"] = statistics.median(
            r[0] * 1e3 - m for r, m in zip(rounds[0], main_ms))
        out.layers["trace.overhead_share"] = _overhead(local, traced)

    out.attempted = len(cmds)
    for i, runs in enumerate(rounds):
        for cmd, (_, code, stdout, stderr, *_), (_, lcode, lout) in zip(cmds, runs, local):
            what = " ".join(cmd.argv)
            if code in (3, "timeout"):
                if i == 0:
                    out.fail("exit3" if code == 3 else "timeout", what)
                else:
                    out.check(False, f"`{what}`: {code} in a later round only")
                continue
            out.check(code == 0, f"exit {code} from `{what}`: {stderr.strip()[-300:]}")
            out.check((code, stdout) == (lcode, lout), f"`{what}` differs from in-process main")
            _check_cli_output(dmp, out, cmd, stdout)
        big = {r[2] for cmd, r in zip(cmds, runs) if cmd.part == "bigfile" and cmd.kind == "mp"}
        out.check(len(big) == 1, "edge-list and JSON forms of one tree give different mp")
    _check_files(out, sub, ref)

    lat = [r[0] * 1e3 for runs in rounds for r in runs]
    out.detail.update(cli_s=cli_s, cli_p50_ms=statistics.median(lat),
                      cli_p90_ms=statistics.quantiles(lat, n=10, method="inclusive")[-1],
                      commands=len(cmds), latency_samples=len(lat), rounds=len(rounds))
    return out


def _ints(text: str) -> tuple[int, ...] | None:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        return None


def _check_cli_output(dmp, out: Outcome, cmd, stdout: str) -> None:
    what, inst = " ".join(cmd.argv), cmd.inst
    if cmd.part != "catalog":
        out.check("FAIL" not in stdout and (cmd.kind != "verify" or "failures=0 " in stdout),
                  f"`{what}`: {stdout.strip()!r}")
    elif cmd.kind == "construct":
        out.check(f"claimed {inst.claimed_mp_before} -> {inst.claimed_mp_after} " in stdout,
                  f"`{what}`: claims differ from generate()")
    elif cmd.kind == "mp":
        fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        value = (_ints(fields.get("mp", "")) or (-1,))[0]
        witness = _ints(fields.get("witness", "")) or ()
        out.check(value == inst.claimed_mp_before,
                  f"`{what}`: mp {value}, claimed {inst.claimed_mp_before}")
        out.check(_certifies(dmp, inst.graph, witness, value),
                  f"`{what}`: witness does not certify mp {value}")
    else:
        out.check(stdout.startswith(f"{inst.claimed_mp_before} -> {inst.claimed_mp_after},")
                  and "FAIL" not in stdout, f"`{what}`: {stdout.strip()!r} disagrees with the claim")


def _check_files(out: Outcome, sub: Path, ref: Path) -> None:
    names = sorted(p.name for p in sub.iterdir())
    out.check(names == sorted(p.name for p in ref.iterdir()),
              "subprocess and in-process runs wrote different files")
    for name in names:
        out.check((sub / name).read_bytes() == (ref / name).read_bytes(),
                  f"{name}: subprocess output differs from in-process output")
    reports = [sub / "verify-1.csv", sub / "verify-2.csv"]
    out.check(all(p.exists() for p in reports) and reports[0].read_bytes() == reports[1].read_bytes(),
              "serial and --jobs 2 verify reports differ")


WORKLOADS = {"solve": solve, "campaign": campaign, "cli": cli}
