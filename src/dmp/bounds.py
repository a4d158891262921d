"""Machine-checkable bound theorems and randomized verification campaigns.

Each TheoremSpec pins one proven inequality relating mp before and after an
operation.  Bounds are exact rationals: a check passes iff
lower <= mp_after <= upper, and tightness flags record equality with either
end.  Since mp_after is an integer, each trial compares it with ceil(lower)
and floor(upper), with no Fraction arithmetic per record.  All bound
violations indicate an implementation defect, since the inequalities are
proven.

A campaign draws graphs from a random model, one row of ``MODELS`` per
model, and checks in each graph the targets its theorem row's ``targets``
field lists; ``RandomTree`` decodes a Pruefer sequence in linear time
straight into the adjacency, with no list per vertex.  Records and summaries
are NamedTuple rows whose fields are the report columns, except that the
field ``passed`` is the column ``pass``, a Python keyword.  Every record of a
trial shares the trial's two ends, so the summary takes each trial's least
slacks once, from its extreme mp_after.
``check_bound`` and ``select_theorem`` check a target's shape before any hypothesis.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil, floor
from typing import ClassVar, NamedTuple

from .graph import Graph, _Frozen, from_edge_list, is_connected, is_tree, is_triangle_free
from . import operations as ops
from .solver import SearchLimits, mp_exact


class PreconditionError(ValueError):
    """The theorem's precondition does not hold for the given graph/target."""


class TheoremSpec(NamedTuple):
    """One proven bound: mp after ``operation`` lies in [lower, upper].

    ``hypothesis(g, targets)`` takes a tuple of targets and returns the first
    reason the theorem does not apply to one of them, or None when it applies
    to all; checks of ``g`` alone run once, however many targets there are.
    ``bounds(mp_before, n_before, mp_partner, n_partner)`` returns the
    interval's two ends (lower, upper), each an int or a Fraction; the
    partner's mp and n are None unless the theorem ``needs_partner``, as its
    operation's target kind says.  ``targets(g, rng, sample, model)`` lists
    the targets one campaign trial checks in ``g``: all of them, or ``sample``
    drawn with ``rng``; for a partner theorem, one partner graph drawn from
    ``model`` with ``rng``.  The field ``model`` names the only model a
    campaign may draw from, if any.
    """

    id: str
    operation: str
    hypothesis: Callable[[Graph, tuple], str | None]
    bounds: Callable[[int, int, int | None, int | None], tuple]
    targets: Callable[[Graph, random.Random, int | None, Model], list]
    model: str | None = None

    @property
    def needs_partner(self) -> bool:
        return ops.target_kind(self.operation) == "partner"


def _holds(g: Graph, targets: tuple) -> None:
    return None


def _triangle_free(g: Graph, targets: tuple) -> str | None:
    return None if is_triangle_free(g) else "graph not triangle-free"


# is_tree raises on the empty graph; there the operation rejects the target
def _tree_leaf_added(g: Graph, targets: tuple) -> str | None:
    if not (g.n and is_tree(g)):
        return "graph not a tree"
    if any(len(neighbors) != 1 for neighbors in targets):
        return "new vertex is not a leaf"
    return None


def _tree_leaf_deleted(g: Graph, targets: tuple) -> str | None:
    if not (g.n and is_tree(g)):
        return "graph not a tree"
    for v in targets:
        if g.degree(v) != 1:
            return f"vertex {v} is not a leaf"
    return None


def _both_connected(g: Graph, partners: tuple) -> str | None:
    if g.n and is_connected(g) and all(h.n and is_connected(h) for h in partners):
        return None
    return "operands not both connected"


def _each(domain: Callable[[Graph], list]):
    """Targets: every one in domain(g), or ``sample`` of them in domain order."""
    def targets(g: Graph, rng: random.Random, sample: int | None, model: Model) -> list:
        cands = domain(g)
        if sample is None:
            return cands
        return [cands[i] for i in sorted(rng.sample(range(len(cands)), min(sample, len(cands))))]
    return targets


def _neighbor_sets(g: Graph, rng: random.Random, sample: int | None, model: Model) -> list:
    """``sample or 1`` random neighbor sets of 1..8 vertices: all subsets are too many."""
    sets = []
    for _ in range(sample or 1):
        size = rng.randint(1, min(g.n, 8))
        sets.append(tuple(sorted(rng.sample(range(g.n), size))))
    return sets


def _partner(g: Graph, rng: random.Random, sample: int | None, model: Model) -> list:
    """One partner graph from the model, drawn apart from every trial's graph."""
    return [random_graph(model, rng.getrandbits(63))]


def _non_edges(g: Graph) -> list:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


# One row per theorem.  For an operation, the first row whose hypothesis
# holds is the most specific theorem, so the tree rows precede the general
# vertex rows.
THEOREMS: dict[str, TheoremSpec] = {spec.id: spec for spec in (
    TheoremSpec("edge_add", "add-edge", _holds,
                lambda mp, n, p, np_: (Fraction(mp + 1, 3), 3 * mp), _each(_non_edges)),
    TheoremSpec("edge_delete", "delete-edge", _holds,
                lambda mp, n, p, np_: (Fraction(mp, 3), 3 * mp - 1), _each(Graph.edges)),
    TheoremSpec("subdivision", "subdivide", _holds,
                lambda mp, n, p, np_: ((mp + 2) // 2, mp + 1), _each(Graph.edges)),
    TheoremSpec("contraction_triangle_free", "contract", _triangle_free,
                lambda mp, n, p, np_: (Fraction(mp, 3), 2 * mp), _each(Graph.edges)),
    TheoremSpec("tree_leaf_add", "add-vertex", _tree_leaf_added,
                lambda mp, n, p, np_: (Fraction(mp, 2), 2 * mp),
                _each(lambda g: [(v,) for v in range(g.n)]), model="random_tree"),
    TheoremSpec("tree_leaf_delete", "delete-vertex", _tree_leaf_deleted,
                lambda mp, n, p, np_: (Fraction(mp, 2), 2 * mp),
                _each(lambda g: [v for v in range(g.n) if g.degree(v) == 1]),
                model="random_tree"),
    TheoremSpec("vertex_add_general", "add-vertex", _holds,
                lambda mp, n, p, np_: (2, n + 1), _neighbor_sets),
    TheoremSpec("vertex_delete_general", "delete-vertex", _holds,
                lambda mp, n, p, np_: (1, n - 1),
                _each(lambda g: list(range(g.n)) if g.n >= 2 else [])),
    TheoremSpec("cartesian_product", "cartesian-product", _both_connected,
                lambda mp, n, p, np_: (mp + p - 1, mp * p), _partner),
    TheoremSpec("join", "join", _holds, lambda mp, n, p, np_: (mp + p, n + np_), _partner),
)}


def select_theorem(operation: str, g: Graph, target) -> tuple[TheoremSpec | None, str | None]:
    """The most specific theorem for the operation, or None and the reason none applies."""
    ops.check_shape(operation, target)
    reason = None
    for spec in THEOREMS.values():
        if spec.operation == operation:
            reason = spec.hypothesis(g, (target,))
            if reason is None:
                return spec, None
    return None, reason


class BoundCheckRecord(NamedTuple):
    theorem: str
    seed: int
    trial: int
    n: int
    m: int
    target: str
    mp_before: int
    mp_after: int
    lower: Fraction
    upper: Fraction
    passed: bool
    tight_low: bool
    tight_high: bool

    def csv_row(self) -> str:
        return ",".join([str(v).lower() if isinstance(v, bool) else str(v) for v in self])


def _column(name: str) -> str:
    return "pass" if name == "passed" else name


def _report_fields(row: tuple) -> dict:
    """A record or summary by report column, with Fractions as strings."""
    return {_column(name): str(v) if isinstance(v, Fraction) else v
            for name, v in zip(row._fields, row)}


CSV_HEADER = ",".join(map(_column, BoundCheckRecord._fields))


def _evaluate(
    spec: TheoremSpec,
    g: Graph,
    targets: list,
    limits: SearchLimits | None,
    seed: int = 0,
    trial: int = 0,
) -> tuple[list[BoundCheckRecord], list[Graph]]:
    """Records and result graphs for targets whose hypothesis already holds.

    Every target is applied before any solve, so a bad target fails first;
    then g and the partner are solved once, and each result once.
    """
    afters = [ops.apply(spec.operation, g, t) for t in targets]
    mp_before = mp_exact(g, limits).value
    mp_p = n_p = None
    if spec.needs_partner:
        (partner,) = targets
        mp_p, n_p = mp_exact(partner, limits).value, partner.n
    lower, upper = map(Fraction, spec.bounds(mp_before, g.n, mp_p, n_p))
    # mp_after is an integer: lower <= mp_after iff ceil(lower) <= mp_after, and
    # it can equal an end only when that end is integral
    low, high = ceil(lower), floor(upper)
    low_end = low if low == lower else None
    high_end = high if high == upper else None
    m = g.m
    records = []
    for target, after in zip(targets, afters):
        mp_after = mp_exact(after, limits).value
        records.append(BoundCheckRecord(
            theorem=spec.id,
            seed=seed,
            trial=trial,
            n=g.n,
            m=m,
            target=ops.describe_target(spec.operation, target),
            mp_before=mp_before,
            mp_after=mp_after,
            lower=lower,
            upper=upper,
            passed=low <= mp_after <= high,
            tight_low=mp_after == low_end,
            tight_high=mp_after == high_end,
        ))
    return records, afters


def check_bound(
    theorem_id: str,
    g: Graph,
    target,
    limits: SearchLimits | None = None,
) -> BoundCheckRecord:
    """Verify one theorem instance with exact mp values and tightness flags.

    ``target`` is what ``operations.apply`` takes for the theorem's
    operation: an edge, a vertex, a neighbor tuple, or, for
    ``cartesian_product`` and ``join``, the partner graph.
    """
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem_id!r}")
    spec = THEOREMS[theorem_id]
    ops.check_shape(spec.operation, target)
    reason = spec.hypothesis(g, (target,))
    if reason is not None:
        raise PreconditionError(reason)
    return _evaluate(spec, g, [target], limits)[0][0]


# random graph models


class Model(_Frozen):
    """A random graph model; ``draw(rng)`` validates the fields and draws one graph."""

    __slots__ = ()
    name: ClassVar[str]

    def describe(self) -> str:
        values = ";".join(f"{field}={getattr(self, field)}" for field in self._fields)
        return f"{self.name}({values})"


class Gnp(Model):
    name = "gnp"
    __slots__ = _fields = ("n", "p")

    def __init__(self, n: int, p: float) -> None:
        super().__init__(n, p)

    def draw(self, rng: random.Random) -> Graph:
        n, p, rand = self.n, self.p, rng.random  # bound once, read for every pair
        if type(n) is not int or n < 1 or type(p) is bool or not 0.0 <= p <= 1.0:
            raise ValueError(f"bad gnp parameters {self}")
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rand() < p]
        return from_edge_list(n, edges)


class RandomTree(Model):
    name = "random_tree"
    __slots__ = _fields = ("n",)

    def __init__(self, n: int) -> None:
        super().__init__(n)

    def draw(self, rng: random.Random) -> Graph:
        """A uniform labeled tree, decoded from a random Pruefer sequence in linear
        time and built straight into the adjacency.

        rng.choice over the list of vertices takes from the random stream what
        rng.randrange(n) takes and returns the vertex's shared int object, so the
        graph keeps one int object per vertex.  The decoding removes the smallest leaf at each
        step: a pointer that only moves forward over the degrees finds it, unless
        the leaf's parent has just become a leaf below the pointer.  The largest
        vertex is never removed, so it is the root and every other vertex gets a
        parent, written over its degree once it is removed.  A stable sort by
        parent lines up each vertex's children in id order, and each vertex's
        neighbour tuple is its slice of that order with its parent put in.
        """
        n = self.n
        if type(n) is not int or n < 1:
            raise ValueError(f"bad tree size {n!r}")
        order = list(range(n))
        seq = [rng.choice(order) for _ in range(n - 2)]
        root = order.pop()
        up = [1] * n  # degrees, each one more than the vertex's count in seq
        for x in seq:
            up[x] += 1
        deg = up[:-1]  # a non-root vertex has one child fewer than its degree
        ptr = leaf = up.index(1)
        for x in seq:
            up[leaf] = x
            d = up[x] = up[x] - 1
            if d == 1 and x < ptr:
                leaf = x
            else:
                ptr = leaf = up.index(1, ptr + 1)
        del seq
        up[leaf] = root  # the last leaf's parent; for n = 1, the root's own slot
        order.sort(key=up.__getitem__)
        order = tuple(order)
        adj = []
        j = 0
        for p, d in zip(up, deg):
            i = j
            j += d - 1
            if i == j:
                adj.append((p,))
            else:
                k = bisect_left(order, p, i, j)
                adj.append(order[i:k] + (p,) + order[k:j])
        adj.append(order[j:])
        return Graph(n, tuple(adj))


class RandomBipartite(Model):
    name = "random_bipartite"
    __slots__ = _fields = ("n1", "n2", "p")

    def __init__(self, n1: int, n2: int, p: float) -> None:
        super().__init__(n1, n2, p)

    def draw(self, rng: random.Random) -> Graph:
        n1, n2, p, rand = self.n1, self.n2, self.p, rng.random
        if (type(n1) is not int or type(n2) is not int or n1 < 1 or n2 < 1
                or type(p) is bool or not 0.0 <= p <= 1.0):
            raise ValueError(f"bad bipartite parameters {self}")
        edges = [(u, n1 + w) for u in range(n1) for w in range(n2) if rand() < p]
        return from_edge_list(n1 + n2, edges)


MODELS: dict[str, type[Model]] = {cls.name: cls for cls in (Gnp, RandomTree, RandomBipartite)}


def random_graph(model: Model, seed: int) -> Graph:
    """Draw one graph from the model, deterministically for a fixed seed."""
    if not isinstance(model, Model):
        raise ValueError(f"unknown model {model!r}")
    return model.draw(random.Random(seed))


@dataclass(frozen=True)
class CampaignConfig:
    theorem: str
    model: Model
    trials: int
    seed: int
    # None checks the theorem's targets (see TheoremSpec.targets); ("sample",
    # j) checks j of them, drawn with a per-trial seed
    target_policy: tuple[str, int] | None = None


class CampaignSummary(NamedTuple):
    theorem: str
    trials: int
    records: int
    passes: int
    failures: int
    skipped_trials: int
    tight_low: int
    tight_high: int
    min_lower_slack: Fraction | None
    min_upper_slack: Fraction | None


def _trial_seed(seed: int, trial: int) -> int:
    return (seed * 1_000_003 + trial) & 0x7FFFFFFFFFFFFFFF


def _run_trial(config: CampaignConfig, trial: int, limits: SearchLimits | None):
    """Records for one trial, or None when the trial is skipped."""
    spec = THEOREMS[config.theorem]
    tseed = _trial_seed(config.seed, trial)
    g = random_graph(config.model, tseed)
    rng = random.Random(tseed ^ 0x5EED)  # the trial's own target stream
    sample = config.target_policy[1] if config.target_policy else None
    targets = spec.targets(g, rng, sample, config.model)
    if not targets or spec.hypothesis(g, tuple(targets)) is not None:
        return None
    return _evaluate(spec, g, targets, limits, config.seed, trial)[0]


def _worker_count(jobs: int, trials: int) -> int:
    """Worker processes for a campaign: jobs, capped by the CPUs and the trials."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1, trials)


def run_campaign(
    config: CampaignConfig,
    limits: SearchLimits | None = None,
    jobs: int = 1,
) -> tuple[list[BoundCheckRecord], CampaignSummary]:
    """Run all trials; deterministic for a fixed config, regardless of jobs."""
    for name, count in (("trials", config.trials), ("seed", config.seed), ("jobs", jobs)):
        if type(count) is not int:  # type(), not isinstance(): True and False are not ints
            raise ValueError(f"{name} must be an int, got {count!r}")
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    policy = config.target_policy
    if policy is not None and (not isinstance(policy, tuple) or len(policy) != 2
                               or policy[0] != "sample" or type(policy[1]) is not int):
        raise ValueError(f"target_policy must be None or ('sample', j), got {policy!r}")
    if policy is not None and policy[1] < 1:
        raise ValueError(f"sample must be >= 1, got {policy[1]}")
    if config.theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {config.theorem!r}")
    spec = THEOREMS[config.theorem]
    if policy is not None and spec.needs_partner:
        raise ValueError(f"{config.theorem} takes no target sample: "
                         "its one target per trial is the partner graph")
    if spec.model is not None and not isinstance(config.model, MODELS[spec.model]):
        raise ValueError(f"{config.theorem} campaigns need the {spec.model} model")
    workers = _worker_count(jobs, config.trials)

    run_trial = partial(_run_trial, config, limits=limits)
    results: list[list[BoundCheckRecord] | None]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, config.trials // (workers * 4))
            results = list(pool.map(run_trial, range(config.trials), chunksize=chunksize))
    else:
        results = list(map(run_trial, range(config.trials)))

    records: list[BoundCheckRecord] = []
    lo_slacks, hi_slacks = [], []  # one of each per trial that ran
    for res in results:
        if res is not None:  # a trial's records share its ends (see _evaluate)
            afters = [r.mp_after for r in res]
            lo_slacks.append(min(afters) - res[0].lower)
            hi_slacks.append(res[0].upper - max(afters))
            records.extend(res)
    passes = sum(r.passed for r in records)
    summary = CampaignSummary(
        theorem=config.theorem,
        trials=config.trials,
        records=len(records),
        passes=passes,
        failures=len(records) - passes,
        skipped_trials=results.count(None),
        tight_low=sum(r.tight_low for r in records),
        tight_high=sum(r.tight_high for r in records),
        min_lower_slack=min(lo_slacks, default=None),
        min_upper_slack=min(hi_slacks, default=None),
    )
    return records, summary


def records_to_csv(records: list[BoundCheckRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def records_to_json(records: list[BoundCheckRecord], summary: CampaignSummary) -> str:
    import json

    obj = {"records": [_report_fields(r) for r in records], "summary": _report_fields(summary)}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
