"""In-memory span tracing of dmp's public functions, from outside the package.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that records a span ``[name, start, end, parent, root]``.
``root`` is the index of the outermost span, so every span caused by one
benchmark request (one solve instance, one campaign, one CLI command) shares
that identifier.  Nothing inside ``src/dmp`` is edited; ``uninstall`` puts
the original functions back.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

OPERATIONS = (
    "add_edge", "delete_edge", "subdivide_edge", "contract_edge",
    "add_vertex", "delete_vertex", "cartesian_product", "join",
)
PREDICATES = ("is_connected", "is_tree", "is_triangle_free", "is_regular")
PARSERS = ("parse_edge_list_text", "parse_json_text", "parse_graph_text")
SERIALIZERS = ("to_edge_list_text", "to_json_text")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self.stack: list[int] = []
        self.failures: Counter[tuple[str, str]] = Counter()
        self.parse_bytes = 0
        self.edges_in = 0
        self.graph_hashes: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one request."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, note):
        def traced(*args, **kwargs):
            if note is not None:
                note(self, args)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.failures[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, dmp_modules: dict) -> None:
        """Wrap every traced function at each module attribute that callers use."""
        for module, attr, name, note in _targets(dmp_modules):
            orig = getattr(module, attr)
            self._patches.append((module, attr, orig))
            setattr(module, attr, self._wrap(name, orig, note))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def self_times(self) -> tuple[Counter[str], Counter[str]]:
        """Per span name: total self time (duration minus children) and count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def solver_self_by_root(self) -> Counter[str]:
        """Solver self time grouped by the name of the span's root request."""
        out: Counter[str] = Counter()
        for name, start, end, _, root in self.spans:
            if name == "solver.mp_exact":
                out[self.spans[root][0]] += end - start  # mp_exact has no traced children
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "root"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _note_graph(tracer: Tracer, args) -> None:
    tracer.graph_hashes.add(hash(args[0]))


def _note_edges(tracer: Tracer, args) -> None:
    tracer.edges_in += args[0].m
    if len(args) > 1 and hasattr(args[1], "adj"):  # product / join partner
        tracer.edges_in += args[1].m


def _note_parse(tracer: Tracer, args) -> None:
    # parse_graph_text delegates to the other two parsers: count bytes once
    if not (tracer.stack and tracer.spans[tracer.stack[-1]][0].startswith("graph.parse")):
        tracer.parse_bytes += len(args[0])


def _targets(m: dict):
    """(module, attribute, span name, note) for every wrapped lookup site.

    Functions imported by name (``from .graph import from_edge_list``) are
    looked up in the importing module, so each such module is patched too.
    """
    graph, solver, ops, cons, bounds, cli = (
        m["graph"], m["solver"], m["operations"], m["constructions"], m["bounds"], m["cli"])
    for mod in (solver, bounds, cli):
        yield mod, "mp_exact", "solver.mp_exact", _note_graph
    for fn in OPERATIONS:
        yield ops, fn, f"operations.{fn}", _note_edges
    for mod in (graph, ops, bounds, cons):
        yield mod, "from_edge_list", "graph.from_edge_list", None
    for fn in PREDICATES:
        yield graph, fn, f"graph.{fn}", None
        if hasattr(bounds, fn):
            yield bounds, fn, f"graph.{fn}", None
    for fn in PARSERS:
        yield graph, fn, f"graph.{fn}", _note_parse
    for fn in SERIALIZERS:
        yield graph, fn, f"graph.{fn}", None
    for fn in ("generate", "apply_designated", "list_families"):
        yield cons, fn, f"constructions.{fn}", None
    for fn in ("check_bound", "random_graph", "run_campaign"):
        yield bounds, fn, f"bounds.{fn}", None
    yield cli, "main", "cli.main", None


def layer_metrics(tracer: Tracer, solve_classes: tuple[str, ...]) -> dict[str, float]:
    """Per-layer counts and self times (seconds) from the recorded spans."""
    self_s, calls = tracer.self_times()

    def total(prefix: str, names=None) -> tuple[float, int]:
        keys = [k for k in self_s if k.startswith(prefix)
                and (names is None or k.split(".", 1)[1] in names)]
        return sum(self_s[k] for k in keys), sum(calls[k] for k in keys)

    solver_s, solver_calls = total("solver.")
    by_root = tracer.solver_self_by_root()
    ops_s, ops_calls = total("operations.")
    build_s, build_calls = total("graph.", ("from_edge_list",))
    pred_s, _ = total("graph.", PREDICATES)
    parse_s, _ = total("graph.", PARSERS)
    ser_s, _ = total("graph.", SERIALIZERS)
    cons_s, cons_calls = total("constructions.")
    out = {
        "solver.s": solver_s,
        "solver.calls": solver_calls,
        "solver.distinct_share": len(tracer.graph_hashes) / solver_calls if solver_calls else 0.0,
        "solver.failed": sum(v for (n, _), v in tracer.failures.items() if n == "solver.mp_exact"),
        "operations.calls": ops_calls,
        "operations.s": ops_s,
        "operations.edges_in": tracer.edges_in,
        "graph.build_calls": build_calls,
        "graph.build_s": build_s,
        "graph.predicates_s": pred_s,
        "graph.parse_s": parse_s,
        "graph.parse_bytes": tracer.parse_bytes,
        "graph.serialize_s": ser_s,
        "bounds.checks": calls["bounds.check_bound"],
        "bounds.check_self_s": self_s["bounds.check_bound"],
        "bounds.random_graph_s": self_s["bounds.random_graph"],
        "constructions.calls": cons_calls,
        "constructions.s": cons_s,
    }
    for cls in solve_classes:
        out[f"solver.s.{cls}"] = by_root[f"solve.{cls}"]
    return out
