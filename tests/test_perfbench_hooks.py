"""The benchmark's tracer patches dmp functions by module attribute; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = ("graph", "solver", "operations", "constructions", "bounds", "cli")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    modules = {name: importlib.import_module(f"dmp.{name}") for name in MODULES}
    targets = list(_spans()._targets(modules))
    missing = [(m.__name__, attr) for m, attr, _, _ in targets if not hasattr(m, attr)]
    assert targets and not missing
