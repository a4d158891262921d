"""What the benchmark relies on in dmp.

The tracer patches dmp functions by module attribute, so each must exist; the
campaign warm-up shortens each config with ``dataclasses.replace``.
"""

import importlib
import importlib.util
from dataclasses import fields, replace
from pathlib import Path

from dmp.bounds import CampaignConfig, Gnp, run_campaign

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


def test_campaign_config_replace_keeps_every_other_field():
    # the campaign workload's warm-up runs each config as replace(c, trials=2)
    config = CampaignConfig("edge_add", Gnp(5, 0.5), trials=7, seed=3, target_policy=("sample", 2))
    short = replace(config, trials=2)
    assert short.trials == 2
    kept = [f.name for f in fields(CampaignConfig) if f.name != "trials"]
    assert [getattr(short, k) for k in kept] == [getattr(config, k) for k in kept]
    records, summary = run_campaign(short)
    assert summary.trials == 2 and {r.trial for r in records} <= {0, 1}
