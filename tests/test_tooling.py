"""Guards for what README and pyproject.toml promise about the package itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

from dmp.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "dmp").glob("*.py"))


def test_readme_library_block_gives_its_values():
    readme = (ROOT / "README.md").read_text()
    namespace = {}
    exec(readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0], namespace)
    assert namespace["res"].value == 4
    assert namespace["rec"].passed


@pytest.mark.parametrize("cmd", list(_COMMANDS))
def test_readme_synopsis_lists_every_flag(cmd, capsys):
    block = (ROOT / "README.md").read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    # one entry per command: its `dmp <cmd>` line with the indented lines that continue it
    (synopsis,) = [s for s in re.split(r"\n(?=dmp )", block) if s.startswith(f"dmp {cmd} ")]
    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    helped = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--[\w-]+", synopsis)) == helped


def test_modules_import_only_the_standard_library_and_parse_as_python_3_10():
    assert MODULES
    outside = []
    for path in MODULES:
        # requires-python = ">=3.10": no syntax newer than 3.10
        tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# perfbench's campaign warm-up shortens each CampaignConfig with dataclasses.replace
# (perfbench/workloads.py), so it stays a dataclass until that warm-up changes; every
# other record is a NamedTuple or a small __slots__ class, which start faster
DATACLASSES_KEPT = {("bounds.py", "CampaignConfig")}


def test_campaign_config_is_the_only_dataclass():
    decorated = set()
    for path in MODULES:
        decorated |= {(path.name, node.name) for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.ClassDef)
                      and any("dataclass" in ast.unparse(d) for d in node.decorator_list)}
    assert decorated == DATACLASSES_KEPT
    cli = ast.parse((ROOT / "src" / "dmp" / "cli.py").read_text())
    imported = {a.name for n in ast.walk(cli) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(cli) if isinstance(n, ast.ImportFrom)}
    assert "dataclasses" not in imported


# perfbench's tracer patches operations.from_edge_list (perfbench/spans.py::_targets)
IMPORTS_KEPT_UNUSED = {("operations.py", "from_edge_list")}


def test_every_module_level_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in imported if name not in read]
    assert sorted(unused) == sorted(IMPORTS_KEPT_UNUSED)


# (module, other module, private name) read across modules, each for a reason
PRIVATE_NAMES_SHARED = {
    # the catalog's flags: list_families() would count as catalog work in a traced main()
    ("cli.py", "constructions", "_FAMILIES"),
    # the number rule the integer flags share with the file readers
    ("cli.py", "graph", "_INT"),
    # dmp op needs the applied graph for --out, and applies the operation only once
    ("cli.py", "bounds", "_evaluate"),
    # oracle-check seeds its random graphs by the campaign's rule
    ("cli.py", "bounds", "_trial_seed"),
    # SearchLimits and MpResult take the immutable-value protocol from its one base
    ("solver.py", "graph", "_Frozen"),
    # so do the random graph models
    ("bounds.py", "graph", "_Frozen"),
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_private_names_stay_in_their_module():
    shared = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        aliases = {}  # a name bound to a sibling module by `from . import m [as a]`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases.update({a.asname or a.name: a.name for a in node.names})
                else:
                    shared |= {(path.name, node.module, a.name)
                               for a in node.names if _private(a.name)}
        shared |= {(path.name, aliases[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in aliases and _private(node.attr)}
    assert shared == PRIVATE_NAMES_SHARED


VALUE_PROTOCOL = ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__reduce__")


def test_the_value_protocol_is_written_once():
    defined = {}  # method name -> the classes that define it
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in VALUE_PROTOCOL:
                        defined.setdefault(item.name, []).append(f"{path.stem}.{node.name}")
    assert defined == {name: ["graph._Frozen"] for name in VALUE_PROTOCOL}


MAX_FUNCTION_LINES = 80  # a new solver route goes beside the component search, not inside it


def test_no_function_is_longer_than_the_cap():
    long = []
    for path in MODULES:
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                size = sum(1 for line in lines[node.lineno - 1:node.end_lineno] if line.strip())
                if size > MAX_FUNCTION_LINES:
                    long.append((path.name, node.name, size))
    assert long == []
