"""Guards for what each CLI command and ``import dmp`` load: a command imports only
the dmp modules it runs, and the package resolves its public names on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dmp
from dmp.graph import to_edge_list_text
from dmp.constructions import path_graph

SRC = Path(__file__).resolve().parents[1] / "src"

# runs cli.main on its arguments with stdout captured, then prints the exit code and
# every module loaded
CLI_PROBE = """
import contextlib, io, sys
from dmp import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sys.modules)
"""


def _fresh(code: str, *args: str, cwd) -> list[str]:
    """The output words of ``code`` run by a fresh interpreter that imports dmp from src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    p = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                       capture_output=True, text=True, timeout=60, check=True)
    return p.stdout.split()


@pytest.mark.parametrize("argv, dmp_modules, absent", [
    (["mp", "g.txt"], {"graph", "solver"}, {"fractions", "json", "dataclasses", "inspect"}),
    (["construct", "--family", "path", "--n=6"],
     {"graph", "solver", "operations", "constructions"}, {"fractions", "dataclasses", "inspect"}),
    (["op", "g.txt", "--op", "subdivide", "--u", "0", "--v", "1"],
     {"graph", "solver", "operations", "bounds"}, {"heapq"}),
    (["construct", "--family", "path", "--n=6", "--out", "g.json"],
     {"graph", "solver", "operations", "constructions"}, {"json"}),
    (["op", "g.txt", "--op", "subdivide", "--u", "0", "--v", "1", "--out", "h.json"],
     {"graph", "solver", "operations", "bounds"}, {"json", "heapq"}),
], ids=["mp", "construct", "op", "construct-json-out", "op-json-out"])
def test_a_command_imports_only_the_modules_it_runs(tmp_path, argv, dmp_modules, absent):
    (tmp_path / "g.txt").write_text(to_edge_list_text(path_graph(6)))
    at_start = set(_fresh("import sys; print(*sys.modules)", cwd=tmp_path))
    code, *modules = _fresh(CLI_PROBE, *argv, cwd=tmp_path)
    assert code == "0"
    loaded = set(modules) - at_start
    assert {m for m in loaded if m.split(".")[0] == "dmp"} == (
        {"dmp", "dmp.cli"} | {f"dmp.{m}" for m in dmp_modules})
    assert loaded & absent == set()


def test_importing_the_package_imports_no_submodule(tmp_path):
    loaded = _fresh("import sys, dmp; print(*sys.modules)", cwd=tmp_path)
    assert [m for m in loaded if m.startswith("dmp.")] == []


def test_every_public_name_is_its_submodule_object():
    assert dmp.__all__
    for name, module in dmp._EXPORTS.items():
        assert getattr(dmp, name) is getattr(getattr(dmp, module), name)


def test_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from dmp import *", namespace)
    assert set(dmp.__all__) <= set(namespace)
    assert set(dmp.__all__) <= set(dir(dmp))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dmp.no_such_name  # noqa: B018
    assert not hasattr(dmp, "no_such_name")
