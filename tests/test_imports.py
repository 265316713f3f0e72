"""The package loads numpy and scipy.sparse only: every command runs in a
fresh process, and scipy.optimize or scipy.spatial would add a tenth of a
second or more to each start.  Every name the package exports is used by
the package itself, the benchmark harness or the README's library
example, never by the tests alone."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import moncap

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(moncap.__file__).resolve().parent.parent

SCRIPT = """
import runpy, sys
import moncap
from moncap import (build_mesh, compute_capacity, default_flux_family, disk,
                    flat_core_p, rasterize)
default_flux_family()
mesh = build_mesh(16)
e = rasterize(disk(0.5, 0.5, 0.1), mesh, "E")
f = rasterize(disk(0.5, 0.5, 0.4), mesh, "F")
assert f.count > 64
report, _ = compute_capacity(mesh, flat_core_p(3.0, 1.0), e, f)
assert report.converged
sys.argv = ["moncap", "capacity", sys.argv[1], "--out", sys.argv[2]]
try:
    runpy.run_module("moncap.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
print([m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules])
"""


def test_commands_load_neither_scipy_optimize_nor_spatial(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "configs" / "strip.json"),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "runs.jsonl").exists()
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


def _imported_names(tree):
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_export_is_used_outside_the_tests():
    package = SRC / "moncap"
    exports = _imported_names(ast.parse((package / "__init__.py").read_text()))
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    for path in (ROOT / "benchmarks").glob("*.py"):
        used |= _imported_names(ast.parse(path.read_text()))
    used |= set(re.findall(r"\bmc\.(\w+)", (ROOT / "README.md").read_text()))
    assert sorted(exports - used) == []
