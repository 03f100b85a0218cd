"""Each study script, and the benchmark's tracer, loads against the
current package.

The scripts run their work only under ``__main__``, so loading them
executes nothing but their imports and definitions; a public name removed
from under a script fails here.  The tracer wraps package functions by
name, so a renamed one fails here too.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_bench_tracer_targets_resolve():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, name) for module, name in tracer.TARGETS
               if not callable(getattr(
                   importlib.import_module(f"dtscatter.{module}"), name, None))]
    assert missing == []
