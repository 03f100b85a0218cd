"""Each study script, and the benchmark's tracer, loads against the
current package, and the package holds no code that only tests reach.

The scripts run their work only under ``__main__``, so loading them
executes nothing but their imports and definitions; a public name removed
from under a script fails here.  The tracer wraps package functions by
name, so a renamed one fails here too.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "dtscatter").glob("*.py"))

# public names of src/ that nothing in src/, scripts/ or the tracer names,
# each with the reason it stays in the package
_LS_ROUTE = "single-particle LS route, kept for a command (ROADMAP direction 9)"
_DIRECTION_12 = "independent Gamma / umklapp route (ROADMAP direction 12)"
_DIRECTION_5 = "Trotter expansions for the second-order bound (ROADMAP direction 5)"
_EMIT_BYTES = "emit's output is defined as these renderers' bytes"
KEPT = {
    "lippmann.w_operator": _LS_ROUTE,
    "lippmann.t_matrix_born": _LS_ROUTE,
    "lippmann.fixed_point_residual": _LS_ROUTE,
    "lippmann.s_matrix_element": _LS_ROUTE,
    "lippmann.channel_amplitude": _LS_ROUTE,
    "wavepacket.single_particle_model": _LS_ROUTE,
    "wavepacket.transmission_reflection": _LS_ROUTE,
    "thirring.gamma_quadrature": _DIRECTION_12,
    "thirring.umklapp_amplitudes": _DIRECTION_12,
    "trotter.bernoulli_split": _DIRECTION_5,
    "trotter.w_tilde": _DIRECTION_5,
    "trotter.w_tilde_direct": _DIRECTION_5,
    "tables.render_csv": _EMIT_BYTES,
    "tables.render_json": _EMIT_BYTES,
}


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _named(node) -> set:
    """Every name a subtree reads: bare names and attribute names."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_bench_tracer_targets_resolve():
    tracer = _load_tracer()
    missing = [(module, name) for module, name in tracer.TARGETS
               if not callable(getattr(
                   importlib.import_module(f"dtscatter.{module}"), name, None))]
    assert missing == []


def test_every_public_name_in_the_package_is_reached():
    # A public top-level function or class of src/ must be named in src/
    # outside its own definition (an import or __all__ does not count), be
    # named in scripts/, be a tracer target, or be kept in KEPT with its
    # reason.  Test-only references belong in tests/oracles.py.
    defined = {}      # "module.name" -> its top-level statement
    reads = []        # (top-level statement, the names it reads)
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[f"{path.stem}.{stmt.name}"] = stmt
            reads.append((stmt, _named(stmt)))
    in_scripts = set().union(*(_named(ast.parse(p.read_text())) for p in SCRIPTS))
    traced = {f"{module}.{name}" for module, name in _load_tracer().TARGETS}
    unreached = {
        key for key, stmt in defined.items()
        if stmt.name not in in_scripts and key not in traced
        and not any(stmt.name in names for other, names in reads
                    if other is not stmt)}
    assert sorted(unreached - set(KEPT)) == []
    # a kept name that gains a caller leaves KEPT
    assert sorted(set(KEPT) - unreached) == []
