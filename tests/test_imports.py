"""The imports and private helpers of the ``elongate`` modules.

Every name a module imports is used in that module (``__init__.py`` is
left out: its imports are the package's re-exports), and every module
imports only the standard library, ``numpy`` and ``elongate`` itself:
numpy is the only runtime dependency.  Every module-level private
function or class (``_name``) is referenced somewhere in the package
outside its own definition, and so is every exported name, in the package
or the benchmark, except the oracles the tests compare against.  Every
name the benchmark's worker (``bench/child.py``) imports from the package
exists, and so does every attribute, parameter and config key it uses.
Importing the CLI loads no thread pool, no FFT and no masked arrays, and
no module touches an environment variable.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "elongate"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "elongate"}
BENCH_CHILD = SRC.parents[1] / "bench" / "child.py"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _foreign_imports(source: str) -> list[str]:
    """Top-level packages imported from outside the standard library, numpy and elongate."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - ALLOWED)


def test_unused_imports_are_found():
    source = "import os, numpy as np\nfrom math import inf, pi\nprint(np.pi, inf)\n"
    assert _unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_imports_are_found():
    source = (
        "import os.path, numpy.linalg as la, scipy.linalg\n"
        "from __future__ import annotations\nfrom . import field\nfrom .geometry import Grid\n"
        "from elongate.solver import minimize\nfrom numpy import fft\nfrom sklearn import svm\n"
        "def f():\n    import pandas\n"
    )
    assert _foreign_imports(source) == ["pandas", "scipy", "sklearn"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert _foreign_imports(path.read_text(encoding="utf-8")) == []


def _used_names(source: str) -> set[str]:
    """Every name, attribute and imported name in ``source``, except the name
    of a module-level function or class inside its own definition."""
    used = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None) if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name is not None and name != owner:
                used.add(name)
    return used


def _dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and classes that no code outside their
    own definition refers to, by name, attribute or import, in any module."""
    used = set().union(*map(_used_names, sources.values()))
    defined = [
        (module, top.name)
        for module, source in sources.items()
        for top in ast.parse(source).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name.startswith("_") and not top.name.startswith("__")
    ]
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_dead_helpers_are_found():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n\ndef __dunder__():\n    pass\n",
        "c": "import a\n\ndef f():\n    return a._Gone\n\ndef _only_named_in_a_string():\n    return '_dead'\n",
    }
    assert _dead_helpers(sources) == ["a._dead", "c._only_named_in_a_string"]


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in ALL_MODULES}
    assert _dead_helpers(sources) == []


def _unused_exports(exported, sources: list[str]) -> list[str]:
    """The ``exported`` names that no code in ``sources`` refers to outside
    their own definition."""
    return sorted(set(exported) - set().union(*map(_used_names, sources)))


def test_unused_exports_are_found():
    sources = [
        "def used():\n    return kept()\n\ndef kept():\n    return kept()\n",
        "from elongate import by_import\nimport elongate\nelongate.by_attribute()\n",
        "def dead():\n    return dead()\n",
    ]
    exported = ["used", "kept", "dead", "by_import", "by_attribute", "nowhere"]
    assert _unused_exports(exported, sources) == ["dead", "nowhere", "used"]


#: Public names kept for the tests alone: the reference oracles of the 1-D
#: limit tests and of A2 and A10, and the full-grid energy that the
#: solver's energies, the records' ``J_ell`` and the finite-difference
#: checks of the energy gradient are compared against.
_TEST_ORACLES = ("assemble_energy", "oracle_1d", "poincare_ratio", "sup_error")


def test_every_export_is_used():
    # every public name is run by the package itself (its re-exports in
    # __init__.py aside) or by the benchmark, apart from the test oracles
    import elongate

    sources = [path.read_text(encoding="utf-8") for path in MODULES + sorted(BENCH_CHILD.parent.glob("*.py"))]
    assert _unused_exports(elongate.__all__, sources) == sorted(_TEST_ORACLES)


_ENVIRONMENT = ("environ", "getenv", "putenv")


def _environment_access(source: str) -> list[str]:
    """Every ``os.environ``, ``os.getenv`` and ``os.putenv`` that ``source``
    names, as an attribute of ``os`` or imported from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names if a.name in _ENVIRONMENT]
    return sorted(found)


def test_environment_access_is_found():
    source = (
        "import os\nfrom os import getenv\nx = os.environ.get('A', os.path.sep)\n"
        "def f():\n    os.putenv('B', '1')\n"
    )
    assert _environment_access(source) == ["os.environ", "os.getenv", "os.putenv"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_module_reads_no_environment_variable(path):
    # one JSON config drives every run: the package reads no environment variable
    assert _environment_access(path.read_text(encoding="utf-8")) == []


def _loaded_modules(statements: str, modules: tuple[str, ...]) -> list[bool]:
    """Which of ``modules`` a fresh interpreter has loaded after ``statements``,
    run with the package's source first on ``sys.path``."""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {statements}; "
            f"print([m in sys.modules for m in {modules!r}])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_import_loads_no_thread_pool():
    # sweeps solve in the calling thread, so a fresh interpreter that imports
    # the CLI has no use for concurrent.futures (~5 ms to import); the sine
    # transforms reach numpy.fft at call time, and nothing needs numpy.ma
    # (np.unique imports it, ~14 ms)
    assert _loaded_modules("import elongate.cli", ("concurrent.futures", "numpy.fft", "numpy.ma")) == [False] * 3


def test_cli_with_a_long_axis_loads_numpy_fft_but_not_numpy_ma(tmp_path):
    # a box of 160 horizontal cells, halved to 80 nodes, takes its long-axis
    # sine transform from numpy.fft; a sweep with its fits and a solve with
    # its minimality audit still leave numpy.ma unloaded
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "domain": {"r": 1, "cross_section": "box", "ell_list": [5.0], "vertical_halfwidths": [1.0]},
        "grid": {"target_h": 0.0625},
        "density": {"kind": "quadratic"},
    }))
    statements = "import elongate.cli" + "".join(
        f"; assert elongate.cli.main({[command, '--config', str(config), '--out', str(tmp_path / command)]!r}) == 0"
        for command in ("sweep", "solve"))
    assert _loaded_modules(statements, ("numpy.fft", "numpy.ma")) == [True, False]


def _package_imports(source: str) -> list[tuple[str, str]]:
    """``(module, name)`` of every ``from elongate[.module] import name``."""
    return sorted(
        (node.module, a.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "elongate"
        for a in node.names
    )


def test_package_imports_are_found():
    source = (
        "from elongate import Grid, study\nimport elongate.cli\nfrom numpy import fft\n"
        "def f():\n    from elongate.cli import main as m\n"
    )
    assert _package_imports(source) == [("elongate", "Grid"), ("elongate", "study"), ("elongate.cli", "main")]


def test_benchmark_imports_exist():
    # read, not imported: deleting a name the benchmark needs fails here
    imports = _package_imports(BENCH_CHILD.read_text(encoding="utf-8"))
    assert imports
    assert [f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(m), n)] == []


def _load_bench_child():
    """``bench/child.py`` as a module, loaded from its path without writing
    bytecode next to it; the ``sys.path`` entry and the ``workloads`` module
    it adds are removed afterwards."""
    saved_path, saved_workloads = list(sys.path), sys.modules.get("workloads")
    saved_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_child", BENCH_CHILD)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_dont_write
        if saved_workloads is None:
            sys.modules.pop("workloads", None)
        else:
            sys.modules["workloads"] = saved_workloads
    return child


def test_benchmark_attributes_exist():
    import elongate.cli
    from elongate import SweepRecord, SweepResult, make_density, minimize

    child = _load_bench_child()
    for workload in child.WORKLOADS.values():
        config = workload["config"]
        if workload["kind"] == "library":
            # SweepConfig(warm_start=) and the solver.warm_start key
            assert child.sweep_config(config).warm_start is config["solver"]["warm_start"]
        else:
            rc = elongate.cli.resolve_config(config)
            assert {"cross_section", "r", "vertical_halfwidths", "ell_list"} <= set(rc["domain"])
            assert rc["grid"]["target_h"] > 0
    assert "warm_start" in inspect.signature(minimize).parameters
    assert callable(make_density("p-dirichlet", 4.0, r=1, n=2).value_increment)
    assert callable(SweepRecord.to_json)
    assert "limit_report" in {f.name for f in dataclasses.fields(SweepResult)}
    # the names bench/spans.py wraps on elongate.cli
    for name in ("resolve_config", "run_sweep", "fit_rate", "convergence_verdicts", "records_to_csv",
                 "atomic_write_text"):
        assert callable(getattr(elongate.cli, name, None)), name


def test_benchmark_solves_halve_every_axis():
    # every solve of every benchmark workload, the limit's too, is halved
    # along every axis, so the benchmark never times an unhalved sine
    # transform; when a change keeps an axis whole here, its cost shows in
    # the benchmark and this test names the workload
    import elongate.cli
    from elongate import DomainSpec, build_grid, build_vertical_grid
    from elongate.field import load_cell_values
    from elongate.solver import _mirror_axes

    child = _load_bench_child()
    for name, workload in child.WORKLOADS.items():
        if workload["kind"] == "library":
            config = child.sweep_config(workload["config"])
        else:
            config = elongate.cli._build_objects(elongate.cli.resolve_config(workload["config"]))
        vgrid = build_vertical_grid(config.vertical_halfwidths, config.target_h)
        grids = [(vgrid, config.density.vertical_restriction())] + [
            (build_grid(DomainSpec(config.cross_section, ell, config.vertical_halfwidths), config.target_h),
             config.density)
            for ell in config.ells
        ]
        for grid, density in grids:
            axes = _mirror_axes(grid, density, load_cell_values(grid, config.load))
            assert axes == tuple(range(grid.n)), (name, grid.cell_shape)


def test_benchmark_ball_solves_take_the_swap_fold():
    # every ball solve of the CLI workload is halved along both horizontal
    # axes and folds its capacitance correction by their swap, which splits
    # each dense solve into two of about half the rows; when a change loses
    # the fold, the set-up cost shows in the benchmark and this test names
    # the grid
    import elongate.cli
    from elongate import DomainSpec, build_grid
    from elongate.field import load_cell_values
    from elongate.precond import _swaps
    from elongate.solver import _halve, _mirror_axes

    workload = _load_bench_child().WORKLOADS["cli-ball"]
    config = elongate.cli._build_objects(elongate.cli.resolve_config(workload["config"]))
    assert config.cross_section.shape == "ball" and config.cross_section.r == 2
    for ell in config.ells:
        grid = build_grid(DomainSpec(config.cross_section, ell, config.vertical_halfwidths), config.target_h)
        axes = _mirror_axes(grid, config.density, load_cell_values(grid, config.load))
        assert _swaps(_halve(grid, axes), axes), grid.cell_shape
