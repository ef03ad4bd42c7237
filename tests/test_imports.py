"""Import cost, dependencies and exports: the package runs on numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import statgeom
from statgeom import (
    acceptance, billiard, bures, classical, errors, linalg, means,
    measurement, monotone, sampling,
)

ROOT = Path(__file__).resolve().parent.parent


def _run(code, cwd=None):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


_LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_loads_no_scipy():
    assert _run("import sys, statgeom, statgeom.cli; " + _LOADED_SCIPY) == "[]\n"


def test_jeffreys_loads_no_scipy(tmp_path):
    # the one former scipy user, through the library and through the CLI
    (tmp_path / "p.json").write_text("[0.2, 0.3, 0.5]")
    code = (
        "import sys, numpy, statgeom, statgeom.cli; "
        "statgeom.jeffreys_density(numpy.array([0.2, 0.3, 0.5])); "
        "assert statgeom.cli.main(['jeffreys', 'p.json']) == 0; " + _LOADED_SCIPY
    )
    assert _run(code, cwd=tmp_path).endswith("\n[]\n")


def test_import_loads_no_hashlib():
    # substream imports it on its first call, and draws as before
    code = (
        "import sys, statgeom; print('hashlib' in sys.modules); "
        "print(statgeom.substream(1729, 'x').random(3).tolist())"
    )
    assert _run(code) == (
        "False\n[0.5912998359315678, 0.8230414977519405, 0.002397109357650473]\n"
    )


def test_import_loads_no_numpy_fft():
    # qubit_povm_search reaches np.fft on its first call, and numpy loads it then
    code = (
        "import sys, statgeom; print('numpy.fft' in sys.modules); "
        "statgeom.qubit_povm_search(statgeom.qubit_state(0.1, 0.2, 0.3), "
        "statgeom.qubit_state(-0.3, 0.1, 0.2)); print('numpy.fft' in sys.modules)"
    )
    assert _run(code) == "False\nTrue\n"


def test_package_exports_the_union_of_module_exports():
    modules = (
        errors, linalg, sampling, classical, means, monotone, bures,
        measurement, billiard, acceptance,
    )
    union = [name for module in modules for name in module.__all__]
    assert statgeom.__all__ == ["__version__", *union]
    assert len(set(union)) == len(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(statgeom, name) is getattr(module, name)


def test_cli_imports_no_private_library_name_but_the_pair_fill_and_sampler():
    # the CLI calls the public functions; the pair's eig(M), printed by
    # optimal-measurement, the CSV formatter, and the mixed-state sampler
    # billiard shares with the acceptance suite are its only private reads
    tree = ast.parse((ROOT / "src" / "statgeom" / "cli.py").read_text())
    private = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {
        ("bures", "_pair"), ("serialize", "_fill"), ("acceptance", "_mixed_state")
    }
