"""The package's import contract: the layer modules load on first use, the
re-exported names resolve, every command runs without SciPy, and only a
written edge-sim CSV loads the cell kernel ``arstat._g17``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import arstat

PKG_ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("algebra", "bargmann", "droplet", "edge", "starprod")

# A fresh interpreter: this test process has long since imported SciPy.
COMMAND_MODULES = """
import json, sys
import arstat.cli
code = arstat.cli.main([*sys.argv[2:], "--out", sys.argv[1]])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "arstat._g17" in sys.modules]))
"""


BOSONIC = ["--set=statistics.s=1", "--set=statistics.k=3.5", "--set=statistics.n_max=40"]


def _star(*overrides):
    return ["star-convergence", *(f"--set=sweep.{item}" for item in overrides)]


@pytest.mark.parametrize(
    "args,written",
    [
        (["edge-sim"], "edge_sim.csv"),
        (["husimi", "--set", "droplet.N=2"], "husimi.csv"),
        (_star(), "star_convergence.csv"),
        (_star("r=2", "pair=raise_sq_lower_sq", "k_values=8,12,16"), "star_convergence.csv"),
        (_star("s=1", "n_max=80", "k_values=20,40,80"), "star_convergence.csv"),
        (_star("pair=identity", "k_values=8,12,16"), "star_convergence.csv"),
        (_star("s=1", "n_max=40", "r=2", "pair=commuting_numbers", "k_values=20,40,80"),
         "star_convergence.csv"),
        (_star("s=1", "n_max=80", "pair=number_raise_sq_lower_sq", "k_values=20,40,80"),
         "star_convergence.csv"),
        (_star("pair=number_sq_lower_sq", "k_values=8,12,16"), "star_convergence.csv"),
        (["edge-sim", "--format", "json"], "edge_sim.json"),
        (["verify"], "verify_report.json"),
        (["verify", *BOSONIC], "verify_report.json"),
        (["spectrum"], "spectrum.csv"),
        (["spectrum", "--set=statistics.s=1", "--set=statistics.n_max=6"], "spectrum.csv"),
    ],
    ids=["edge-sim", "husimi", "star-default", "star-r2", "star-bosonic", "star-identity",
         "star-commuting-bosonic", "star-number-raise-bosonic", "star-number-sq", "edge-sim-json",
         "verify", "verify-bosonic", "spectrum", "spectrum-bosonic"],
)
def test_command_never_imports_scipy(tmp_path, args, written):
    result = subprocess.run(
        [sys.executable, "-c", COMMAND_MODULES, str(tmp_path), *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert result.returncode == 0, result.stderr
    code, scipy_modules, kernel = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert scipy_modules == []
    assert (tmp_path / written).is_file()
    # only a written edge-sim CSV loads the cell kernel
    assert kernel is (written == "edge_sim.csv")


# SciPy made unimportable: ``import scipy`` raises ModuleNotFoundError, as in
# an environment with numpy alone.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import arstat.cli
out = sys.argv[1]
print([arstat.cli.main([*command, "--out", out]) for command in
       (["verify"], ["spectrum"], ["verify", *sys.argv[2:]], ["spectrum", *sys.argv[2:]])])
try:
    arstat.algebra.number_operator(arstat.algebra.enumerate_basis(arstat.algebra.StatisticsSpec(1, -1, 3)), 0)
except ModuleNotFoundError as exc:
    print(exc.name)
"""


def test_verify_and_spectrum_run_without_scipy(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path), *BOSONIC],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert result.returncode == 0, result.stderr
    # every command exits 0; a CSR builder raises the plain import error
    assert result.stdout.splitlines()[-2:] == ["[0, 0, 0, 0]", "scipy"]


def test_import_loads_no_cell_kernel():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, arstat.cli; print('arstat._g17' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert result.stdout.split() == ["False"], result.stderr


def test_every_exported_name_resolves_to_its_layer():
    assert len(arstat.__all__) == len(set(arstat.__all__)) > 0
    for name in arstat.__all__:
        value = getattr(arstat, name)
        assert any(getattr(getattr(arstat, layer), name, None) is value for layer in LAYERS), name
    from arstat import FockBasis, build_mode_algebra  # noqa: F401

    with pytest.raises(AttributeError):
        arstat.no_such_name


def test_dir_lists_the_layers_and_the_exports():
    listed = dir(arstat)
    assert set(LAYERS) <= set(listed)
    assert set(arstat.__all__) <= set(listed)
    assert listed == sorted(listed)
    # the lazy-loading plumbing is neither listed nor an attribute
    for name in ("importlib", "sys", "_lazy", "_EXPORTS", "_HOME"):
        assert name not in listed
    for name in ("importlib", "sys", "_lazy", "_EXPORTS"):
        assert not hasattr(arstat, name)
