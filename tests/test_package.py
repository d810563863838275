"""The package's import contract: the layer modules load on first use, the
re-exported names resolve, and ``edge-sim`` and ``husimi`` run without
SciPy."""

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
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize(
    "args,written",
    [(["edge-sim"], "edge_sim.csv"), (["husimi", "--set", "droplet.N=2"], "husimi.csv")],
    ids=["edge-sim", "husimi"],
)
def test_command_never_imports_scipy(tmp_path, args, written):
    result = subprocess.run(
        [sys.executable, "-c", COMMAND_MODULES, str(tmp_path), *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert result.returncode == 0, result.stderr
    code, scipy_modules = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert scipy_modules == []
    assert (tmp_path / written).is_file()


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
