import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "arstat", *args],
        capture_output=True,
        text=True,
        cwd=cwd or PKG_ROOT,
    )


def read_bytes(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_verify_default_config_passes(tmp_path):
    result = run_cli("verify", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["status"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert {"triple_relations", "spectrum_vs_occupations", "overlap_dual_path"} <= names


def test_verify_rejects_inadmissible_label(tmp_path):
    result = run_cli("verify", "--out", str(tmp_path), "--set", "statistics.k=0")
    assert result.returncode == 2
    assert "2k - 1 > s" in result.stderr or "k=0" in result.stderr


def test_verify_bosonic_requires_truncation(tmp_path):
    result = run_cli("verify", "--out", str(tmp_path), "--set", "statistics.s=1",
                     "--set", "statistics.k=4")
    assert result.returncode == 2
    assert "n_max" in result.stderr


def test_verify_undersized_truncation_is_config_error(tmp_path):
    # n_max too small to certify coherent tails at the test radii
    result = run_cli("verify", "--out", str(tmp_path), "--set", "statistics.s=1",
                     "--set", "statistics.k=4.5", "--set", "statistics.n_max=12")
    assert result.returncode == 2
    assert "n_max" in result.stderr


def test_spectrum_worked_example(tmp_path):
    result = run_cli(
        "spectrum",
        "--out", str(tmp_path),
        "--set", "statistics.k=3",
        "--set", "hamiltonian.e=1.0, 2.0",
    )
    assert result.returncode == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "n_1,n_2,energy"
    energies = sorted(float(line.split(",")[-1]) for line in lines[1:])
    assert energies == [0.0, 1.0, 2.0, 2.0, 3.0, 4.0]
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert meta["exact_match"] is True
    assert meta["closed_form_dimension"] == 6


def test_husimi_sharp_step(tmp_path):
    result = run_cli(
        "husimi",
        "--out", str(tmp_path),
        "--set", "statistics.s=1",
        "--set", "statistics.k=200",
        "--set", "statistics.n_max=400",
        "--set", "droplet.N=100",
    )
    assert result.returncode == 0, result.stderr
    meta = json.loads((tmp_path / "husimi.json").read_text())
    assert meta["sharp_step"] is True
    assert abs(float(meta["crossing_mean_occupation"]) - 100) <= 10
    header = (tmp_path / "husimi.csv").read_text().splitlines()[0]
    assert header.startswith("rho,")


def test_husimi_vacuum_droplet(tmp_path):
    result = run_cli("husimi", "--out", str(tmp_path), "--set", "droplet.N=0")
    assert result.returncode == 0
    meta = json.loads((tmp_path / "husimi.json").read_text())
    assert float(meta["value_at_origin"]) == pytest.approx(1.0)
    assert meta["sharp_step"] is None


def test_husimi_requires_droplet_cap(tmp_path):
    result = run_cli("husimi", "--out", str(tmp_path))
    assert result.returncode == 2
    assert "[droplet] N" in result.stderr


def test_star_convergence_slope_in_band(tmp_path):
    result = run_cli(
        "star-convergence",
        "--out", str(tmp_path),
        "--set", "sweep.k_values=20, 40, 80",
    )
    assert result.returncode == 0, result.stderr
    meta = json.loads((tmp_path / "star_convergence.json").read_text())
    assert -2.3 <= float(meta["star_fit"]["slope"]) <= -1.7
    assert -2.3 <= float(meta["bracket_fit"]["slope"]) <= -1.7
    csv_header = (tmp_path / "star_convergence.csv").read_text().splitlines()[0]
    assert csv_header == "k,err_star_first_order,err_moyal_bracket"


def test_star_convergence_needs_three_k(tmp_path):
    result = run_cli("star-convergence", "--out", str(tmp_path),
                     "--set", "sweep.k_values=20, 40")
    assert result.returncode == 2
    assert "at least 3" in result.stderr


def test_star_convergence_commuting_pair_degenerate_notice(tmp_path):
    result = run_cli(
        "star-convergence",
        "--out", str(tmp_path),
        "--set", "sweep.pair=commuting_numbers",
        "--set", "sweep.r=2",
        "--set", "sweep.k_values=10, 20, 40",
    )
    assert result.returncode == 0, result.stderr
    assert "degenerate" in result.stdout
    meta = json.loads((tmp_path / "star_convergence.json").read_text())
    assert meta["bracket_fit"]["degenerate"] is True


def test_edge_sim_default_chiral(tmp_path):
    result = run_cli("edge-sim", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    meta = json.loads((tmp_path / "edge_sim.json").read_text())
    assert float(meta["eom_residual"]) < 1e-12
    assert float(meta["periodicity_residual"]) < 1e-12
    assert abs(float(meta["action_value"])) < 1e-10
    assert float(meta["mode_commutator_residual"]) < 1e-12
    header = (tmp_path / "edge_sim.csv").read_text().splitlines()[0]
    assert header == "t,theta_1,phi"


def test_edge_sim_corrupted_flag_warns_but_succeeds(tmp_path):
    result = run_cli("edge-sim", "--out", str(tmp_path), "--set", "edge.corrupted=true")
    assert result.returncode == 0
    assert "warning" in result.stderr.lower()
    meta = json.loads((tmp_path / "edge_sim.json").read_text())
    assert float(meta["eom_residual"]) > 0.01


def test_edge_sim_size_budget_is_config_error(tmp_path):
    result = run_cli(
        "edge-sim",
        "--out", str(tmp_path),
        "--set", "edge.velocities=1.0, 2.0",
        "--set", "edge.winding=0.0, 0.0",
        "--set", "edge.zero_mode=0.0, 0.0",
        "--set", "edge.amplitudes=0.5; 0.5",
        "--set", "edge.algebra_modes=3",
        "--set", "edge.algebra_level=10",
        "--set", "edge.algebra_zero_dim=10",
    )
    assert result.returncode == 2
    assert "budget" in result.stderr


@pytest.mark.parametrize(
    "command,overrides",
    [
        ("verify", []),
        ("spectrum", []),
        ("husimi", ["--set", "droplet.N=1"]),
        ("star-convergence", ["--set", "sweep.k_values=10, 20, 40"]),
        ("edge-sim", []),
    ],
)
def test_byte_identical_reruns(tmp_path, command, overrides):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    first = run_cli(command, "--out", str(out_a), *overrides)
    second = run_cli(command, "--out", str(out_b), *overrides)
    assert first.returncode == 0, first.stderr
    assert second.returncode == first.returncode
    assert read_bytes(out_a) == read_bytes(out_b)


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[statistics]\nr = 1\ns = -1\nk = 5\n\n[droplet]\nN = 2\n")
    out = tmp_path / "out"
    result = run_cli("husimi", "--config", str(config), "--out", str(out))
    assert result.returncode == 0, result.stderr
    meta = json.loads((out / "husimi.json").read_text())
    assert meta["N"] == 2
    # flag override wins over the file
    out2 = tmp_path / "out2"
    result = run_cli("husimi", "--config", str(config), "--out", str(out2),
                     "--set", "droplet.N=3")
    assert result.returncode == 0
    meta2 = json.loads((out2 / "husimi.json").read_text())
    assert meta2["N"] == 3


def test_missing_config_file_is_config_error(tmp_path):
    result = run_cli("verify", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path))
    assert result.returncode == 2
    assert "not found" in result.stderr


def test_malformed_config_file_is_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("statistics]\nr = oops\n")
    result = run_cli("verify", "--config", str(bad), "--out", str(tmp_path))
    assert result.returncode == 2
    assert "malformed" in result.stderr


def test_unknown_command_exits_two():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_env_var_output_directory(tmp_path):
    import os

    env = dict(**__import__("os").environ)
    env["ARSTAT_OUT_DIR"] = str(tmp_path / "env_out")
    result = subprocess.run(
        [sys.executable, "-m", "arstat", "spectrum"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "env_out" / "spectrum.csv").is_file()


def test_csv_only_format(tmp_path):
    result = run_cli("spectrum", "--out", str(tmp_path), "--format", "csv")
    assert result.returncode == 0
    assert (tmp_path / "spectrum.csv").is_file()
    assert not (tmp_path / "spectrum.json").exists()
    bad = run_cli("spectrum", "--out", str(tmp_path), "--format", "yaml")
    assert bad.returncode == 2


@pytest.mark.parametrize(
    "command,overrides",
    [
        ("edge-sim", ["edge.n_theta=0"]),
        ("edge-sim", ["edge.n_time=1"]),
        ("edge-sim", ["edge.periods=0"]),
        ("husimi", ["droplet.N=2", "droplet.points=0"]),
        ("husimi", ["droplet.N=9"]),
        ("verify", ["statistics.k=inf"]),
        ("star-convergence", ["sweep.k_values=20, 40, nan"]),
        ("star-convergence", ["sweep.k_values=1, 20, 40"]),
        ("star-convergence", ["sweep.pair=nope"]),
        ("verify", ["hamiltonian.e=nan, 1.0"]),
        ("edge-sim", ["edge.algebra_level=0"]),
        ("verify", ["verify.n_points=0"]),
        ("edge-sim", ["edge.amplitudes=inf"]),
        ("edge-sim", ["edge.velocities=nan"]),
    ],
)
def test_config_shaped_values_exit_two(tmp_path, command, overrides):
    args = [item for override in overrides for item in ("--set", override)]
    result = run_cli(command, "--out", str(tmp_path), *args)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_dense_commands_refuse_a_large_basis(tmp_path, command):
    # r=40, k=4 has 12,341 states: a 2.4 GB dense Hamiltonian
    start = time.perf_counter()
    result = run_cli(command, "--out", str(tmp_path), "--set", "statistics.r=40")
    elapsed = time.perf_counter() - start
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ") and "12341" in result.stderr
    assert elapsed < 10.0
    assert not any(tmp_path.iterdir())


def test_threads_option_is_gone(tmp_path):
    result = run_cli("verify", "--out", str(tmp_path), "--threads", "2")
    assert result.returncode == 2
    assert "--threads" in result.stderr


# Recorded with exact symbol gradients.
STAR_GOLDEN = [
    (6.0, 1.2551328285903204e-05, 0.0371920649858591),
    (8.0, 6.8611488443339266e-06, 0.020330939314427334),
    (10.0, 4.3042963943484142e-06, 0.012754480447825466),
]

# The same run with central-difference gradients (step 1e-5), which the
# exact gradients replaced; FD noise put them within 5e-9 of the exact values.
STAR_FD_GOLDEN = [
    (6.0, 1.255132834397741e-05, 0.037192064988853163),
    (8.0, 6.8611488770542808e-06, 0.020330939316909411),
    (10.0, 4.3042964009681189e-06, 0.012754480450109761),
]


def test_star_convergence_golden_values(tmp_path):
    result = run_cli(
        "star-convergence",
        "--out", str(tmp_path),
        "--set", "sweep.r=2",
        "--set", "sweep.k_values=6, 8, 10",
        "--set", "sweep.points=0.3+0.1j, -0.2+0.25j",
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "star_convergence.csv").read_text().splitlines()
    assert lines[0] == "k,err_star_first_order,err_moyal_bracket"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert len(rows) == len(STAR_GOLDEN)
    for row, golden, fd_golden in zip(rows, STAR_GOLDEN, STAR_FD_GOLDEN):
        assert row == pytest.approx(golden, rel=1e-12, abs=0.0)
        assert row == pytest.approx(fd_golden, rel=1e-8, abs=0.0)


def _star_run(tmp_path, *overrides):
    args = [item for override in overrides for item in ("--set", override)]
    result = run_cli("star-convergence", "--out", str(tmp_path), *args)
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "star_convergence.csv").read_text().splitlines()[1:]
    rows = [[float(x) for x in line.split(",")] for line in lines]
    meta = json.loads((tmp_path / "star_convergence.json").read_text())
    return rows, meta


def test_star_convergence_default_sweep_reaches_k_1280(tmp_path):
    rows, meta = _star_run(tmp_path)
    assert [row[0] for row in rows] == [20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0]
    for label in ("star_fit", "bracket_fit"):
        assert meta[label]["degenerate"] is False
        assert meta[label]["points_used"] == 7
        assert -2.3 <= float(meta[label]["slope"]) <= -1.7


@pytest.mark.parametrize(
    "overrides",
    [["sweep.pair=identity"], ["sweep.pair=commuting_numbers", "sweep.r=2"]],
)
def test_star_convergence_controls_degenerate_on_default_sweep(tmp_path, overrides):
    rows, meta = _star_run(tmp_path, *overrides)
    assert len(rows) == 7
    assert meta["star_fit"] == {"degenerate": True}
    assert meta["bracket_fit"] == {"degenerate": True}


@pytest.mark.parametrize("points", [["sweep.points=0.3"], []])
def test_star_convergence_past_coefficient_overflow(tmp_path, points):
    # C_n and the coherent normalization overflow a float from k ~ 2050
    rows, meta = _star_run(tmp_path, "sweep.k_values=640, 1280, 2560", *points)
    assert [row[0] for row in rows] == [640.0, 1280.0, 2560.0]
    errors = np.array([row[1:] for row in rows])
    assert np.all(np.isfinite(errors)) and np.all(errors > 0.0)
    for label in ("star_fit", "bracket_fit"):
        assert meta[label]["degenerate"] is False
        assert -2.3 <= float(meta[label]["slope"]) <= -1.7
