import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from arstat import algebra, cli
from arstat.errors import InvalidSpec
from arstat.starprod import STANDARD_PAIRS
from oracles import edge_csv_reference

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


def test_star_convergence_refuses_a_fractional_fermionic_label(tmp_path):
    # the sweep once truncated k = 20.5 to 20 and wrote 20.5 in the CSV
    result = run_cli("star-convergence", "--out", str(tmp_path), "--set", "sweep.k_values=20.5,40,80")
    assert result.returncode == 2
    assert result.stderr == "error: fermionic family needs integer k, got 20.5\n"
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


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


# Two modes per component at velocities 1 and 2: the angular grids must
# exceed 2 * 2 points and the time grid 2 * (1 * 2 + 2 * 2) = 12 samples.
RESOLVED_EDGE = [
    "edge.velocities=1,2",
    "edge.winding=0,0",
    "edge.zero_mode=0,0",
    "edge.amplitudes=0.5,0.2;0.3j,0.1",
]


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
        # malformed list values
        ("edge-sim", ["edge.velocities=abc"]),
        ("edge-sim", ["edge.winding=abc"]),
        ("edge-sim", ["edge.zero_mode=abc"]),
        ("edge-sim", ["edge.amplitudes=0.5+zz"]),
        ("star-convergence", ["sweep.k_values=a,b,c"]),
        ("star-convergence", ["sweep.points=0.3+zz"]),
        ("star-convergence", ["sweep.points=;"]),
        ("edge-sim", ["edge.velocities=", "edge.winding=", "edge.zero_mode=", "edge.amplitudes="]),
        ("spectrum", ["hamiltonian.e=x,y"]),
        # grids one sample short of resolving the field
        ("edge-sim", [*RESOLVED_EDGE, "edge.n_theta=16", "edge.n_time=12"]),
        ("edge-sim", [*RESOLVED_EDGE, "edge.n_theta=4", "edge.n_time=32"]),
        # a time resolution bound that overflows to inf
        ("edge-sim", ["edge.velocities=1e308", "edge.n_time=1000"]),
        # 64 * 300000^2 samples, refused before any array is allocated
        ("edge-sim", [*RESOLVED_EDGE, "edge.n_theta=300000"]),
        ("edge-sim", ["edge.algebra_modes=1000000000000"]),
        # finite inputs whose field overflows double precision
        ("edge-sim", ["edge.zero_mode=1e308"]),
        ("edge-sim", ["edge.winding=1e308"]),
        # a subnormal window of whole periods (a static field): the action's
        # time frequencies overflow.  With a moving mode the window is not
        # a whole period and the action is skipped (see below).
        ("edge-sim", ["edge.periods=1e-320", "edge.velocities=0"]),
        ("edge-sim", ["edge.periods=5e-324"]),
        # values and sections that configparser itself refuses
        ("edge-sim", ["edge.velocities=1%"]),
        ("edge-sim", ["edge.n_theta=%(x)s"]),
        ("edge-sim", ["DEFAULT.n_theta=8"]),
        # sizes refused before any array is allocated
        ("husimi", ["droplet.N=2", "droplet.points=100000000000"]),
        ("star-convergence", ["sweep.k_values=20,40,1e300"]),
        ("star-convergence", ["sweep.s=1", "sweep.n_max=1000000000000"]),
        # a label whose scale kappa = (2k + s - 1)/2 overflows
        ("husimi", ["droplet.N=2", "statistics.k=1.7e308"]),
        # sweep mode counts refused before any array is allocated
        ("star-convergence", ["sweep.r=1000000000000", "sweep.k_values=20,40,1e300"]),
        ("star-convergence", ["sweep.r=1000000000000", "sweep.s=1", "sweep.n_max=0"]),
        # a fermionic label must be an integer
        ("star-convergence", ["sweep.k_values=20.5,40,80"]),
        ("star-convergence", ["sweep.r=0"]),
        # occupation energies that overflow double precision
        ("spectrum", ["hamiltonian.e=1e308,1e308"]),
        ("verify", ["hamiltonian.e=1e308,1e308"]),
        # a dense family whose dimension is too large to count
        ("verify", ["statistics.r=10000000", "statistics.k=10000000"]),
    ],
)
def test_config_shaped_values_exit_two(tmp_path, command, overrides):
    args = [item for override in overrides for item in ("--set", override)]
    result = run_cli(command, "--out", str(tmp_path), *args)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.strip().splitlines()) == 1


def test_basis_size_gate_counts_states_and_modes():
    def excess(limit, **fields):
        return cli._basis_excess(algebra.StatisticsSpec(**fields), limit)

    # three modes to k=200 are 1,353,400 states, under the sweep limit
    assert excess(cli.SWEEP_DIM_LIMIT, r=3, s=-1, k=200) is None
    assert excess(cli.SWEEP_DIM_LIMIT, r=3, s=-1, k=300) == "basis dimension 4545100"
    assert excess(cli.DENSE_DIM_LIMIT, r=2, s=-1, k=16) is None
    assert excess(cli.DENSE_DIM_LIMIT, r=2, s=-1, k=100) == "basis dimension 5050"
    # huge arguments are settled by cap + r before C(cap + r, r) is counted
    huge = 10**12
    assert excess(cli.SWEEP_DIM_LIMIT, r=huge, s=-1, k=huge) == f"mode count plus occupancy cap {2 * huge - 1}"
    assert excess(cli.SWEEP_DIM_LIMIT, r=huge, s=+1, k=2.0, n_max=0) == f"mode count plus occupancy cap {huge}"


def _edge_args(out, overrides, *extra):
    return ["edge-sim", "--out", str(out), *extra,
            *[item for override in overrides for item in ("--set", override)]]


def test_edge_sim_grid_at_the_resolution_threshold(tmp_path):
    at_threshold = [*RESOLVED_EDGE, "edge.n_theta=5", "edge.n_time=13"]
    result = run_cli(*_edge_args(tmp_path, at_threshold, "--format", "json"))
    assert result.returncode == 0, result.stderr
    meta = json.loads((tmp_path / "edge_sim.json").read_text())
    assert abs(float(meta["action_value"])) < 1e-10
    assert float(meta["eom_residual"]) < 1e-12
    for grid, smallest in (("edge.n_theta=4", "n_theta >= 5"), ("edge.n_time=12", "n_time >= 13")):
        below = run_cli(*_edge_args(tmp_path, [*at_threshold, grid]))
        assert below.returncode == 2 and smallest in below.stderr, below.stderr


def run_in_process(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(args))


def test_set_strips_section_and_key(tmp_path):
    # an unknown section written with a space is added under its stripped name
    assert run_in_process("edge-sim", "--out", str(tmp_path), "--set", "foo .x=1") == 0
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        code = run_in_process("edge-sim", "--out", str(tmp_path), "--set", " edge . n_time = 1")
    assert code == 2
    assert "[edge] n_time = 1 must be at least 2" in errors.getvalue()


# The default algebra is one zero mode (dimension 8) and one oscillator
# (level 6); the last two cases put the total at the 300,000 budget.  There
# sqrt(n)^2 - n rounds to a few ulp of n, past the fixed 1e-12 bound.
@pytest.mark.parametrize(
    "override,expected",
    [("edge.algebra_level=2000", 0), ("edge.algebra_level=37500", 1),
     ("edge.algebra_zero_dim=50000", 1)],
)
def test_edge_sim_mode_algebra_up_to_the_budget(tmp_path, override, expected):
    assert run_in_process("edge-sim", "--out", str(tmp_path), "--set", override) == expected
    meta = json.loads((tmp_path / "edge_sim.json").read_text())
    residual = float(meta["mode_commutator_residual"])
    assert 0.0 < residual <= 4 * max(meta["hilbert_dimensions"]) * np.finfo(float).eps


EDGE_COUNTS = {"n_theta": (5, 16), "n_time": (2, 16), "algebra_modes": (1, 2),
               "algebra_level": (3, 6), "algebra_zero_dim": (3, 8)}
# Up to the mode-algebra budget with every other factor at its default.
BUDGET_SIZED = {"algebra_level": (1_000, 37_500), "algebra_zero_dim": (1_000, 50_000)}
# Each is past the sample limit or the mode-algebra budget on its own, so
# no draw allocates a large grid.
HUGE_COUNTS = (10**12, 2**63, 10**30)
EXTREME_NUMBERS = (1e308, -1e308, 1e200, 1e-320, 5e-324)
MALFORMED = ("nan", "inf", "-1", "0", "", "x", "%", ";", "%(x)s")
SECTIONS = ("edge", " edge", "edge ", " edge ", "foo ", " bar", "DEFAULT")


def _edge_value(draw, key, r, extreme):
    """One value for ``[edge] key`` on r components: a small, well-formed
    one, or with ``extreme`` a huge, tiny, non-finite or malformed one."""
    if extreme and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(MALFORMED))
    if extreme and key in BUDGET_SIZED and draw(st.booleans()):
        return str(draw(st.integers(*BUDGET_SIZED[key])))
    if key in EDGE_COUNTS:
        return str(draw(st.sampled_from(HUGE_COUNTS) if extreme else st.integers(*EDGE_COUNTS[key])))
    if key == "corrupted":
        return draw(st.sampled_from(("false", "true", "no")))
    if key == "periods":
        return repr(draw(st.sampled_from(EXTREME_NUMBERS) if extreme else st.floats(0.05, 1.0)))
    number = st.floats(-1.0, 1.0)
    if extreme:
        number = st.sampled_from(EXTREME_NUMBERS) | number
    if key == "amplitudes":
        group = st.lists(st.complex_numbers(max_magnitude=1.0) | number.map(complex), min_size=1, max_size=2)
        return ";".join(",".join(map(str, grp)) for grp in draw(st.lists(group, min_size=r, max_size=r)))
    if key == "winding" and not extreme:
        number = st.sampled_from((0.0, 0.0, 0.5))  # zero winding runs the action
    return ",".join(repr(v) for v in draw(st.lists(number, min_size=r, max_size=r)))


@st.composite
def edge_overrides(draw):
    """``--set`` items for edge-sim: a small field on r components, then a
    few overrides of any [edge] key, some extreme, some in a spaced section."""
    r = draw(st.integers(1, 2))
    base = ("velocities", "winding", "zero_mode", "amplitudes", "n_theta", "n_time")
    items = [f"edge.{key}={_edge_value(draw, key, r, extreme=False)}" for key in base]
    keys = st.sampled_from([*base, "periods", "corrupted", "algebra_modes", "algebra_level", "algebra_zero_dim"])
    for key in draw(st.lists(keys, max_size=3)):
        section = draw(st.sampled_from(SECTIONS))
        items.append(f"{section}.{key}={_edge_value(draw, key, r, extreme=draw(st.booleans()))}")
    return items


@given(overrides=edge_overrides())
# one input per check added with this test, each of which once raised or
# asked for tens of GB; the random draws reach them only by chance
@example(overrides=["foo .x=1"])
@example(overrides=["edge.velocities=1e308", "edge.n_time=1000"])
@example(overrides=["edge.n_theta=1000000000000"])
@example(overrides=["edge.algebra_level=37500"])
# a window that is not a whole period of the mode: the action is skipped
@example(overrides=["edge.velocities=0.5"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_edge_sim_settings_exit_0_1_or_2(overrides):
    errors = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(errors):
        code = run_in_process("edge-sim", "--out", out, *(f"--set={item}" for item in overrides))
        if code == 1:
            # A corrupted run exits 0, and the action check cannot fail a
            # genuine solution: some other check must be past its tolerance.
            report = json.loads((Path(out) / "edge_sim.json").read_text())
            assert not report["corrupted"]
            tolerances = cli.DEFAULT_CONFIG["tolerances"]
            assert (
                float(report["eom_residual"]) > float(tolerances["eom"])
                or float(report["periodicity_residual"]) > float(tolerances["periodicity"])
                or float(report["mode_commutator_residual"]) > 1e-12
            ), report
    assert code in (0, 1, 2)
    assert "Traceback" not in errors.getvalue()


@pytest.mark.parametrize(
    "overrides,whole",
    [
        (["edge.velocities=0.5"], False),
        (["edge.velocities=0.5", "edge.periods=2"], True),
        (["edge.velocities=0.1"], False),  # 0.1 is not 1/10 as a double
        (["edge.velocities=0.1", "edge.periods=10"], False),
        (["edge.velocities=0.25", "edge.periods=4"], True),
        (["edge.velocities=0.5", "edge.amplitudes=0,0.5"], True),  # only mode 2 is active
        (["edge.periods=1e-320"], False),
        ([*RESOLVED_EDGE, "edge.periods=0.5"], False),  # mode 1 of the first component
        ([*RESOLVED_EDGE, "edge.periods=0.5", "edge.amplitudes=0,0.2;0.3j,0.1"], True),
    ],
)
def test_edge_action_needs_a_window_of_whole_periods(tmp_path, overrides, whole):
    result = run_cli(*_edge_args(tmp_path, overrides, "--format", "json"))
    assert result.returncode == 0, result.stdout + result.stderr
    meta = json.loads((tmp_path / "edge_sim.json").read_text())
    assert float(meta["eom_residual"]) < 1e-12
    if whole:
        assert abs(float(meta["action_value"])) < 1e-10
    else:
        assert meta["action_value"] is None
        assert "action n/a (window not a whole period of every mode)" in result.stdout


# The edge-csv benchmark's size: 64 x 64 angles, 32 times, two modes per
# component, a dim-82,944 mode algebra; 131,072 CSV rows, ~10 MB.
EDGE_CSV_SIZED = [*RESOLVED_EDGE, "edge.n_theta=64", "edge.n_time=32", "edge.algebra_modes=2"]


@pytest.mark.parametrize(
    "overrides",
    [
        ["edge.n_theta=7", "edge.n_time=5"],
        RESOLVED_EDGE + ["edge.n_theta=7", "edge.n_time=13"],
        ["edge.velocities=1,2,3", "edge.winding=0,0,0.5", "edge.zero_mode=0.1,0.2,0.3",
         "edge.amplitudes=0.5;0.2j;0.1+0.1j", "edge.n_theta=5", "edge.n_time=4"],
    ],
    ids=["r1", "r2-odd", "r3"],
)
def test_streamed_edge_csv_matches_the_in_memory_join(tmp_path, monkeypatch, overrides):
    seen = []
    streamed = cli.edge_csv_blocks

    def recording(times, axes, samples):
        seen.append((times, axes, samples))
        return streamed(times, axes, samples)

    monkeypatch.setattr(cli, "edge_csv_blocks", recording)
    assert run_in_process(*_edge_args(tmp_path, overrides)) == 0
    [(times, axes, samples)] = seen
    assert samples.shape == (len(times), *(len(ax) for ax in axes))
    expected = edge_csv_reference(times, axes, samples).encode()
    assert (tmp_path / "edge_sim.csv").read_bytes() == expected


def test_edge_sim_json_only_formats_no_csv_cell(tmp_path, monkeypatch):
    consumed = []
    fmt_calls = []
    streamed, fmt = cli.edge_csv_blocks, cli.fmt

    def counting_blocks(*args):
        for block in streamed(*args):
            consumed.append(block)
            yield block

    def counting_fmt(value):
        fmt_calls.append(value)
        return fmt(value)

    monkeypatch.setattr(cli, "edge_csv_blocks", counting_blocks)
    monkeypatch.setattr(cli, "fmt", counting_fmt)
    assert run_in_process(*_edge_args(tmp_path, EDGE_CSV_SIZED, "--format", "json")) == 0
    assert not (tmp_path / "edge_sim.csv").exists()
    assert (tmp_path / "edge_sim.json").is_file()
    assert consumed == []
    # the report's four residuals; no time, angle or phi cell
    assert len(fmt_calls) == 4


def test_edge_sim_peak_traced_allocation(tmp_path):
    # The CSV is streamed one 4,096-line time slice at a time; joining all
    # rows in memory peaked at ~37 MiB, against a 1 MiB sample array.
    tracemalloc.start()
    try:
        assert run_in_process(*_edge_args(tmp_path, EDGE_CSV_SIZED)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "edge_sim.csv").stat().st_size > 10_000_000
    assert peak < 16 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"


# sha256 of data files recorded before the column-wise CSV writer and the
# factor-local mode check; both must reproduce them byte for byte.
GOLDEN_EDGE = [
    "edge.velocities=1.0,2.0",
    "edge.winding=0.0,0.0",
    "edge.zero_mode=0.3,-0.2",
    "edge.amplitudes=0.5,0.2-0.1j;0.3j,0.1+0.05j",
    "edge.n_theta=8",
    "edge.n_time=16",
    "edge.algebra_modes=2",
]
HUSIMI_FERMIONIC = ["droplet.N=2"]
HUSIMI_BOSONIC = ["statistics.s=1", "statistics.k=200", "statistics.n_max=60", "droplet.N=20"]
GOLDEN_DIGESTS = [
    ("edge-sim", GOLDEN_EDGE, {
        "edge_sim.csv": "02c62ee15b2b3eca4cca6714ae899ff29fdb81d46a1c4f805e4366a219ff481a",
        "edge_sim.json": "65f13b7b2d2ecae497650f0c93e9acc639ad18cb8ef7a4d9b5ad0a07739c4967",
    }),
    ("spectrum", [], {
        "spectrum.csv": "70d18e3e89af7521733986b2d8bbf5dca14e2e4e250d89bd2092a128b66279f3",
    }),
    ("husimi", HUSIMI_FERMIONIC, {
        "husimi.csv": "9e34d4828b2a8f74baa3b2ae93e2275c1fea25e124a22afab8ae24acbd28fcc6",
    }),
    ("husimi", HUSIMI_BOSONIC, {
        "husimi.csv": "910f2a24d958e076646f0c49d6ee94b7caad315b26e8606d49b94227824f2adc",
    }),
]


@pytest.mark.parametrize("command,overrides,digests", GOLDEN_DIGESTS)
def test_data_files_match_golden_digests(tmp_path, command, overrides, digests):
    args = [item for override in overrides for item in ("--set", override)]
    result = run_cli(command, "--out", str(tmp_path), *args)
    assert result.returncode == 0, result.stderr
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the "rho,mean_occupation" columns of each husimi golden file,
# header included, as written when the profile came from
# scipy.special.betainc.  These two columns do not involve the incomplete
# beta function; the value column is compared with betainc itself.
HUSIMI_GRID_DIGESTS = [
    (HUSIMI_FERMIONIC, "d42b822bbf6e3e08628ee3dd0505839cd0ca5528fa44838c1eafb37ca2ac1f1d"),
    (HUSIMI_BOSONIC, "06ced443a02c3bb2fcceb15076abc28833d23173c763e0cbc2ac67c2c3c73780"),
]


@pytest.mark.parametrize("overrides,grid_digest", HUSIMI_GRID_DIGESTS)
def test_husimi_profile_matches_scipy_betainc(tmp_path, overrides, grid_digest):
    from scipy.special import betainc

    args = [item for override in overrides for item in ("--set", override)]
    assert run_in_process("husimi", "--out", str(tmp_path), *args) == 0
    lines = (tmp_path / "husimi.csv").read_text().splitlines()
    grid = "".join(",".join(line.split(",")[:2]) + "\n" for line in lines)
    assert hashlib.sha256(grid.encode()).hexdigest() == grid_digest
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    rho, value = rows[:, 0], rows[:, 2]
    k, cap, s = rows[0, 3:6]
    if s == 1:
        expected = betainc(k, cap + 1, 1.0 - rho)
    else:
        expected = betainc(k - 1 - cap, cap + 1, 1.0 / (1.0 + rho))
    np.testing.assert_allclose(value, expected, rtol=0.0, atol=1e-13)


# N = 2 far below k: the profile is the Poisson(mu) distribution function at
# 2, whose median is crossed at mu = 2.6740603.  At these k, 1 - rho rounds
# to 1, so only rho itself can carry the profile.
@pytest.mark.parametrize("s", ["-1", "1"])
@pytest.mark.parametrize("k", ["1e20", "1e300", "8.9e307"])
def test_husimi_large_k_crosses_at_the_poisson_median(tmp_path, s, k):
    overrides = ["droplet.N=2", f"statistics.s={s}", f"statistics.k={k}", "statistics.n_max=4"]
    args = [item for override in overrides for item in ("--set", override)]
    assert run_in_process("husimi", "--out", str(tmp_path), *args) == 0
    meta = json.loads((tmp_path / "husimi.json").read_text())
    assert float(meta["crossing_mean_occupation"]) == pytest.approx(2.6740603, abs=1e-6)
    assert _numbers_are_finite(tmp_path)


def _numbers_are_finite(directory: Path) -> bool:
    """No nan or inf in any data cell or report value written to ``directory``."""
    def strings(node):
        if isinstance(node, dict):
            # a hex hash such as 98e9413257599752 parses as a float (inf)
            node = [value for key, value in node.items() if key != "config_hash"]
        if isinstance(node, list):
            return [cell for item in node for cell in strings(item)]
        return [node] if isinstance(node, str) else []

    cells = []
    for path in directory.iterdir():
        if path.suffix == ".csv":
            cells += [cell for line in path.read_text().splitlines()[1:] for cell in line.split(",")]
        else:
            cells += strings(json.loads(path.read_text()))  # nested checks and fits too
    numbers = []
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:
            pass  # a command name, hash or note
    return bool(np.all(np.isfinite(numbers)))


def _husimi_value(draw, key, s, extreme):
    """One value for ``key`` of a husimi run: small and well formed, or with
    ``extreme`` a huge, tiny, non-finite or malformed one."""
    if extreme:
        return draw(st.sampled_from(
            ("1e20", "1e300", "8.9e307", "1.7e308", "5e-324", "1000000000000", "100000000000",
             "-1", "0", "nan", "inf", "", "x", "%")
        ))
    if key == "k":
        return str(draw(st.integers(2, 60))) if s == -1 else repr(draw(st.floats(1.01, 100.0)))
    if key == "points":
        return str(draw(st.integers(1, 60)))
    return str(draw(st.integers(0, 40)))  # N, n_max


@st.composite
def husimi_overrides(draw):
    """``--set`` items for husimi: a small family and droplet, then a few
    overrides of their keys, some extreme."""
    s = draw(st.sampled_from((-1, 1)))
    r = draw(st.integers(1, 3))
    keys = {"k": "statistics", "n_max": "statistics", "N": "droplet", "points": "droplet"}
    items = [f"statistics.s={s}", f"statistics.r={r}"]
    items += [f"{section}.{key}={_husimi_value(draw, key, s, False)}" for key, section in keys.items()]
    for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=3)):
        items.append(f"{keys[key]}.{key}={_husimi_value(draw, key, s, draw(st.booleans()))}")
    return items


@given(overrides=husimi_overrides())
# the inputs that once wrote nan, raised, or reported a crossing at 0
@example(overrides=["droplet.N=2", "statistics.k=1e300"])
@example(overrides=["droplet.N=2", "statistics.k=1e20"])
@example(overrides=["droplet.N=2", "droplet.points=100000000000"])
@example(overrides=["statistics.s=1", "statistics.k=8.9e307", "statistics.n_max=40", "droplet.N=20"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_husimi_settings_exit_0_1_or_2(overrides):
    errors = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(errors):
        code = run_in_process("husimi", "--out", out, *(f"--set={item}" for item in overrides))
        assert _numbers_are_finite(Path(out))
    assert code in (0, 1, 2)
    assert "Traceback" not in errors.getvalue()


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


# Values that are huge, tiny, non-finite, fractional or malformed for any
# key of a family, its Hamiltonian or verify's point count.
FAMILY_EXTREMES = ("1e300", "8.9e307", "1.7e308", "5e-324", "1000000000000", "2.5",
                   "-1", "0", "nan", "inf", "", "x", "%", ";")
FAMILY_KEYS = ("statistics.r", "statistics.s", "statistics.k", "statistics.n_max",
               "hamiltonian.e0", "hamiltonian.e", "verify.n_points")


def _family_value(draw, key, s, r, extreme):
    """One value for ``key`` of a family with sign s on r modes: small and
    well formed (r <= 2, k <= 12, n_max <= 30), or with ``extreme`` one of
    FAMILY_EXTREMES, alone or inside the list of energies."""
    if extreme and (key != "hamiltonian.e" or draw(st.booleans())):
        return draw(st.sampled_from(FAMILY_EXTREMES))
    if key == "hamiltonian.e":
        cells = [repr(draw(st.floats(-5.0, 5.0))) for _ in range(r)]
        if extreme:
            cells[draw(st.integers(0, r - 1))] = draw(st.sampled_from(FAMILY_EXTREMES))
        return ",".join(cells)
    if key == "hamiltonian.e0":
        return repr(draw(st.floats(-5.0, 5.0)))
    if key == "statistics.k":
        return str(draw(st.integers(2, 12))) if s == -1 else repr(draw(st.floats(1.01, 12.0)))
    if key == "statistics.r":
        return str(draw(st.integers(1, 2)))
    if key == "statistics.s":
        return draw(st.sampled_from(("-1", "1")))
    if key == "verify.n_points":
        return str(draw(st.integers(1, 5)))
    return str(draw(st.integers(0, 30)))  # n_max


@st.composite
def family_overrides(draw):
    """``--set`` items for verify and spectrum: a small family, then a few
    overrides of its keys, its Hamiltonian or the point count, some extreme."""
    s = draw(st.sampled_from((-1, 1)))
    r = draw(st.integers(1, 2))
    base = ("statistics.k", "statistics.n_max")
    items = [f"statistics.s={s}", f"statistics.r={r}"]
    items += [f"{key}={_family_value(draw, key, s, r, False)}" for key in base]
    for key in draw(st.lists(st.sampled_from(FAMILY_KEYS), max_size=3)):
        items.append(f"{key}={_family_value(draw, key, s, r, draw(st.booleans()))}")
    return items


def _dense_command_exits_0_1_or_2(command, overrides):
    errors = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(errors):
        code = run_in_process(command, "--out", out, *(f"--set={item}" for item in overrides))
        assert _numbers_are_finite(Path(out))
    assert code in (0, 1, 2)
    assert "Traceback" not in errors.getvalue()


@given(overrides=family_overrides())
@example(overrides=["statistics.r=40"])  # 12,341 states, refused before any work
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_spectrum_settings_exit_0_1_or_2(overrides):
    _dense_command_exits_0_1_or_2("spectrum", overrides)


@given(overrides=family_overrides())
@example(overrides=["statistics.r=40"])
# a Gauss-Jacobi rule of weight (1 - t)^1e300 overflowed into a traceback,
# and a huge point count was drawn point by point until memory ran out
@example(overrides=["statistics.s=1", "statistics.r=1", "statistics.k=1e300", "statistics.n_max=1"])
@example(overrides=["verify.n_points=1000000000000"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_verify_settings_exit_0_1_or_2(overrides):
    _dense_command_exits_0_1_or_2("verify", overrides)


def test_threads_option_is_gone(tmp_path):
    result = run_cli("verify", "--out", str(tmp_path), "--threads", "2")
    assert result.returncode == 2
    assert "--threads" in result.stderr


# Recorded with exact symbol gradients and log coefficients from math.lgamma.
STAR_GOLDEN = [
    (6.0, 1.2551328285898868e-05, 0.037192064985859141),
    (8.0, 6.8611488443365287e-06, 0.020330939314427338),
    (10.0, 4.3042963943536183e-06, 0.012754480447825445),
]

# The same run with log coefficients from scipy.special.gammaln.  They differ
# in their last bits, which moved the star remainders by at most 5.2e-18
# (1.2e-12 relative, at k=10) and the bracket remainders by at most 4.2e-17.
STAR_GAMMALN_GOLDEN = [
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
    for row, golden, gammaln_golden, fd_golden in zip(rows, STAR_GOLDEN, STAR_GAMMALN_GOLDEN, STAR_FD_GOLDEN):
        assert row == pytest.approx(golden, rel=1e-12, abs=0.0)
        assert row[0] == gammaln_golden[0]
        assert row[1] == pytest.approx(gammaln_golden[1], rel=0.0, abs=6e-18)
        assert row[2] == pytest.approx(gammaln_golden[2], rel=0.0, abs=5e-17)
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


# Values that are huge, tiny, non-finite, fractional or malformed for any
# [sweep] key; each list key also gets them as one entry among small ones.
SWEEP_EXTREMES = ("1e300", "8.9e307", "1.7e308", "5e-324", "1000000000000", "20.5",
                  "-1", "0", "nan", "inf", "", "x", "%", ";")


def _sweep_value(draw, key, s, r, extreme):
    """One value for ``[sweep] key`` of a sweep with sign s on r modes: small
    and well formed (r <= 2, k <= 40, n_max <= 30), or with ``extreme`` one
    of SWEEP_EXTREMES, alone or inside a list."""
    if extreme and (key not in ("k_values", "points") or draw(st.booleans())):
        return draw(st.sampled_from(SWEEP_EXTREMES))
    if key == "k_values":
        if s == -1 and not extreme:
            ks = draw(st.lists(st.integers(2, 40), min_size=3, max_size=4, unique=True))
        else:
            ks = draw(st.lists(st.floats(1.01, 40.0), min_size=3, max_size=4, unique=True))
        cells = [repr(k) for k in sorted(ks)]
        if extreme:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(SWEEP_EXTREMES))
        return ",".join(cells)
    if key == "points":
        scale = 0.45 if s == -1 else 0.3 / r
        number = st.complex_numbers(max_magnitude=scale).map(str)
        if extreme:
            number = st.sampled_from(SWEEP_EXTREMES) | number
        groups = draw(st.lists(st.lists(number, min_size=r, max_size=r), min_size=1, max_size=2))
        return ";".join(",".join(group) for group in groups)
    if key == "pair":
        return draw(st.sampled_from(sorted(STANDARD_PAIRS)))
    if key == "r":
        return str(draw(st.integers(1, 2)))
    if key == "s":
        return draw(st.sampled_from(("-1", "1")))
    return str(draw(st.integers(0, 30)))  # n_max


@st.composite
def sweep_overrides(draw):
    """``--set`` items for star-convergence: a small sweep, then a few
    overrides of any [sweep] key, some extreme."""
    s = draw(st.sampled_from((-1, 1)))
    r = draw(st.integers(1, 2))
    items = [f"sweep.s={s}", f"sweep.r={r}",
             f"sweep.k_values={_sweep_value(draw, 'k_values', s, r, False)}",
             f"sweep.n_max={_sweep_value(draw, 'n_max', s, r, False)}",
             f"sweep.pair={_sweep_value(draw, 'pair', s, r, False)}"]
    keys = st.sampled_from(("r", "s", "k_values", "n_max", "pair", "points"))
    for key in draw(st.lists(keys, max_size=3)):
        items.append(f"sweep.{key}={_sweep_value(draw, key, s, r, draw(st.booleans()))}")
    return items


def _inadmissible_sweep_labels(out: Path, args: list[str]) -> list[float]:
    """The k values of a written sweep CSV that its family does not admit."""
    path = out / "star_convergence.csv"
    if not path.exists():
        return []
    cfg = cli.load_config(cli.build_parser().parse_args(["star-convergence", *args]))
    r, s, n_max = (cfg.get("sweep", key, int) for key in ("r", "s", "n_max"))
    rejected = []
    for line in path.read_text().splitlines()[1:]:
        k = float(line.split(",")[0])
        try:
            algebra.StatisticsSpec(r=r, s=s, k=k, n_max=n_max if s == 1 else None)
        except InvalidSpec:
            rejected.append(k)
    return rejected


@given(overrides=sweep_overrides())
# a fractional fermionic label, once computed at its integer part and
# written unchanged; then sizes and mode counts refused before any work
@example(overrides=["sweep.k_values=20.5,40,80"])
@example(overrides=["sweep.r=1000000000000", "sweep.s=1", "sweep.n_max=0"])
@example(overrides=["sweep.r=0"])
@example(overrides=["sweep.s=1", "sweep.k_values=1e300,1e301,1e302", "sweep.points=0"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_star_convergence_settings_exit_0_1_or_2(overrides):
    args = [f"--set={item}" for item in overrides]
    errors = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(errors):
        code = run_in_process("star-convergence", "--out", out, *args)
        assert _numbers_are_finite(Path(out))
        assert _inadmissible_sweep_labels(Path(out), args) == []
    assert code in (0, 1, 2)
    assert "Traceback" not in errors.getvalue()
