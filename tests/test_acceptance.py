"""Acceptance suite: every top-level claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion together with its runtime.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from arstat.algebra import (
    HamiltonianSpec,
    StatisticsSpec,
    enumerate_basis,
    fermionic_dimension,
    hamiltonian_from_commutators,
    large_k_commutator_deviation,
    verify_triple_relations,
)
from arstat.bargmann import (
    build_quadrature,
    distance_hessian,
    metric,
    orthonormality_gram,
    overlap,
    overlap_from_vectors,
)
from arstat.droplet import DropletSpec, step_profile_check
from arstat.edge import (
    EdgeField,
    action_value,
    build_mode_algebra,
    eom_residual,
    mode_commutator_residual,
    periodicity_residual,
    random_edge_field,
    sample_field,
)
from arstat.starprod import convergence_study, standard_pair

from oracles import binomial_cdf, negative_binomial_cdf

PKG_ROOT = Path(__file__).resolve().parents[1]


def report(number: int, name: str, passed: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {elapsed:.2f}s / {budget:.0f}s budget  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_1_algebra_exactness():
    start = time.perf_counter()
    worst = 0.0
    for r in (1, 2, 3):
        for s in (-1, +1):
            for k in range(2, 9):
                spec = StatisticsSpec(r=r, s=s, k=k, n_max=8 if s == +1 else None)
                rep = verify_triple_relations(enumerate_basis(spec))
                worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - start
    report(1, "algebra exactness", worst < 1e-10, elapsed, 10.0, f"max residual {worst:.2e}")


def test_criterion_2_dimension_and_spectrum():
    start = time.perf_counter()
    worst = 0.0
    dims_ok = True
    for r in (1, 2, 3, 4):
        for k in range(2, 11):
            spec = StatisticsSpec(r=r, s=-1, k=k)
            basis = enumerate_basis(spec)
            dims_ok = dims_ok and basis.dim == fermionic_dimension(r, k)
            hspec = HamiltonianSpec(e0=0.25, e=tuple(0.5 + 0.3 * i for i in range(r)))
            # H assembled from the ladder commutators must be diagonal, with
            # e0 + sum_i e_i n_i on state n
            h = hamiltonian_from_commutators(basis, hspec).tocoo()
            on_diagonal = h.row == h.col
            expected = [
                hspec.e0 + sum(e * n for e, n in zip(hspec.e, occ)) for occ in basis.occupations.tolist()
            ]
            diagonal = np.zeros(basis.dim, dtype=complex)
            diagonal[h.row[on_diagonal]] = h.data[on_diagonal]
            worst = max(worst, float(np.max(np.abs(diagonal - expected))),
                        float(np.max(np.abs(h.data[~on_diagonal]), initial=0.0)))
    elapsed = time.perf_counter() - start
    passed = dims_ok and worst < 1e-12
    report(2, "dimension & spectrum", passed, elapsed, 5.0,
           f"spectrum deviation {worst:.2e}, dimensions exact: {dims_ok}")


def test_criterion_3_bargmann_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_overlap = 0.0
    worst_hessian = 0.0
    worst_inverse = 0.0
    for spec, scale in [
        (StatisticsSpec(r=2, s=-1, k=6), 0.8),
        (StatisticsSpec(r=2, s=+1, k=4.0, n_max=64), 0.30),
    ]:
        basis = enumerate_basis(spec)
        for _ in range(100):
            z = scale * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
            w = scale * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
            closed = overlap(spec, z, w)
            series = overlap_from_vectors(spec, basis, z, w)
            worst_overlap = max(worst_overlap, abs(closed - series))
        for _ in range(5):
            z = scale * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
            m = metric(spec, z)
            worst_hessian = max(
                worst_hessian, float(np.max(np.abs(m.g - distance_hessian(spec, z))))
            )
            worst_inverse = max(
                worst_inverse, float(np.max(np.abs(m.g @ m.g_inv - np.eye(2))))
            )

    worst_gram = 0.0
    for r in (1, 2):
        for s in (-1, +1):
            k_lo = 2 if s == -1 else r + 1
            for k in range(k_lo, 7):
                spec = StatisticsSpec(r=r, s=s, k=float(k) if s == +1 else k,
                                      n_max=8 if s == +1 else None)
                basis = enumerate_basis(spec)
                keep = [i for i, occ in enumerate(basis.occupations.tolist())
                        if sum(occ) <= min(4, spec.total_cap)]
                rule = build_quadrature(spec, n_radial=48)
                gram = orthonormality_gram(rule, basis, min(4, spec.total_cap))
                worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(len(keep))))))
    elapsed = time.perf_counter() - start
    passed = (
        worst_overlap < 1e-8
        and worst_hessian < 1e-5
        and worst_inverse < 1e-10
        and worst_gram < 1e-6
    )
    report(3, "Bargmann consistency", passed, elapsed, 60.0,
           f"overlap {worst_overlap:.2e}, hessian {worst_hessian:.2e}, "
           f"inverse {worst_inverse:.2e}, gram {worst_gram:.2e}")


def test_criterion_4_droplet_limit():
    start = time.perf_counter()
    passed = True
    details = []
    for s in (+1, -1):
        widths = {}
        for k, cap in [(200, 100), (400, 200)]:
            spec = StatisticsSpec(r=1, s=s, k=float(k) if s == +1 else k,
                                  n_max=4 * cap if s == +1 else None)
            dspec = DropletSpec(spec, N=cap)
            check = step_profile_check(dspec)
            ok = check.passes(cap)
            passed = passed and ok
            widths[cap] = check.width_mu / cap
            # independent oracle: the log-space distribution functions
            rho_mid = cap / (spec.kappa + s * cap)  # mean occupancy = N
            if s == +1:
                oracle = negative_binomial_cdf(spec.k, rho_mid, cap)
            else:
                oracle = binomial_cdf(int(spec.k) - 1, rho_mid / (1 + rho_mid), cap)
            passed = passed and abs(oracle - 0.5) < 1.0 / math.sqrt(cap)
            details.append(f"s={s:+d} N={cap}: mid {check.value_mid:.3f}")
        shrink = widths[100] / widths[200]
        passed = passed and shrink >= 1.3
        details.append(f"s={s:+d} width shrink {shrink:.2f}x")
    elapsed = time.perf_counter() - start
    report(4, "droplet limit", passed, elapsed, 10.0, "; ".join(details))


def test_criterion_5_star_product_order():
    start = time.perf_counter()
    points = [[0.3], [0.45 + 0.1j], [-0.2 + 0.35j]]
    passed = True
    details = []
    for name in ("raise_sq_lower_sq", "number_sq_lower_sq", "number_raise_sq_lower_sq"):
        study = convergence_study(
            [20, 40, 80, 160],
            lambda k: StatisticsSpec(r=1, s=-1, k=int(k)),
            standard_pair(name),
            points,
        )
        ok = (
            not study.star_fit.degenerate
            and not study.bracket_fit.degenerate
            and abs(study.star_fit.slope + 2.0) <= 0.3
            and abs(study.bracket_fit.slope + 2.0) <= 0.3
        )
        passed = passed and ok
        details.append(
            f"{name}: star {study.star_fit.slope:.2f}, bracket {study.bracket_fit.slope:.2f}"
        )
    elapsed = time.perf_counter() - start
    report(5, "star-product order", passed, elapsed, 120.0, "; ".join(details))


def test_criterion_6_large_k_commutator():
    start = time.perf_counter()
    passed = True
    details = []
    for r in (1, 2):
        rows = large_k_commutator_deviation(r=r, s=+1, k_values=[50, 100, 200], n_cap=2)
        devs = {k: d for k, d in rows}
        for k, d in rows:
            passed = passed and d <= 4.0 / k + 1e-12
        for k in (50, 100):
            ratio = devs[k] / devs[2 * k]
            passed = passed and abs(ratio - 2.0) <= 0.2
        details.append(f"r={r}: dev(50)={devs[50]:.3e}")
    elapsed = time.perf_counter() - start
    report(6, "large-k commutator", passed, elapsed, 5.0, "; ".join(details))


def test_criterion_7_edge_theory():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_eom = 0.0
    worst_period = 0.0
    for _ in range(20):
        field = random_edge_field(int(rng.integers(1, 3)), int(rng.integers(1, 5)), rng)
        worst_eom = max(worst_eom, eom_residual(field, n_theta=64))
        worst_period = max(worst_period, periodicity_residual(field))

    # chiral action: zero-winding solution on a commensurate window
    field = EdgeField(
        velocities=(1.0,),
        winding=(0.0,),
        zero_mode=(0.3,),
        amplitudes=np.array([[0.5, 0.2 - 0.1j, 0.05j]]),
    )
    times = np.arange(64) * (2.0 * math.pi / 64)
    axes = [np.arange(64) * (2.0 * math.pi / 64)]
    chiral_action = action_value(sample_field(field, axes, times), [1.0], times)

    # anti-chiral benchmark: cos(theta + e t) integrates to -e pi T
    e = 1.0
    period = 2.0 * math.pi / e
    bench_times = np.arange(64) * (period / 64)
    theta = np.arange(64) * (2.0 * math.pi / 64)
    bench = np.cos(theta[None, :] + e * bench_times[:, None])
    bench_action = action_value(bench, [e], bench_times)
    bench_err = abs(bench_action - (-e * math.pi * period))

    worst_modes = 0.0
    for r in (1, 2):
        algebra_obj = build_mode_algebra(r, n_modes=2, level=6, zero_dim=4)
        worst_modes = max(worst_modes, mode_commutator_residual(algebra_obj))

    elapsed = time.perf_counter() - start
    passed = (
        worst_eom < 1e-12
        and worst_period < 1e-12
        and abs(chiral_action) < 1e-10
        and bench_err < 1e-8
        and worst_modes < 1e-13
    )
    report(7, "edge theory", passed, elapsed, 10.0,
           f"eom {worst_eom:.1e}, period {worst_period:.1e}, chiral action "
           f"{abs(chiral_action):.1e}, benchmark err {bench_err:.1e}, modes {worst_modes:.1e}")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "arstat", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    commands = [
        ("verify", []),
        ("spectrum", []),
        ("husimi", ["--set", "droplet.N=1"]),
        ("star-convergence", ["--set", "sweep.k_values=10, 20, 40"]),
        ("edge-sim", []),
    ]
    passed = True
    details = []
    for name, overrides in commands:
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        first = run_cli(name, "--out", str(out_a), *overrides)
        second = run_cli(name, "--out", str(out_b), *overrides)
        same = (
            first.returncode == 0
            and second.returncode == 0
            and {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
            == {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
        )
        passed = passed and same
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")

    # exit-code contract: 0 pass / 1 check failure / 2 config error
    ok_run = run_cli("verify", "--out", str(tmp_path / "ec0"))
    fail_run = run_cli("verify", "--out", str(tmp_path / "ec1"),
                       "--set", "tolerances.triple=0")
    config_run = run_cli("verify", "--out", str(tmp_path / "ec2"),
                         "--set", "statistics.k=0")
    codes = (ok_run.returncode, fail_run.returncode, config_run.returncode)
    passed = passed and codes == (0, 1, 2)
    details.append(f"exit codes {codes}")
    elapsed = time.perf_counter() - start
    report(8, "CLI determinism & exit codes", passed, elapsed, 120.0, "; ".join(details))
