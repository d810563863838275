"""The three benchmark workloads: generated inputs and output validation.

Each workload turns a seed into an INI configuration for one ``arstat``
command, and checks the files that command writes against references this
module computes itself (scipy's negative binomial, a numpy evaluation of
the edge field, a log-log fit of the written errors).  Values are compared
with tolerances, never byte digests, so an exact optimisation that moves
the last bits still validates.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import nbinom

SLOPE_BAND = (-2.3, -1.7)
HUSIMI_TOL = 1e-9
PHI_TOL = 1e-12
EDGE_SAMPLES = 16


@dataclass(frozen=True)
class Case:
    """One generated command: its argv tail, INI text and expectations."""

    command: str
    seed: int
    config: dict
    expect: dict

    def ini(self) -> str:
        lines = []
        for section, values in self.config.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        return "\n".join(lines)

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [
            self.command,
            "--config", str(config_path),
            "--out", str(out_dir),
            "--seed", str(self.seed),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, bool], Case]
    validate: Callable[[Case, Path], list[str]]

    def check(self, case: Case, out: Path) -> list[str]:
        """Problems with one run's output; missing or malformed files are problems too."""
        try:
            return self.validate(case, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]


def _complex_text(z: complex) -> str:
    return f"{float(z.real)!r}{float(z.imag):+.17g}j"


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# --------------------------------------------------------------- star-sweep

def make_star(seed: int, smoke: bool) -> Case:
    k_values = (6, 8, 10) if smoke else (8, 12, 16, 20)
    n_points = 1 if smoke else 3
    rng = np.random.default_rng(seed)
    points = [
        0.45 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        for _ in range(n_points)
    ]
    return Case(
        command="star-convergence",
        seed=seed,
        config={
            "sweep": {
                "r": 2,
                "s": -1,
                "k_values": ",".join(str(k) for k in k_values),
                "pair": "raise_sq_lower_sq",
                "points": ";".join(",".join(_complex_text(c) for c in p) for p in points),
            }
        },
        expect={"k_values": k_values},
    )


def validate_star(case: Case, out: Path) -> list[str]:
    header, rows = _read_csv(out / "star_convergence.csv")
    problems = []
    k_values = case.expect["k_values"]
    ks = [float(row[0]) for row in rows]
    if ks != [float(k) for k in k_values]:
        return [f"star CSV k column {ks} != {list(k_values)}"]
    fits = _read_json(out / "star_convergence.json")
    for col, label in ((1, "star_fit"), (2, "bracket_fit")):
        errors = np.array([float(row[col]) for row in rows])
        if not np.all(errors > 0):
            problems.append(f"{header[col]} has non-positive errors")
            continue
        slope = float(np.polyfit(np.log(ks), np.log(errors), 1)[0])
        if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
            problems.append(f"{header[col]} slope {slope:.3f} outside {SLOPE_BAND}")
        if fits[label].get("degenerate", True):
            problems.append(f"{label} reported degenerate")
    return problems


# -------------------------------------------------------------- husimi-step

def make_husimi(seed: int, smoke: bool) -> Case:
    # No free inputs: the seed is recorded but changes nothing.
    k, n_cap, points = (100, 200, 21) if smoke else (1000, 2000, 101)
    return Case(
        command="husimi",
        seed=seed,
        config={
            "statistics": {"r": 1, "s": 1, "k": k, "n_max": n_cap},
            "droplet": {"N": n_cap, "points": points},
        },
        expect={"k": k, "N": n_cap, "points": points},
    )


def validate_husimi(case: Case, out: Path) -> list[str]:
    _, rows = _read_csv(out / "husimi.csv")
    problems = []
    if len(rows) != case.expect["points"]:
        problems.append(f"husimi CSV has {len(rows)} rows, expected {case.expect['points']}")
    rho = np.array([float(row[0]) for row in rows])
    value = np.array([float(row[2]) for row in rows])
    reference = nbinom.cdf(case.expect["N"], case.expect["k"], 1.0 - rho)
    worst = float(np.max(np.abs(value - reference))) if rows else math.inf
    if not worst <= HUSIMI_TOL:
        problems.append(f"husimi profile deviates from the negative binomial by {worst:.3e}")
    if _read_json(out / "husimi.json").get("sharp_step") is not True:
        problems.append("husimi sharp_step is not true")
    return problems


# ----------------------------------------------------------------- edge-csv

def make_edge(seed: int, smoke: bool) -> Case:
    (n_theta, n_time), modes = ((16, 16), 1) if smoke else ((64, 32), 2)
    rng = np.random.default_rng(seed)
    amps = 0.5 * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
    # Integer velocities keep the history periodic over one period.
    velocities = (1.0, 2.0)
    return Case(
        command="edge-sim",
        seed=seed,
        config={
            "edge": {
                "velocities": ",".join(map(repr, velocities)),
                "winding": "0.0,0.0",
                "zero_mode": "0.0,0.0",
                "amplitudes": ";".join(",".join(_complex_text(a) for a in row) for row in amps),
                "n_theta": n_theta,
                "n_time": n_time,
                "periods": 1,
                "algebra_modes": modes,
                "algebra_level": 6,
                "algebra_zero_dim": 8,
            }
        },
        expect={
            "rows": n_theta ** 2 * n_time,
            "velocities": velocities,
            "amplitudes": amps,
            "algebra_dim": 8 ** 2 * 6 ** (2 * modes),
            "sample_seed": seed,
        },
    )


def edge_phi(velocities, amplitudes: np.ndarray, thetas: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Product of chiral components, zero winding and zero mode, vectorised."""
    n = np.arange(1, amplitudes.shape[1] + 1)
    phi = np.ones(t.shape)
    for i, e in enumerate(velocities):
        phase = (thetas[:, i] - e * t)[:, None] * n[None, :]
        terms = (1j * amplitudes[i] / n)[None, :] * np.exp(1j * phase)
        phi = phi * np.sum(2.0 * terms.real, axis=1)
    return phi


def validate_edge(case: Case, out: Path) -> list[str]:
    problems = []
    lines = (out / "edge_sim.csv").read_bytes().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    n_rows = len(lines) - 1
    if n_rows != case.expect["rows"]:
        problems.append(f"edge CSV has {n_rows} rows, expected {case.expect['rows']}")
    if n_rows > 0:
        rng = np.random.default_rng(case.expect["sample_seed"])
        picks = rng.integers(1, n_rows + 1, size=EDGE_SAMPLES)
        sample = np.array([[float(x) for x in lines[i].split(b",")] for i in picks])
        expected = edge_phi(case.expect["velocities"], case.expect["amplitudes"], sample[:, 1:3], sample[:, 0])
        worst = float(np.max(np.abs(sample[:, 3] - expected) / np.maximum(1.0, np.abs(expected))))
        if not worst <= PHI_TOL:
            problems.append(f"edge phi deviates from the numpy evaluation by {worst:.3e}")
    report = _read_json(out / "edge_sim.json")
    limits = {
        "eom_residual": 1e-12,
        "periodicity_residual": 1e-12,
        "mode_commutator_residual": 1e-12,
        "action_value": 1e-10,
    }
    for key, tol in limits.items():
        raw = report.get(key)
        if raw is None or not abs(float(raw)) <= tol:
            problems.append(f"edge {key} = {raw} not within {tol:.0e}")
    if math.prod(report.get("hilbert_dimensions", [])) != case.expect["algebra_dim"]:
        problems.append(f"edge mode algebra dimension is not {case.expect['algebra_dim']}")
    return problems


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("star-sweep", make_star, validate_star),
        Workload("husimi-step", make_husimi, validate_husimi),
        Workload("edge-csv", make_edge, validate_edge),
    )
}
