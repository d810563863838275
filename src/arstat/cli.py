"""Command-line front end.

Subcommands: verify | spectrum | husimi | star-convergence | edge-sim.
Configuration lives in an INI file (sections mirror the library modules);
command-line flags override file values.  Data files written into the
output directory are byte-identical across runs of the same
configuration: fixed ordering, 17-significant-digit decimals, no
timestamps (timings go to stdout only).

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algebra, bargmann, droplet, edge, starprod
from .errors import (
    ArstatError,
    CapError,
    ConfigError,
    InvalidSpec,
    SizeError,
    TruncationError,
)

ENV_OUT_DIR = "ARSTAT_OUT_DIR"

DEFAULT_CONFIG = {
    "statistics": {"r": "2", "s": "-1", "k": "4"},
    "hamiltonian": {"e0": "0.0"},
    "droplet": {"points": "101"},
    "sweep": {
        "k_values": "20, 40, 80, 160, 320, 640, 1280",
        "pair": "raise_sq_lower_sq",
        "r": "1",
        "s": "-1",
        "n_max": "60",
    },
    "edge": {
        "velocities": "1.0",
        "winding": "0.0",
        "zero_mode": "0.0",
        "amplitudes": "0.5",
        "n_theta": "64",
        "n_time": "64",
        "periods": "1",
        "corrupted": "false",
        "algebra_modes": "1",
        "algebra_level": "6",
        "algebra_zero_dim": "8",
    },
    "verify": {"n_points": "20"},
    "tolerances": {
        "triple": "1e-10",
        "differential": "1e-10",
        "spectrum": "1e-12",
        "gram": "1e-6",
        "metric_inverse": "1e-10",
        "metric_hessian": "1e-5",
        "overlap": "1e-8",
        "eom": "1e-12",
        "periodicity": "1e-12",
        "action": "1e-10",
    },
}

SLOPE_BAND = (-2.3, -1.7)

# edge-sim holds about eight float arrays the size of its sample grid (the
# samples, the derivatives of the action, FFT workspace) and writes one CSV
# line per sample: 2^24 samples are about 1 GiB of arrays and 1.3 GB of CSV
EDGE_SAMPLE_LIMIT = 2**24

# husimi evaluates its profile on about a dozen float arrays of the grid's
# length and writes about 100 bytes of CSV per point: 2^20 points are about
# 100 MiB of each
HUSIMI_POINT_LIMIT = 2**20

# verify draws this many random points and as many pairs; each costs a
# metric and an overlap series over the basis, and a quarter of them a
# distance Hessian.  10,000 points take about 3.4 s on the default family
VERIFY_POINT_LIMIT = 2**16

# verify's Gram check integrates on a tensor Gauss rule of 48 nodes per
# mode: an array of r numbers per grid point is 170 MiB at 48^4 points and
# 1.9 GiB at 48^5
VERIFY_MAX_MODES = 4

# verify, spectrum and star-convergence hold a basis, its r occupations
# and 2r ladder shifts (24 bytes each) a state, and form products and sums
# of shifts.  Peaks on a 2-vCPU x86_64 host: spectrum about 330 + 80 r
# bytes a state, the sweep about 120 + 80 r; at r=2 and 2^21 states
# spectrum takes about 9 s and 1 GiB.  Past r=3 the r * dim occupations
# set the limit: spectrum at r=4 k=76 (1,502,501 states) takes 8.6 s and
# 960 MiB, and r=40 k=6 (1,221,759 states, about 4 GiB) is refused
BASIS_DIM_LIMIT = 2**21
BASIS_ENTRY_LIMIT = 3 * 2**21


# ------------------------------------------------------------ configuration

@dataclass
class RunConfig:
    command: str
    parser: configparser.ConfigParser
    out_dir: Path
    formats: tuple[str, ...]
    seed: int
    config_hash: str

    def get(self, section: str, key: str, cast, required: bool = True, default=None):
        if self.parser.has_option(section, key):
            try:
                raw = self.parser.get(section, key)
            except configparser.InterpolationError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
            try:
                return cast(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
        if default is not None or not required:
            return default
        raise ConfigError(f"missing required field [{section}] {key}")

    def get_count(self, section: str, key: str, minimum: int) -> int:
        value = self.get(section, key, int)
        if value < minimum:
            raise ConfigError(f"[{section}] {key} = {value} must be at least {minimum}")
        return value


def _parse_float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()]


def _parse_complex_groups(raw: str) -> list[list[complex]]:
    groups = [grp for grp in raw.split(";") if grp.strip()]
    return [
        [complex(tok.strip().replace(" ", "")) for tok in grp.split(",") if tok.strip()]
        for grp in groups
    ]


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def load_config(args) -> RunConfig:
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULT_CONFIG)
    hashed = ["defaults"]
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
        hashed.append(text)
    for override in args.set or []:
        try:
            target, value = override.split("=", 1)
            section, key = target.split(".", 1)
        except ValueError:
            raise ConfigError(
                f"bad --set {override!r}; expected section.key=value"
            ) from None
        section, key = section.strip(), key.strip()
        try:
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value.strip())
        except ValueError as exc:  # the DEFAULT section, or a stray '%'
            raise ConfigError(f"bad --set {override!r}: {exc}") from None
        hashed.append(override)
    hashed.append(f"seed={args.seed}")
    digest = hashlib.sha256("\n".join(hashed).encode()).hexdigest()[:16]

    out_dir = args.out or os.environ.get(ENV_OUT_DIR) or "arstat_out"
    formats = tuple(tok.strip() for tok in args.format.split(",") if tok.strip())
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {fmt!r}")
    cfg = RunConfig(
        command=args.command,
        parser=parser,
        out_dir=Path(out_dir),
        formats=formats,
        seed=args.seed,
        config_hash=digest,
    )
    for key in parser["tolerances"]:
        tolerance = cfg.get("tolerances", key, float)
        if not (math.isfinite(tolerance) and tolerance >= 0.0):
            raise ConfigError(f"[tolerances] {key} = {tolerance} must be finite and non-negative")
    return cfg


def statistics_spec(cfg: RunConfig) -> algebra.StatisticsSpec:
    r = cfg.get("statistics", "r", int)
    s = cfg.get("statistics", "s", int)
    k = cfg.get("statistics", "k", float)
    n_max = cfg.get("statistics", "n_max", int, required=False)
    if s == +1 and n_max is None:
        raise ConfigError("missing required field [statistics] n_max (bosonic family)")
    return algebra.StatisticsSpec(r=r, s=s, k=k, n_max=n_max)


def _basis_excess(spec: algebra.StatisticsSpec, limit: int) -> str | None:
    """What puts the basis of ``spec`` over ``limit`` states, or None.

    dim = C(cap + r, r) is at least cap + r when cap >= 1, so cap + r above
    the limit settles it before ``math.comb``, which would not finish on two
    huge arguments.  With cap = 0 there is one state, but it still holds r
    occupations.
    """
    if spec.total_cap + spec.r > limit:
        return f"mode count plus occupancy cap {spec.total_cap + spec.r}"
    dim = algebra.basis_dimension(spec)
    return f"basis dimension {dim}" if dim > limit else None


def basis_state_limit(r: int) -> int:
    """The most states verify, spectrum and star-convergence take on r modes."""
    return min(BASIS_DIM_LIMIT, BASIS_ENTRY_LIMIT // r)


def sized_statistics_spec(cfg: RunConfig) -> algebra.StatisticsSpec:
    """The configured family, refused before any work if its basis is too large."""
    spec = statistics_spec(cfg)
    limit = basis_state_limit(spec.r)
    excess = _basis_excess(spec, limit)
    if excess:
        raise SizeError(f"{excess} exceeds the limit of {limit} states on {spec.r} modes")
    return spec


def hamiltonian_spec(cfg: RunConfig, r: int) -> algebra.HamiltonianSpec:
    e0 = cfg.get("hamiltonian", "e0", float, default=0.0)
    energies = cfg.get("hamiltonian", "e", _parse_float_list, required=False)
    if energies is None:
        energies = [float(i + 1) for i in range(r)]
    if len(energies) != r:
        raise ConfigError(f"[hamiltonian] e needs {r} entries, got {len(energies)}")
    return algebra.HamiltonianSpec(e0=e0, e=tuple(energies))


# ----------------------------------------------------------------- reports

#: Every number in a data file: 17 significant digits round-trip a double.
NUMBER_FORMAT = ".17g"


def fmt(value: float) -> str:
    return format(value, NUMBER_FORMAT)


@dataclass
class Check:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def write_json(cfg: RunConfig, name: str, payload: dict):
    if "json" not in cfg.formats:
        return None
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def csv_lines(*columns):
    """One block of data lines from columns of already formatted cells.

    A generator, so the cells are formatted only if the block is written.
    """
    yield "".join(",".join(cells) + "\n" for cells in zip(*columns)).encode()


def edge_csv_blocks(times: np.ndarray, axes: list[np.ndarray], samples: np.ndarray):
    """The edge-sim data lines, one block of bytes per time slice.

    ``samples`` is C-ordered over (t, theta_1, ..., theta_r).  One template
    with a line per angular grid point is built once, with the theta cells
    already formatted in and a NUL byte in place of the time cell.  Each
    slice is then one ``%`` fill of its phi cells, which ``_g17`` formats in
    numpy to the bytes of ``format(x, ".17g")``.
    """
    from ._g17 import g17_cells

    theta_cells = itertools.product(*[[fmt(v) for v in ax.tolist()] for ax in axes])
    template = "".join(f"\0,{','.join(point)},%s\n" for point in theta_cells).encode()
    for t, block in zip(times.tolist(), samples):
        yield template.replace(b"\0", fmt(t).encode()) % tuple(g17_cells(block))


def write_csv(cfg: RunConfig, name: str, header: list[str], blocks) -> Path | None:
    """Write the header line, then each newline-terminated block of bytes of ``blocks``.

    The blocks go to the open file one at a time.  Without ``csv`` in
    ``--format`` nothing is written and ``blocks`` is never consumed, so a
    lazy iterable formats no cell.
    """
    if "csv" not in cfg.formats:
        return None
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{name}.csv"
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(blocks)
    return path


def emit_checks(cfg: RunConfig, name: str, checks: list[Check]) -> int:
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.value:.3e} (tolerance {check.tolerance:.1e})")
    payload = {
        "command": cfg.command,
        "config_hash": cfg.config_hash,
        "checks": [
            {
                "name": c.name,
                "value": fmt(c.value),
                "tolerance": fmt(c.tolerance),
                "pass": c.passed,
            }
            for c in checks
        ],
        "status": "pass" if all(c.passed for c in checks) else "fail",
    }
    write_json(cfg, name, payload)
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------- commands

def cmd_verify(cfg: RunConfig) -> int:
    spec = sized_statistics_spec(cfg)
    if spec.r > VERIFY_MAX_MODES:
        raise SizeError(f"[statistics] r = {spec.r} needs a quadrature grid of 48^{spec.r} points, past 48^4")
    tol = lambda key: cfg.get("tolerances", key, float)
    n_points = cfg.get_count("verify", "n_points", 1)
    if n_points > VERIFY_POINT_LIMIT:
        raise SizeError(
            f"[verify] n_points = {n_points} exceeds the limit of {VERIFY_POINT_LIMIT} points"
        )
    basis = algebra.enumerate_basis(spec)
    ladders = algebra.ladder_matrices(basis)
    hspec = hamiltonian_spec(cfg, spec.r)
    rng = np.random.default_rng(cfg.seed)
    scale = 0.8 if spec.s == -1 else 0.35 / math.sqrt(spec.r)

    def random_point():
        return scale * (rng.uniform(-1, 1, spec.r) + 1j * rng.uniform(-1, 1, spec.r))

    points = [random_point() for _ in range(n_points)]
    pairs = [(random_point(), random_point()) for _ in range(n_points)]

    start = time.perf_counter()
    # A family with a huge label overflows the quadrature and the measure
    # (a bosonic k = 1e300 asks for a Gauss-Jacobi rule of weight
    # (1 - t)^1e300); the inf or nan that would follow is refused.
    try:
        with np.errstate(over="raise", invalid="raise"):
            relations = algebra.verify_triple_relations(basis, ladders)
            differential = bargmann.differential_realization_check(spec, basis, spec.total_cap, ladders)
            rule = bargmann.build_quadrature(spec, n_radial=48)
            gram = bargmann.orthonormality_gram(rule, basis, min(4, spec.total_cap))
            metrics = [bargmann.metric(spec, z) for z in points]
            checks = [
                Check("triple_relations", relations.max_residual, tol("triple")),
                Check("differential_realization", differential.max_residual, tol("differential")),
                Check("spectrum_vs_occupations",
                      algebra.commutator_spectrum_deviation(basis, hspec, ladders), tol("spectrum")),
                Check("dimension_closed_form", float(abs(basis.dim - algebra.basis_dimension(spec))), 0.0),
                Check("quadrature_orthonormality",
                      float(np.max(np.abs(gram - np.eye(len(gram))))), tol("gram")),
                Check("metric_inverse_identity",
                      max(float(np.max(np.abs(m.g @ m.g_inv - np.eye(spec.r)))) for m in metrics),
                      tol("metric_inverse")),
                Check("metric_vs_distance_hessian",
                      max(float(np.max(np.abs(m.g - bargmann.distance_hessian(spec, m.point))))
                          for m in metrics[: max(3, n_points // 4)]),
                      tol("metric_hessian")),
                Check("overlap_dual_path",
                      max(abs(bargmann.overlap(spec, z, w) - bargmann.overlap_from_vectors(spec, basis, z, w))
                          for z, w in pairs),
                      tol("overlap")),
            ]
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigError(f"[statistics] the family overflows double precision ({exc})") from None
    elapsed = time.perf_counter() - start
    print(f"verify: {len(checks)} checks in {elapsed:.2f}s")
    return emit_checks(cfg, "verify_report", checks)


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = sized_statistics_spec(cfg)
    hspec = hamiltonian_spec(cfg, spec.r)
    basis = algebra.enumerate_basis(spec)
    energies = algebra.occupation_energies(basis, hspec)
    # A label or energies near the top of double precision can overflow the
    # commutator assembly (a bosonic k = 8.9e307); the inf or nan is refused.
    try:
        with np.errstate(over="raise", invalid="raise"):
            deviation = algebra.commutator_spectrum_deviation(basis, hspec)
    except FloatingPointError as exc:
        raise ConfigError(f"the commutator Hamiltonian overflows double precision ({exc})") from None
    tol = cfg.get("tolerances", "spectrum", float)

    header = [f"n_{i + 1}" for i in range(spec.r)] + ["energy"]
    occupations = (",".join(map(str, occ)) for occ in basis.occupations.tolist())
    write_csv(cfg, "spectrum", header, csv_lines(occupations, map(fmt, energies.tolist())))

    payload = {
        "command": cfg.command,
        "config_hash": cfg.config_hash,
        "dimension": basis.dim,
        "max_energy_deviation": fmt(deviation),
        "exact_match": deviation <= tol,
    }
    if spec.s == -1:
        payload["closed_form_dimension"] = algebra.basis_dimension(spec)
    write_json(cfg, "spectrum", payload)
    print(f"spectrum: {basis.dim} levels, max deviation {deviation:.3e}")
    return 0 if deviation <= tol else 1


def cmd_husimi(cfg: RunConfig) -> int:
    spec = statistics_spec(cfg)
    cap = cfg.get("droplet", "N", int, required=False)
    if cap is None:
        raise ConfigError("missing required field [droplet] N")
    n_points = cfg.get_count("droplet", "points", 1)
    if n_points > HUSIMI_POINT_LIMIT:
        raise SizeError(
            f"[droplet] points = {n_points} exceeds the limit of {HUSIMI_POINT_LIMIT} points"
        )
    dspec = droplet.DropletSpec(spec, N=cap)

    mu_hi = 2.0 * cap if cap > 0 else 4.0
    if spec.s == -1:
        mu_hi = min(mu_hi, 0.9 * spec.kappa)  # fermionic occupancy saturates
    mu_grid = np.linspace(0.0, mu_hi, n_points)
    rho_grid = np.array([droplet.rho_from_mean_occupation(spec, mu) for mu in mu_grid])
    profile = droplet.droplet_profile(dspec, rho_grid)
    family = ",".join(map(fmt, [spec.k, float(cap), float(spec.s), float(spec.r)]))
    write_csv(
        cfg,
        "husimi",
        ["rho", "mean_occupation", "value", "k", "N", "s", "r"],
        csv_lines(
            *(map(fmt, column) for column in (profile.rho, profile.mean_occ, profile.value)),
            [family] * len(profile.rho),
        ),
    )
    payload = {
        "command": cfg.command,
        "config_hash": cfg.config_hash,
        "N": cap,
        "value_at_origin": fmt(profile.value[0]),
    }
    step_feasible = cap > 0 and (spec.s == +1 or 1.5 * cap < 0.95 * spec.kappa)
    if step_feasible:
        step = droplet.step_profile_check(dspec)
        payload.update(
            {
                "crossing_mean_occupation": fmt(step.crossing_mu),
                "value_inside": fmt(step.value_inside),
                "value_mid": fmt(step.value_mid),
                "value_outside": fmt(step.value_outside),
                "transition_width_mean_occupation": fmt(step.width_mu),
                "transition_width_rho": fmt(step.width_rho),
                "sharp_step": step.passes(cap),
            }
        )
        print(
            f"husimi: crossing at mean occupation {step.crossing_mu:.4f} "
            f"(N = {cap}), width {step.width_mu:.4f}"
        )
    else:
        payload["sharp_step"] = None
        note = "vacuum droplet" if cap == 0 else "droplet too close to saturation for step diagnostics"
        payload["note"] = note
        print(f"husimi: profile written ({note})")
    write_json(cfg, "husimi", payload)
    return 0


def cmd_star_convergence(cfg: RunConfig) -> int:
    # the sweep carries its own family block: it rebuilds the spec at
    # every k and is usually run single-mode
    r = cfg.get_count("sweep", "r", 1)
    s = cfg.get("sweep", "s", int)
    if s not in (-1, +1):
        raise ConfigError("[sweep] s must be +1 or -1")
    k_values = cfg.get("sweep", "k_values", _parse_float_list)
    if len(k_values) < 3:
        raise ConfigError("[sweep] k_values needs at least 3 entries")
    if not all(math.isfinite(k) for k in k_values):
        raise ConfigError(f"[sweep] k_values must be finite, got {k_values}")
    pair_name = cfg.get("sweep", "pair", str)
    pair = starprod.standard_pair(pair_name)
    sweep_n_max = cfg.get("sweep", "n_max", int)

    def build_spec(k):
        # k unchanged: a fermionic label that is not an integer is refused
        if s == -1:
            return algebra.StatisticsSpec(r=r, s=-1, k=k)
        return algebra.StatisticsSpec(r=r, s=+1, k=k, n_max=sweep_n_max)

    limit = basis_state_limit(r)
    for k in k_values:
        excess = _basis_excess(build_spec(k), limit)
        if excess:
            raise SizeError(f"[sweep] at k = {k:g} the {excess} exceeds {limit} states on {r} modes")

    groups = cfg.get("sweep", "points", _parse_complex_groups, required=False)
    if groups is None:
        rng = np.random.default_rng(cfg.seed)
        scale = 0.45 if s == -1 else 0.3 / math.sqrt(r)
        points = [
            scale * (rng.uniform(-1, 1, r) + 1j * rng.uniform(-1, 1, r))
            for _ in range(3)
        ]
    else:
        points = [np.array(grp) for grp in groups]
        if not points or any(p.shape != (r,) for p in points):
            raise ConfigError(f"[sweep] points must be one or more groups of {r} components")

    # A finite label can still overflow double precision: kappa^2 and kappa^3
    # scale the pairs, and the ladder amplitudes grow like sqrt(k n).  The
    # inf or nan that would follow is refused.
    try:
        with np.errstate(over="raise", invalid="raise"):
            study = starprod.convergence_study(k_values, build_spec, pair, points)
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigError(f"[sweep] the sweep overflows double precision ({exc})") from None

    write_csv(
        cfg,
        "star_convergence",
        ["k", "err_star_first_order", "err_moyal_bracket"],
        csv_lines(
            *(map(fmt, column) for column in (study.k_values, study.star_errors, study.bracket_errors))
        ),
    )

    def fit_payload(fit):
        if fit.degenerate:
            return {"degenerate": True}
        return {
            "degenerate": False,
            "slope": fmt(fit.slope),
            "intercept": fmt(fit.intercept),
            "residual": fmt(fit.residual),
            "points_used": fit.n_used,
        }

    payload = {
        "command": cfg.command,
        "config_hash": cfg.config_hash,
        "pair": pair_name,
        "star_fit": fit_payload(study.star_fit),
        "bracket_fit": fit_payload(study.bracket_fit),
    }
    write_json(cfg, "star_convergence", payload)

    for label, fit in (("star", study.star_fit), ("bracket", study.bracket_fit)):
        if fit.degenerate:
            print(f"star-convergence: {label} errors at round-off; degenerate fit")
        else:
            note = ""
            if not SLOPE_BAND[0] <= fit.slope <= SLOPE_BAND[1]:
                note = f"  WARNING: slope outside [{SLOPE_BAND[0]}, {SLOPE_BAND[1]}]"
                print(f"warning: {label} slope {fit.slope:.3f} outside the expected band", file=sys.stderr)
            print(f"star-convergence: {label} slope {fit.slope:.3f}{note}")
    return 0


def _whole_periods(velocities: list[float], amplitudes: np.ndarray, periods: float) -> bool:
    """Whether ``2 pi periods`` is a whole period of every active mode.

    Mode n of component i turns e_i periods n times over the window; that
    count must be an integer for each nonzero amplitude.  It is decided in
    exact rational arithmetic on the parsed doubles.
    """
    p_num, p_den = periods.as_integer_ratio()
    for e, row in zip(velocities, amplitudes):
        e_num, e_den = e.as_integer_ratio()
        for n in (np.flatnonzero(row) + 1).tolist():
            if e_num * p_num * n % (e_den * p_den):
                return False
    return True


def cmd_edge_sim(cfg: RunConfig) -> int:
    velocities = cfg.get("edge", "velocities", _parse_float_list)
    r = len(velocities)
    winding = cfg.get("edge", "winding", _parse_float_list)
    zero_mode = cfg.get("edge", "zero_mode", _parse_float_list)
    amp_groups = cfg.get("edge", "amplitudes", _parse_complex_groups)
    if r == 0 or len(winding) != r or len(zero_mode) != r or len(amp_groups) != r:
        raise ConfigError(
            "[edge] velocities, winding, zero_mode and amplitudes must describe the same "
            "nonzero component count"
        )
    n_modes = max(len(g) for g in amp_groups)
    amps = np.zeros((r, n_modes), dtype=complex)
    for i, grp in enumerate(amp_groups):
        amps[i, : len(grp)] = grp
    corrupted = cfg.get("edge", "corrupted", _parse_bool)
    field = edge.EdgeField(
        velocities=tuple(velocities),
        winding=tuple(winding),
        zero_mode=tuple(zero_mode),
        amplitudes=amps,
        drift_scale=0.5 if corrupted else 1.0,
    )

    n_theta = cfg.get_count("edge", "n_theta", 1)
    # the action's time derivative needs a uniform grid of two or more samples
    n_time = cfg.get_count("edge", "n_time", 2)
    periods = cfg.get("edge", "periods", float)
    if not (math.isfinite(periods) and periods > 0.0):
        raise ConfigError(f"[edge] periods = {periods} must be finite and positive")
    if n_time * n_theta**r > EDGE_SAMPLE_LIMIT:
        raise SizeError(
            f"[edge] n_time * n_theta^{r} exceeds the limit of {EDGE_SAMPLE_LIMIT} samples"
        )
    # The spectral derivatives alias unless each grid samples the highest
    # frequency it carries more than twice per cycle: mode M_i of component
    # i in its angle, and in time sum_i |e_i| M_i cycles of the product per
    # period.
    top = [int(np.flatnonzero(row)[-1]) + 1 if row.any() else 0 for row in amps]
    if n_theta <= 2 * max(top):
        raise ConfigError(
            f"[edge] n_theta = {n_theta} under-resolves mode {max(top)}; "
            f"need n_theta >= {2 * max(top) + 1}"
        )
    time_nyquist = 2.0 * periods * sum(abs(e) * m for e, m in zip(velocities, top))
    if not math.isfinite(time_nyquist):
        raise ConfigError(
            "[edge] velocities, amplitudes and periods overflow the time resolution bound"
        )
    # The action's time derivative is spectral, so it needs a history that
    # is periodic on the time grid: no winding, and a window of whole periods.
    if any(w != 0.0 for w in winding):
        action_skipped = "winding history"
    elif not _whole_periods(velocities, amps, periods):
        action_skipped = "window not a whole period of every mode"
    else:
        action_skipped = None
    with_action = action_skipped is None
    if with_action and n_time <= time_nyquist:
        raise ConfigError(
            f"[edge] n_time = {n_time} under-resolves the action's time derivative; "
            f"need n_time >= {math.floor(time_nyquist) + 1}"
        )
    window = 2.0 * math.pi * periods
    if window / n_time == 0.0:
        raise ConfigError(f"[edge] periods = {periods} leaves a zero time step")
    times = np.arange(n_time) * (window / n_time)
    axes = [np.arange(n_theta) * (2.0 * math.pi / n_theta)] * r

    # Finite inputs can still overflow double precision (a zero mode of
    # 1e308, a winding times the time window).  The inf or nan that follows
    # would pass or fail the tolerance checks arbitrarily, so it is refused.
    try:
        with np.errstate(over="raise", invalid="raise"):
            eom = edge.eom_residual(field, n_theta=n_theta, times=times[:: max(1, n_time // 8)])
            period_res = edge.periodicity_residual(field, times=times[:: max(1, n_time // 8)])
            samples = edge.sample_field(field, axes, times)
            action = edge.action_value(samples, velocities, times) if with_action else None
    except FloatingPointError as exc:
        raise ConfigError(f"[edge] the field overflows double precision ({exc})") from None

    modes = cfg.get("edge", "algebra_modes", int)
    level = cfg.get("edge", "algebra_level", int)
    zero_dim = cfg.get("edge", "algebra_zero_dim", int)
    mode_algebra = edge.build_mode_algebra(r, modes, level, zero_dim=zero_dim)
    comm_res = edge.mode_commutator_residual(mode_algebra)

    header = ["t"] + [f"theta_{i + 1}" for i in range(r)] + ["phi"]
    write_csv(cfg, "edge_sim", header, edge_csv_blocks(times, axes, samples))

    tol_eom = cfg.get("tolerances", "eom", float)
    tol_period = cfg.get("tolerances", "periodicity", float)
    tol_action = cfg.get("tolerances", "action", float)
    payload = {
        "command": cfg.command,
        "config_hash": cfg.config_hash,
        "eom_residual": fmt(eom),
        "periodicity_residual": fmt(period_res),
        "action_value": None if action is None else fmt(action),
        "mode_commutator_residual": fmt(comm_res),
        "corrupted": corrupted,
        "hilbert_dimensions": list(edge.hilbert_dimensions(mode_algebra).per_factor),
    }
    write_json(cfg, "edge_sim", payload)

    if corrupted:
        print(
            f"warning: corrupted drift requested; eom residual {eom:.3e} is a diagnostic",
            file=sys.stderr,
        )
        print(f"edge-sim: corrupted field, eom residual {eom:.3e}")
        return 0
    print(
        f"edge-sim: eom {eom:.3e}, periodicity {period_res:.3e}, "
        f"action {f'n/a ({action_skipped})' if action is None else f'{action:.3e}'}, "
        f"mode commutators {comm_res:.3e}"
    )
    ok = eom <= tol_eom and period_res <= tol_period and comm_res <= 1e-12
    if action is not None:
        ok = ok and abs(action) <= tol_action
    return 0 if ok else 1


COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "husimi": cmd_husimi,
    "star-convergence": cmd_star_convergence,
    "edge-sim": cmd_edge_sim,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arstat",
        description="Generalized A_r statistics toolkit: verification suites and sweeps",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./arstat_out)")
    parser.add_argument("--format", default="csv,json", help="comma list of csv,json")
    parser.add_argument("--seed", type=int, default=0, help="seed for random test points")
    parser.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable; wins over the file)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, InvalidSpec, CapError, SizeError, TruncationError) as exc:
        # every library object is built from the configuration, so an input
        # the library rejects is a configuration error; so is an undersized
        # truncation, which cannot certify its tails
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
