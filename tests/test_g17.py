"""The numpy ``.17g`` cell kernel against ``format(x, ".17g")``, byte for byte.

Each seeded class holds 10^5 doubles or more.  Exact ties at the 17th
digit tell half-even rounding from half-up; the bounds of the fast path
and the neighbours of powers of ten reach the fallback, where ``log10``
guesses the exponent wrong or the value is not fixed-point.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arstat import _g17
from arstat._g17 import g17_cells

# Every warning is an error here, numpy's floating-point ones above all;
# only the DeprecationWarnings that hypothesis's own reporting raises are not.
pytestmark = [pytest.mark.filterwarnings("error"), pytest.mark.filterwarnings("ignore::DeprecationWarning")]

N = 100_000


def _reference(values):
    return [format(v, ".17g").encode() for v in np.asarray(values, dtype=float).ravel().tolist()]


def _assert_cells(values):
    got, want = g17_cells(values), _reference(values)
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"


@pytest.fixture
def fallbacks(monkeypatch):
    """The values the kernel hands to ``format``."""
    seen = []

    def counting(value, spec):
        seen.append(value)
        return format(value, spec)

    monkeypatch.setattr(_g17, "format", counting, raising=False)
    return seen


def _neighbours(centres, steps):
    """Each centre and its ``steps`` nearest doubles on either side."""
    bits = np.asarray(centres, dtype=float).view(np.int64)
    offsets = np.arange(-steps, steps + 1, dtype=np.int64)
    return (bits[:, None] + offsets).ravel().view(np.float64)


def test_random_bit_patterns():
    rng = np.random.default_rng(1)
    values = rng.integers(0, 2**64, 2 * N, dtype=np.uint64, endpoint=False).view(np.float64)
    _assert_cells(values[np.isfinite(values)])


def test_every_fixed_point_exponent(fallbacks):
    # log-uniform over the fast path's decades, both signs
    rng = np.random.default_rng(2)
    values = 10.0 ** rng.uniform(-4.0, 16.0, N) * rng.choice([-1.0, 1.0], N)
    _assert_cells(values)
    # only the neighbours of a power of ten may miss the log10 guess
    assert len(fallbacks) < N // 1000


def _ties(rng, size):
    """Doubles whose 17-digit scaling ends in exactly one half.

    x = j 2^-(17 - E) with j odd and 10^E <= x < 10^(E + 1): then
    x 10^(16 - E) = j 5^(16 - E) / 2, an odd multiple of 1/2.
    """
    exponent = rng.integers(-4, 16, size)
    shift = 17 - exponent
    low = np.ceil(10.0**exponent * 2.0**shift)
    high = np.minimum(10.0 ** (exponent + 1) * 2.0**shift, 2.0**53)
    j = (low + np.floor(rng.random(size) * (high - low))).astype(np.int64) | 1
    values = np.ldexp(j.astype(float), -shift)
    keep = (values >= 10.0**exponent) & (values < 10.0 ** (exponent + 1))
    return values[keep] * rng.choice([-1.0, 1.0], np.count_nonzero(keep)), exponent[keep]


def test_exact_ties_round_half_even(fallbacks):
    values, exponents = _ties(np.random.default_rng(3), N + N // 10)
    assert len(values) >= N
    for v, e in zip(values[:1000].tolist(), exponents[:1000].tolist()):  # exact, on a sample
        assert Fraction(10**e) <= abs(Fraction(v)) < Fraction(10 ** (e + 1))
        assert abs(Fraction(v)) * Fraction(10) ** (16 - e) % 1 == Fraction(1, 2)
    _assert_cells(values)
    assert len(fallbacks) < N // 1000


def test_values_next_to_a_carry_into_the_next_power():
    # 17 nines then a five, and the doubles around them
    rng = np.random.default_rng(4)
    exponents = rng.integers(-8, 20, 2_000)
    texts = [f"9.{'9' * 16}5e{e}" for e in exponents.tolist()]
    centres = np.array([float(t) for t in texts])
    _assert_cells(_neighbours(centres, 25))


def test_powers_of_ten_and_their_neighbours():
    # normal powers, so that no neighbour wraps past zero or infinity
    powers = np.array([float(f"1e{e}") for e in range(-307, 309)])
    values = _neighbours(powers, 81)
    assert len(values) >= N and np.isfinite(values).all()
    _assert_cells(values)


@pytest.mark.parametrize("bound", [1e-4, 1e16])
def test_fast_path_bounds_and_their_neighbours(bound):
    values = _neighbours([bound], N // 2)
    _assert_cells(np.concatenate([values, -values]))


def test_zeros_subnormals_and_huge_values():
    rng = np.random.default_rng(5)
    subnormal = rng.integers(1, 2**52, N, dtype=np.int64).view(np.float64)
    huge = 10.0 ** rng.uniform(16.0, 308.0, N)
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    _assert_cells(np.concatenate([extremes, subnormal, -subnormal, huge, -huge]))


def test_a_wrong_exponent_guess_never_reaches_a_digit(monkeypatch, fallbacks):
    # log10 only picks the path: rows guessed one decade off either way
    # must go to format, and the others keep their digits.
    rng = np.random.default_rng(7)
    values = 10.0 ** rng.uniform(-4.0, 16.0, N) * rng.choice([-1.0, 1.0], N)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + rng.integers(-1, 2, a.shape))
    _assert_cells(values)
    assert N // 2 < len(fallbacks) < N


@pytest.mark.parametrize("exponent", range(-4, 16))
def test_one_group_alone(exponent):
    # every cell in a single (exponent, sign) group, as in a slice of a
    # field that keeps one sign and decade
    values = np.random.default_rng(exponent + 10).uniform(1.0, 10.0, 100) * 10.0**exponent
    _assert_cells(values)
    _assert_cells(-values)


def test_shapes_and_non_finite_values():
    grid = np.random.default_rng(6).uniform(-2.0, 2.0, (3, 4, 5))
    assert g17_cells(grid) == _reference(grid)
    assert g17_cells(np.array([])) == []
    assert g17_cells([np.nan, np.inf, -np.inf]) == [b"nan", b"inf", b"-inf"]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_any_finite_double(values):
    assert g17_cells(values) == _reference(values)
