#!/usr/bin/env python3
"""The coherent-state star product and its semiclassical 1/k^2 remainder.

Operator products induce a non-commutative product on symbols.  Its
first-order form is the pointwise product plus an inverse-metric
contraction of derivatives; the bracket of symbols built the same way
tracks the commutator symbol.  Both remainders fall like 1/k^2.  The
symbol derivatives are exact: the creator acts as d/dz on unnormalized
coherent states, so each gradient is a coherent-state expectation.
"""

import numpy as np

from arstat import (
    HamiltonianSpec,
    StatisticsSpec,
    Symbol,
    convergence_study,
    enumerate_basis,
    hamiltonian,
    ladder_matrices,
    moyal_bracket,
    standard_pair,
    star_exact,
    star_first_order,
    symbol_of,
)
from arstat.droplet import potential_symbol

# ---- symbols --------------------------------------------------------------
spec = StatisticsSpec(r=2, s=-1, k=5)
basis = enumerate_basis(spec)
hspec = HamiltonianSpec(e0=0.0, e=(1.0, 0.5))
h = hamiltonian(basis, hspec)
z = np.array([0.4, 0.2 + 0.3j])
print(f"potential symbol, matrix path : {symbol_of(h, basis, z):.10f}")
print(f"potential symbol, closed form : {potential_symbol(spec, hspec, z).exact:.10f}")

# ---- exact star vs first order at one k ------------------------------------
spec = StatisticsSpec(r=1, s=-1, k=40)
basis = enumerate_basis(spec)
ladders = ladder_matrices(basis)
a, b = standard_pair("raise_sq_lower_sq")(basis, ladders)
sym_a = Symbol.from_operator(a, ladders)
sym_b = Symbol.from_operator(b, ladders)
z = [0.35]
exact = star_exact(a, b, basis, z)
first = star_first_order(sym_a, sym_b, spec, z)
print(f"\nexact star     {exact:.10f}")
print(f"first order    {first:.10f}")
print(f"remainder      {abs(exact - first):.3e}  (k = 40)")
value, grad_z, grad_zbar = sym_a.jet(z)
print(f"exact gradients of the first symbol: d/dz {grad_z[0]:.6f}, d/dzbar {grad_zbar[0]:.6f}")

comm = symbol_of(a @ b - b @ a, basis, z)
bracket = moyal_bracket(sym_a, sym_b, spec, z)
print(f"commutator symbol {comm:.8f} vs bracket {bracket:.8f}")

# ---- the remainder falls like 1/k^2 ----------------------------------------
print("\nconvergence sweep (squared raise/lower pair, fermionic r=1):")
study = convergence_study(
    [20, 40, 80, 160, 320, 640, 1280],
    lambda k: StatisticsSpec(r=1, s=-1, k=int(k)),
    standard_pair("raise_sq_lower_sq"),
    points=[[0.3], [0.45 + 0.1j]],
)
print("      k    |star - first order|   |commutator - bracket|")
for k, e50, e52 in zip(study.k_values, study.star_errors, study.bracket_errors):
    print(f"  {k:5.0f}   {e50:20.3e}   {e52:21.3e}")
print(f"fitted slopes: star {study.star_fit.slope:.3f}, "
      f"bracket {study.bracket_fit.slope:.3f} (expected -2)")
