"""Conformal-method solver for the Hamiltonian constraint (n ≥ 3).

On a unit-hyperbolic background (scalar curvature -n(n-1)) the constraint
becomes a scalar equation for the conformal factor u > 0:

    -(4(n-1)/(n-2)) Δu - n(n-1) u + ((n-1)/n) τ² u^((n+2)/(n-2))
        - |σ|² u^((2-3n)/(n-2))  =  0

with σ the transverse-traceless part of the data, entering only through
|σ|²_h.  With σ = 0 the solution is the constant u = (n²/τ²)^((n-2)/4), and
that constant is a lower barrier for every other solution, which is what
drives the rescaled-volume bound Ham ≥ nⁿ Vol(M,h).

The solver takes homogeneous data only: |σ|² is a constant, so Δu drops out
and the equation is algebraic in the constant u, solved by plain Newton on
Python floats.  Integrals are Vol(M,h) times the constant integrand.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

#: Newton tolerance (absolute residual)
TOL_HOMOGENEOUS = 1e-12
MAX_NEWTON_ITERATIONS = 100


@dataclass(frozen=True)
class ConformalBackground:
    """Unit-hyperbolic conformal background: dimension and total volume."""

    dim: int
    volume: float = 1.0

    def __post_init__(self):
        if not 3 <= self.dim <= 4:
            raise ValueError("dim must be 3 or 4 for the conformal module")
        if not 0 < self.volume < math.inf:
            raise ValueError("volume must be finite and positive")

    @property
    def scalar_curvature(self) -> float:
        return -float(self.dim * (self.dim - 1))


@dataclass(frozen=True)
class TTData:
    """Transverse-traceless source, stored through its constant squared norm |σ|²_h ≥ 0."""

    sigma_sq: float = 0.0

    def __post_init__(self):
        if not isinstance(self.sigma_sq, numbers.Real):
            raise ValueError("sigma_sq must be a real scalar")
        sigma_sq = float(self.sigma_sq)
        if not (sigma_sq >= 0 and math.isfinite(sigma_sq)):
            raise ValueError("sigma_sq must be finite and nonnegative")
        object.__setattr__(self, "sigma_sq", sigma_sq)


@dataclass(frozen=True)
class LichSolution:
    u: float
    tau: float
    residual_norm: float
    residual_history: tuple = ()


def _exponents(n: int):
    """(τ² coefficient, power p, singular power -m); Δu drops out on constants."""
    b = (n - 1) / n
    p = (n + 2) / (n - 2)
    m = (3 * n - 2) / (n - 2)
    return b, p, m


def reference_factor(n: int, tau: float) -> float:
    """The σ = 0 constant solution (n²/τ²)^((n-2)/4) — also a lower barrier."""
    return float((n * n / (tau * tau)) ** ((n - 2) / 4.0))


def lichnerowicz_residual(u: float, bg: ConformalBackground, tt: TTData, tau: float) -> float:
    """Residual of the conformal constraint at the constant conformal factor u."""
    if not u > 0:
        raise ValueError("conformal factor must be positive")
    if not tau < 0:
        raise ValueError("mean curvature must be negative")
    b, p, m = _exponents(bg.dim)
    return bg.scalar_curvature * u + b * tau * tau * u**p - tt.sigma_sq * u ** (-m)


def solve_lichnerowicz(bg: ConformalBackground, tt: TTData, tau: float) -> LichSolution:
    """Plain Newton iteration from the σ = 0 seed u₀ = ``reference_factor``.

    It stops when the absolute residual is at or below TOL_HOMOGENEOUS, or
    when the Newton step is at most 4·eps·u, so that u is the root to
    rounding; the returned u is then the iterate before that step.  More
    than MAX_NEWTON_ITERATIONS steps raise with the final residual attached.

    No damping is needed.  Write F(u) = G(u) - |σ|² u^(-m) with
    G(u) = R u + ((n-1)/n) τ² u^p, R = -n(n-1), so that G(u₀) = 0 and G is
    convex.  Then F'(u) ≥ -R(p-1) > 0 on [u₀, ∞), and the tangent of F at
    any u ≥ u₀ is at most 0 at u₀ (G lies above its tangents; the σ term is
    negative and increasing), so every Newton point stays in [u₀, ∞).  F''
    changes sign at most once, from negative to positive, and F(u₀) ≤ 0: the
    iterates rise toward the root, overshoot it at most once, and converge.
    """
    b, p, m = _exponents(bg.dim)
    u = reference_factor(bg.dim, tau)
    res = lichnerowicz_residual(u, bg, tt, tau)
    norm = abs(res)
    history = [norm]
    for _ in range(MAX_NEWTON_ITERATIONS):
        if norm <= TOL_HOMOGENEOUS:
            break
        step = -res / (bg.scalar_curvature + b * tau * tau * p * u ** (p - 1)
                       + m * tt.sigma_sq * u ** (-m - 1))
        if abs(step) <= 4.0 * sys.float_info.epsilon * u:
            break
        u = u + step
        res = lichnerowicz_residual(u, bg, tt, tau)
        norm = abs(res)
        history.append(norm)
    else:
        raise RuntimeError(f"Newton did not converge in {MAX_NEWTON_ITERATIONS} iterations (residual {norm:.3e})")
    return LichSolution(u, tau, norm, tuple(history))


def integrate(bg: ConformalBackground, value: float) -> float:
    """∫ f dμ_h of a constant f, so ∫ 1 dμ_h = Vol(M,h)."""
    return bg.volume * float(value)


def conformal_ham(sol: LichSolution, bg: ConformalBackground) -> float:
    """Rescaled volume of the solved data: |τ|ⁿ ∫ u^(2n/(n-2)) dμ_h."""
    n = bg.dim
    # Python's power, libm's pow: numpy's AVX-512 power differs from it in
    # the last bit on some sweep rows, so numpy would tie Ham to the host
    dens = sol.u ** (2.0 * n / (n - 2))
    return abs(sol.tau) ** n * integrate(bg, dens)


SWEEP_COLUMNS = ("tau", "sigma_sq", "u_min", "u_max", "ham", "bound_nn_vol")


def sweep_constant_sigma(bg: ConformalBackground, tau_values, sigma_sq_values):
    """Solve over the (τ, |σ|²) product grid; one SWEEP_COLUMNS row per case."""
    rows = []
    bound = bg.dim**bg.dim * bg.volume
    for tau in tau_values:
        for s2 in sigma_sq_values:
            sol = solve_lichnerowicz(bg, TTData(float(s2)), float(tau))
            ham = conformal_ham(sol, bg)
            rows.append((float(tau), float(s2), sol.u, sol.u, ham, bound))
    return rows
