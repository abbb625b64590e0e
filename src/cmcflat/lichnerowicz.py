"""Conformal-method solver for the Hamiltonian constraint (n ≥ 3).

On a unit-hyperbolic background (scalar curvature -n(n-1)) the constraint
becomes a scalar equation for the conformal factor u > 0:

    -(4(n-1)/(n-2)) Δu - n(n-1) u + ((n-1)/n) τ² u^((n+2)/(n-2))
        - |σ|² u^((2-3n)/(n-2))  =  0

with σ the transverse-traceless part of the data, entering only through
|σ|²_h.  With σ = 0 the solution is the constant u = (n²/τ²)^((n-2)/4), and
that constant is a lower barrier for every other solution, which is what
drives the rescaled-volume bound Ham ≥ nⁿ Vol(M,h).

Fields are either constants or samples on a periodic 1-D grid (Δ = second
central difference on the circle); integrals weight all grid nodes equally so
that ∫ 1 dμ_h = Vol(M,h) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import periodic_second_difference, solve_periodic_tridiag

#: default Newton tolerances (max-norm residual)
TOL_HOMOGENEOUS = 1e-12
TOL_GRID = 1e-10
MAX_NEWTON_ITERATIONS = 100
MAX_LINE_SEARCH_HALVINGS = 30


@dataclass(frozen=True)
class ConformalBackground:
    """Unit-hyperbolic conformal background: dimension, total volume, grid."""

    dim: int
    volume: float = 1.0
    grid_points: int | None = None
    circle_length: float = 1.0

    def __post_init__(self):
        if not 3 <= self.dim <= 4:
            raise ValueError("conformal module needs spatial dimension 3 or 4")
        if self.volume <= 0:
            raise ValueError("volume must be positive")
        if self.grid_points is not None and self.grid_points < 8:
            raise ValueError("periodic grid needs at least 8 points")
        if self.circle_length <= 0:
            raise ValueError("circle_length must be positive")

    @property
    def scalar_curvature(self) -> float:
        return -float(self.dim * (self.dim - 1))

    @property
    def spacing(self) -> float:
        return self.circle_length / self.grid_points


@dataclass(frozen=True)
class TTData:
    """Transverse-traceless source, stored through its squared norm |σ|²_h ≥ 0."""

    sigma_sq: object = 0.0

    def __post_init__(self):
        if np.any(np.asarray(self.sigma_sq) < 0):
            raise ValueError("sigma_sq must be nonnegative pointwise")

    def field(self, bg: ConformalBackground):
        s = np.asarray(self.sigma_sq, float)
        if bg.grid_points is None:
            if s.ndim != 0:
                raise ValueError("homogeneous background needs a scalar sigma_sq")
            return float(s)
        if s.ndim == 0:
            return np.full(bg.grid_points, float(s))
        if s.shape != (bg.grid_points,):
            raise ValueError("sigma_sq grid does not match the background grid")
        return s


@dataclass(frozen=True)
class LichSolution:
    u: object
    tau: float
    residual_norm: float
    residual_history: tuple = ()


def _exponents(n: int):
    """(diffusion coefficient, τ² coefficient, power p, singular power -m)."""
    a = 4.0 * (n - 1) / (n - 2)
    b = (n - 1) / n
    p = (n + 2) / (n - 2)
    m = (3 * n - 2) / (n - 2)
    return a, b, p, m


def reference_factor(n: int, tau: float) -> float:
    """The σ = 0 constant solution (n²/τ²)^((n-2)/4) — also a lower barrier."""
    return float((n * n / (tau * tau)) ** ((n - 2) / 4.0))


def lichnerowicz_residual(u, bg: ConformalBackground, tt: TTData, tau: float):
    """Pointwise residual of the conformal constraint at conformal factor u."""
    if np.any(np.asarray(u) <= 0):
        raise ValueError("conformal factor must be positive")
    if tau >= 0:
        raise ValueError("mean curvature must be negative")
    n = bg.dim
    a, b, p, m = _exponents(n)
    sig = tt.field(bg)
    u = np.asarray(u, float) if bg.grid_points is not None else float(u)
    reaction = bg.scalar_curvature * u + b * tau * tau * u**p - sig * u ** (-m)
    if bg.grid_points is None:
        return reaction
    return -a * periodic_second_difference(u, bg.spacing) + reaction


def _newton_direction(u, residual, bg, tt, tau):
    """Solve F'(u) d = -residual for the Newton update d."""
    n = bg.dim
    a, b, p, m = _exponents(n)
    sig = tt.field(bg)
    diag = bg.scalar_curvature + b * tau * tau * p * u ** (p - 1) + m * sig * u ** (-m - 1)
    if bg.grid_points is None:
        return -residual / diag
    h = bg.spacing
    main = 2.0 * a / (h * h) + diag
    off = np.full(bg.grid_points, -a / (h * h))
    return solve_periodic_tridiag(off, main, off, -residual)


def solve_lichnerowicz(bg: ConformalBackground, tt: TTData, tau: float, tol: float | None = None) -> LichSolution:
    """Damped Newton iteration from the σ = 0 seed.

    Backtracking halves the step (up to 30 times) until the max-norm residual
    decreases and u stays positive; convergence is a max-norm residual at or
    below ``tol``.  Non-convergence raises with the final residual attached.
    """
    if tol is None:
        tol = TOL_HOMOGENEOUS if bg.grid_points is None else TOL_GRID
    if tol <= 0:
        raise ValueError("tol must be positive")
    u0 = reference_factor(bg.dim, tau)
    u = u0 if bg.grid_points is None else np.full(bg.grid_points, u0)
    res = lichnerowicz_residual(u, bg, tt, tau)
    norm = float(np.max(np.abs(res)))
    history = [norm]
    for _ in range(MAX_NEWTON_ITERATIONS):
        if norm <= tol:
            return LichSolution(u, tau, norm, tuple(history))
        step = _newton_direction(u, res, bg, tt, tau)
        alpha = 1.0
        for _ in range(MAX_LINE_SEARCH_HALVINGS):
            trial = u + alpha * step
            if np.all(np.asarray(trial) > 0):
                trial_res = lichnerowicz_residual(trial, bg, tt, tau)
                trial_norm = float(np.max(np.abs(trial_res)))
                if trial_norm < norm:
                    break
            alpha *= 0.5
        else:
            raise RuntimeError(
                f"line search failed to keep u positive and decreasing (residual {norm:.3e})"
            )
        u, res, norm = trial, trial_res, trial_norm
        history.append(norm)
    raise RuntimeError(f"Newton did not converge in {MAX_NEWTON_ITERATIONS} iterations (residual {norm:.3e})")


def integrate(bg: ConformalBackground, values) -> float:
    """∫ f dμ_h with equal node weights, normalized so ∫ 1 dμ_h = Vol(M,h)."""
    if bg.grid_points is None:
        return bg.volume * float(values)
    return bg.volume * float(np.mean(values))


def conformal_ham(sol: LichSolution, bg: ConformalBackground) -> float:
    """Rescaled volume of the solved data: |τ|ⁿ ∫ u^(2n/(n-2)) dμ_h."""
    n = bg.dim
    dens = np.asarray(sol.u, float) ** (2.0 * n / (n - 2))
    return abs(sol.tau) ** n * integrate(bg, dens)


def sigma_report(ham_values, n: int) -> float:
    """Upper bound on the σ-constant from sampled rescaled volumes.

    Evaluates -((n-1)/n)·(min Ham)^(2/n); the infimum over all data would
    give the σ-constant itself, so a finite sample only bounds it from above.
    """
    values = list(ham_values)
    if not values:
        raise ValueError("need at least one Ham value")
    if min(values) <= 0:
        raise ValueError("Ham values must be positive")
    return -((n - 1) / n) * min(values) ** (2.0 / n)


SWEEP_COLUMNS = ("tau", "sigma_sq", "u_min", "u_max", "ham", "bound_nn_vol")


def sweep_constant_sigma(bg: ConformalBackground, tau_values, sigma_sq_values):
    """Solve over the (τ, |σ|²) product grid; one SWEEP_COLUMNS row per case."""
    rows = []
    bound = bg.dim**bg.dim * bg.volume
    for tau in tau_values:
        for s2 in sigma_sq_values:
            sol = solve_lichnerowicz(bg, TTData(float(s2)), float(tau))
            ham = conformal_ham(sol, bg)
            u = np.asarray(sol.u, float)
            rows.append((float(tau), float(s2), float(np.min(u)), float(np.max(u)), ham, bound))
    return rows
