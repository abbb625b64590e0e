"""Zero-shift CMC Einstein flow in block-reduced form.

The evolved geometry is a product of homogeneous blocks (one hyperbolic
factor, optionally flat factors).  A ``GridLapseProblem`` samples the fields
along one flat circle factor on a uniform periodic grid; it serves only the
lapse solve, the smallest setting where the lapse equation is a genuine
two-point boundary problem, and it holds numpy arrays.  Evolution and the
constraint residuals take homogeneous ``FlowState`` data alone, held as
plain Python floats: on one or two blocks numpy's per-call overhead would
dominate the arithmetic.

Evolution system (CMC time t = tr K = τ, zero shift):

    ∂ₜ g_ab = -2 N K_ab
    ∂ₜ K_ab = -∇_a∇_b N - N K_ac K^c_b
    -ΔN + |K|² N = 1            (elliptic lapse; algebraic when homogeneous)

Solving the lapse equation makes ∂ₜ(tr K) = 1 pointwise, so the trace of K
stays glued to the time parameter; the residual drift measures integrator
error and a step whose drift exceeds DRIFT_TOL is retried at half step.

Per metric block the state is the pair (A, P): metric scale and covariant
second-fundamental-form eigenvalue, with mixed eigenvalue p = P/A.  The
monitored quantity is the rescaled volume Ham(τ) = |τ|ⁿ Vol(g), which is
non-increasing toward τ → 0⁻ with derivative -n |τ|^{n-1} ∫ N |K̂|² dμ
(K̂ the trace-free part of K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import SliceData
from .numerics import periodic_second_difference, solve_periodic_tridiag

#: τ-drift above this triggers a retried step at dτ/2
DRIFT_TOL = 1e-9
#: |K|² at or below this makes the lapse equation degenerate
DEGENERATE_K2 = 1e-12
#: relative Ham increase above this is flagged by the monotonicity check
HAM_INCREASE_REL_TOL = 1e-10
#: mismatch allowed between dHam/dτ and -n|τ|^{n-1} ∫ N|K̂|² dμ
HAM_IDENTITY_TOL = 1e-4

TRACE_COLUMNS = (
    "tau",
    "volume",
    "ham",
    "n_khat2_integral",
    "gauss_residual",
    "codazzi_residual",
    "lapse_min",
    "lapse_max",
)


class DegenerateLapseError(RuntimeError):
    """Raised when -Δ + |K|² is not invertible (|K|² vanishes identically)."""


@dataclass(frozen=True)
class BlockGeometry:
    """Static structure of the spatial manifold: block dims and curvatures.

    ``volume_factor`` is the volume of the unit-scale cross section,
    including every constant factor.
    """

    dims: tuple
    curvatures: tuple
    volume_factor: float

    def __post_init__(self):
        if len(self.dims) != len(self.curvatures):
            raise ValueError("dims and curvatures must align")
        for d, c in zip(self.dims, self.curvatures):
            if c not in ("hyperbolic", "flat"):
                raise ValueError(f"unknown curvature type {c!r}")
            if c == "hyperbolic" and d < 2:
                raise ValueError("hyperbolic blocks need dimension >= 2")
            if d < 1:
                raise ValueError("block dimensions must be positive")
        if not 2 <= self.dim <= 4:
            raise ValueError("total spatial dimension must satisfy 2 <= n <= 4")
        if self.volume_factor <= 0:
            raise ValueError("volume_factor must be positive")

    @property
    def dim(self) -> int:
        return int(sum(self.dims))


@dataclass(frozen=True, eq=False)
class FlowState:
    """Flow variables at one CMC time: metric scales A and covariant K values P.

    ``scales`` and ``kcov`` are tuples of Python floats, one entry per block.
    ``tau`` is the CMC time parameter; tr K of the fields tracks it up to
    integrator drift.
    """

    geometry: BlockGeometry
    tau: float
    scales: tuple
    kcov: tuple

    def mixed_k(self) -> tuple:
        return tuple(k / a for a, k in zip(self.scales, self.kcov))

    def trace_k(self) -> float:
        return sum(d * p for d, p in zip(self.geometry.dims, self.mixed_k()))

    def k_norm2(self) -> float:
        return sum(d * (p * p) for d, p in zip(self.geometry.dims, self.mixed_k()))

    def khat_norm2(self) -> float:
        """Squared norm of the trace-free part of K."""
        mean = self.trace_k() / self.geometry.dim
        devs = (p - mean for p in self.mixed_k())
        return sum(d * (x * x) for d, x in zip(self.geometry.dims, devs))


@dataclass(frozen=True, eq=False)
class GridLapseProblem:
    """The lapse equation on one leaf whose fields vary along a flat circle.

    ``scales`` and ``kcov`` have shape (n_blocks, m): block metric scales and
    covariant K values at the m nodes of a uniform periodic grid of step
    ``spacing`` along block ``grid_block``, a flat one-dimensional factor.
    """

    dims: tuple
    grid_block: int
    spacing: float
    scales: np.ndarray
    kcov: np.ndarray

    def k_norm2(self) -> np.ndarray:
        p = self.kcov / self.scales
        return np.einsum("b,bm->m", np.asarray(self.dims, float), p * p)


def state_from_slice(slc: SliceData) -> FlowState:
    """Homogeneous flow state from block-reduced slice data."""
    geom = BlockGeometry(
        tuple(b.dim for b in slc.blocks),
        tuple(b.curvature for b in slc.blocks),
        slc.volume_factor,
    )
    scales = tuple(b.metric_scale for b in slc.blocks)
    kcov = tuple(b.k_eigenvalue * b.metric_scale for b in slc.blocks)
    return FlowState(geom, slc.tau, scales, kcov)


def grid_state_from_slice(slc: SliceData, grid_points: int, circle_length: float) -> GridLapseProblem:
    """Lapse problem of a slice, its fields replicated along a circle factor.

    The slice must contain a flat one-dimensional block to carry the grid.
    """
    if grid_points < 8:
        raise ValueError("periodic grid needs at least 8 points")
    if circle_length <= 0:
        raise ValueError("grid mode needs a positive circle_length")
    flat_blocks = [
        i for i, b in enumerate(slc.blocks) if b.curvature == "flat" and b.dim == 1
    ]
    if not flat_blocks:
        raise ValueError("grid mode needs a flat one-dimensional block in the slice")
    ones = np.ones(grid_points)
    scales = np.stack([b.metric_scale * ones for b in slc.blocks])
    kcov = np.stack([b.k_eigenvalue * b.metric_scale * ones for b in slc.blocks])
    return GridLapseProblem(
        tuple(b.dim for b in slc.blocks), flat_blocks[0], circle_length / grid_points, scales, kcov
    )


# ---------------------------------------------------------------------------
# the lapse solve
# ---------------------------------------------------------------------------


def _ddr(f: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)


def _laplacian_coefficients(prob: GridLapseProblem):
    """Coefficients (c2, c1) with ΔN = c2 N'' + c1 N' on the periodic grid."""
    h = prob.spacing
    gb = prob.grid_block
    c = prob.scales[gb]
    c1 = -_ddr(c, h) / (2.0 * c)
    for i, d in enumerate(prob.dims):
        if i == gb:
            continue
        c1 = c1 + d * _ddr(prob.scales[i], h) / (2.0 * prob.scales[i])
    return 1.0 / c, c1 / c


def _homogeneous_lapse(state: FlowState) -> float:
    k2 = state.k_norm2()
    if k2 <= DEGENERATE_K2:
        raise DegenerateLapseError("homogeneous lapse needs |K|^2 > 0")
    return 1.0 / k2


def _grid_lapse(prob: GridLapseProblem) -> np.ndarray:
    """Second-order central differences, banded solve plus rank-one periodic correction."""
    k2 = prob.k_norm2()
    if float(np.max(k2)) <= DEGENERATE_K2:
        raise DegenerateLapseError("lapse operator -Δ + |K|^2 is singular: |K|^2 vanishes")
    h = prob.spacing
    c2, c1 = _laplacian_coefficients(prob)
    main = 2.0 * c2 / (h * h) + k2
    upper = -c2 / (h * h) - c1 / (2.0 * h)
    lower = -c2 / (h * h) + c1 / (2.0 * h)
    lapse = solve_periodic_tridiag(lower, main, upper, np.ones_like(k2))
    if float(np.min(lapse)) <= 0.0:
        raise DegenerateLapseError("lapse solve produced a non-positive lapse")
    return lapse


def solve_lapse(state: FlowState | GridLapseProblem):
    """Solve -ΔN + |K|² N = 1: algebraic (N = 1/|K|²) on a FlowState, periodic on a grid."""
    if isinstance(state, GridLapseProblem):
        return _grid_lapse(state)
    return _homogeneous_lapse(state)


def lapse_residual(state: FlowState | GridLapseProblem, lapse) -> float:
    """max |-ΔN + |K|²N - 1| for a given lapse."""
    k2 = state.k_norm2()
    if not isinstance(state, GridLapseProblem):
        return abs(k2 * lapse - 1.0)
    c2, c1 = _laplacian_coefficients(state)
    lap = c2 * periodic_second_difference(lapse, state.spacing) + c1 * _ddr(lapse, state.spacing)
    return float(np.max(np.abs(-lap + k2 * lapse - 1.0)))


# ---------------------------------------------------------------------------
# curvature and constraint residuals
# ---------------------------------------------------------------------------


def flat_constraint_residual(state: FlowState):
    """(max Gauss residual, Codazzi residual) for flat vacuum data.

    Per block the mixed Gauss equation reads R - K² + (tr K) K = 0, with Ricci
    eigenvalue -(d-1)/A on hyperbolic blocks and zero on flat ones.  Codazzi
    holds identically on homogeneous data.
    """
    geom = state.geometry
    trk = state.trace_k()
    gauss = max(
        abs((-(d - 1.0) / a if curv == "hyperbolic" else 0.0) - p * p + trk * p)
        for d, curv, a, p in zip(geom.dims, geom.curvatures, state.scales, state.mixed_k())
    )
    return gauss, 0.0


# ---------------------------------------------------------------------------
# volume and integrals
# ---------------------------------------------------------------------------


def integrate_scalar(geom: BlockGeometry, scales: tuple, value: float) -> float:
    """∫ f dμ_g for a scalar that is constant on the slice."""
    density = math.prod(a ** (d / 2.0) for d, a in zip(geom.dims, scales))
    return geom.volume_factor * (density * value)


def volume_of(geom: BlockGeometry, scales: tuple) -> float:
    return integrate_scalar(geom, scales, 1.0)


# ---------------------------------------------------------------------------
# the flow proper
# ---------------------------------------------------------------------------


def _rhs(state: FlowState):
    # the lapse is constant on homogeneous data, so the Hessian term of ∂ₜK vanishes
    lapse = _homogeneous_lapse(state)
    return (tuple(-2.0 * lapse * k for k in state.kcov),
            tuple(-lapse * k * k / a for a, k in zip(state.scales, state.kcov)))


def _advance(state: FlowState, h: float, rates) -> tuple:
    """(A, P) of the state moved by h along the rates (dA/dτ, dP/dτ)."""
    return tuple(tuple(x + h * r for x, r in zip(xs, rs))
                 for xs, rs in zip((state.scales, state.kcov), rates))


def flow_step(state: FlowState, dtau: float, drift_tol: float = DRIFT_TOL, _depth: int = 8) -> FlowState:
    """One classical RK4 step in CMC time, with drift-triggered halving.

    The lapse equation is solved at every stage.  After the step the trace of
    K is compared with the target time; if the step *added* more than
    ``drift_tol`` of drift it is retried as two half steps (up to 8 nested
    halvings).  No projection is applied — drift stays an honest error meter.
    """
    geom, tau = state.geometry, state.tau
    r1 = _rhs(state)
    r2 = _rhs(FlowState(geom, tau + 0.5 * dtau, *_advance(state, 0.5 * dtau, r1)))
    r3 = _rhs(FlowState(geom, tau + 0.5 * dtau, *_advance(state, 0.5 * dtau, r2)))
    r4 = _rhs(FlowState(geom, tau + dtau, *_advance(state, dtau, r3)))
    rates = tuple(tuple(q1 + 2.0 * q2 + 2.0 * q3 + q4 for q1, q2, q3, q4 in zip(*qs))
                  for qs in zip(r1, r2, r3, r4))
    new = FlowState(geom, tau + dtau, *_advance(state, dtau / 6.0, rates))
    if any(a <= 0.0 for a in new.scales):
        raise RuntimeError("metric block scale became non-positive during a step")
    drift_before = abs(state.trace_k() - tau)
    drift_after = abs(new.trace_k() - new.tau)
    if drift_after - drift_before > drift_tol:
        if _depth <= 0:
            raise RuntimeError(
                f"CMC drift increment {drift_after - drift_before:.3e} "
                "persists at minimal step size"
            )
        half = flow_step(state, 0.5 * dtau, drift_tol, _depth - 1)
        return flow_step(half, 0.5 * dtau, drift_tol, _depth - 1)
    return new


@dataclass
class HamTrace:
    """Record of a flow run: one row per τ grid point (columns TRACE_COLUMNS)."""

    ndim: int
    data: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.data[:, TRACE_COLUMNS.index(name)]

    def __len__(self) -> int:
        return self.data.shape[0]


def _record(state: FlowState) -> tuple:
    """One TRACE_COLUMNS row; the homogeneous lapse is both its min and max."""
    lapse = solve_lapse(state)
    vol = volume_of(state.geometry, state.scales)
    ham = abs(state.tau) ** state.geometry.dim * vol
    nk2 = integrate_scalar(state.geometry, state.scales, lapse * state.khat_norm2())
    gauss, codazzi = flat_constraint_residual(state)
    return (state.tau, vol, ham, nk2, gauss, codazzi, lapse, lapse)


def tau_grid(tau_start: float, tau_end: float, steps: int) -> np.ndarray:
    """CMC time grid between two negative times, uniform in log|τ|.

    Steps shrink toward τ → 0⁻, where the solution varies fastest.
    """
    if tau_start >= 0 or tau_end >= 0:
        raise ValueError("CMC times must be negative")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0 or tau_start == tau_end:
        return np.array([tau_start])
    return -np.geomspace(-tau_start, -tau_end, steps + 1)


def run_flow(initial: FlowState, tau_end: float, steps: int,
             drift_tol: float = DRIFT_TOL) -> HamTrace:
    """Integrate the CMC flow and record the Ham diagnostics at every grid time.

    drift_tol is forwarded to flow_step; pass numpy.inf to disable the
    per-step re-stepping (useful when measuring the raw integrator order).
    """
    grid = tau_grid(initial.tau, tau_end, steps)
    state = initial
    rows = []
    for i, tau in enumerate(grid):
        rows.append(_record(state))
        if i + 1 < len(grid):
            state = flow_step(state, float(grid[i + 1] - grid[i]), drift_tol=drift_tol)
    return HamTrace(initial.geometry.dim, np.array(rows))


# ---------------------------------------------------------------------------
# trace diagnostics
# ---------------------------------------------------------------------------


@dataclass
class MonotonicityReport:
    ok: bool
    n_increases: int
    max_identity_mismatch: float


def ham_monotonicity_check(trace: HamTrace) -> MonotonicityReport:
    """Check Ham is non-increasing and satisfies its derivative identity.

    Any relative increase beyond HAM_INCREASE_REL_TOL between consecutive
    records is flagged.  At interior records the three-point (nonuniform)
    central difference of Ham is compared with -n |τ|^{n-1} ∫ N|K̂|² dμ using
    a mixed absolute/relative tolerance, HAM_IDENTITY_TOL.
    """
    tau = trace.column("tau")
    ham = trace.column("ham")
    nk2 = trace.column("n_khat2_integral")
    n = trace.ndim
    increases = np.nonzero(np.diff(ham) > HAM_INCREASE_REL_TOL * np.abs(ham[:-1]))[0]
    max_mismatch = 0.0
    for i in range(1, len(tau) - 1):
        h1 = tau[i] - tau[i - 1]
        h2 = tau[i + 1] - tau[i]
        deriv = (
            -h2 / (h1 * (h1 + h2)) * ham[i - 1]
            + (h2 - h1) / (h1 * h2) * ham[i]
            + h1 / (h2 * (h1 + h2)) * ham[i + 1]
        )
        rhs = -n * abs(tau[i]) ** (n - 1) * nk2[i]
        mismatch = abs(deriv - rhs) / max(1.0, abs(deriv), abs(rhs))
        max_mismatch = max(max_mismatch, mismatch)
    ok = bool(increases.size == 0 and max_mismatch <= HAM_IDENTITY_TOL)
    return MonotonicityReport(ok, int(increases.size), float(max_mismatch))


def lapse_identity_check(state: FlowState):
    """Return (∫(1 - Nτ²/n)dμ, ∫N|K̂|²dμ); equal when N solves the lapse equation."""
    lapse = solve_lapse(state)
    geom = state.geometry
    n = geom.dim
    lhs = integrate_scalar(geom, state.scales, 1.0 - lapse * state.tau**2 / n)
    rhs = integrate_scalar(geom, state.scales, lapse * state.khat_norm2())
    return lhs, rhs
