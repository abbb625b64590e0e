"""Zero-shift CMC Einstein flow in block-reduced form.

The evolved geometry is a product of homogeneous blocks (one hyperbolic
factor, optionally flat factors).  A ``GridLapseProblem`` samples the fields
along one flat circle factor on a uniform periodic grid; it serves only the
lapse solve, the smallest setting where the lapse equation is a genuine
two-point boundary problem, and it holds numpy arrays.  Its periodic
kernels, the second difference and the periodic tridiagonal solve, live here
too; the solve is one dense numpy solve, so flow never loads scipy.  These
grid functions import numpy where they run, and ``HamTrace.column`` where it
returns an array; nothing else here touches numpy, so a homogeneous flow
starts and finishes without loading it.
Evolution, the τ grid, the trace and its checks, and the constraint
residuals take homogeneous ``FlowState`` data alone, held as plain Python
floats: on one or two blocks numpy's per-call overhead would dominate the
arithmetic, and Python's float arithmetic and libm do not change with the
host's SIMD extensions.  A slotted ``FlowState`` computes its
mixed eigenvalues, tr K and |K|² when built; RK4 stages 2–4 advance the fields
and sum |K|² in one pass over plain lists, so a step builds one state.

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
from dataclasses import dataclass, field

from .models import SliceData

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
        if not 0 < self.volume_factor < math.inf:
            raise ValueError("volume_factor must be finite and positive")

    @property
    def dim(self) -> int:
        return int(sum(self.dims))


@dataclass(frozen=True, eq=False, slots=True)
class FlowState:
    """Flow variables at one CMC time: metric scales A and covariant K values P.

    ``scales`` and ``kcov`` are tuples of Python floats, one entry per block.
    ``tau`` is the CMC time parameter; tr K of the fields tracks it up to
    integrator drift.  The mixed eigenvalues ``mixed_k``, tr K and |K|² are
    computed once, when the state is built; ``k_norm2`` is Σ d·p² in block order.
    """

    geometry: BlockGeometry
    tau: float
    scales: tuple
    kcov: tuple
    mixed_k: tuple = field(init=False)
    trace_k: float = field(init=False)
    k_norm2: float = field(init=False)

    def __post_init__(self):
        dims = self.geometry.dims
        mixed = tuple([k / a for a, k in zip(self.scales, self.kcov)])
        object.__setattr__(self, "mixed_k", mixed)
        object.__setattr__(self, "trace_k", sum([d * p for d, p in zip(dims, mixed)]))
        object.__setattr__(self, "k_norm2", sum([d * (p * p) for d, p in zip(dims, mixed)]))

    def khat_norm2(self) -> float:
        """Squared norm of the trace-free part of K."""
        mean = self.trace_k / self.geometry.dim
        devs = (p - mean for p in self.mixed_k)
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

    @property
    def k_norm2(self) -> np.ndarray:
        import numpy as np

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
    import numpy as np

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
    import numpy as np

    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)


def periodic_second_difference(f: np.ndarray, h: float) -> np.ndarray:
    """(f[j+1] - 2 f[j] + f[j-1]) / h², indices mod the grid size."""
    import numpy as np

    return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / (h * h)


def solve_periodic_tridiag(lower, main, upper, rhs):
    """Solve a periodic tridiagonal system.

    ``lower[j]`` couples row j to j-1, ``upper[j]`` to j+1 (indices mod m,
    m >= 3 so that the corners lie off the bands).  The matrix is assembled
    dense and solved by LU: callers have a few hundred points, where that
    costs under a millisecond.
    """
    import numpy as np

    a = np.diag(main) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    a[0, -1], a[-1, 0] = lower[0], upper[-1]
    return np.linalg.solve(a, rhs)


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


def _homogeneous_lapse(k2: float) -> float:
    """N = 1/|K|² from |K|²; a NaN |K|² fails here too."""
    if not k2 > DEGENERATE_K2:
        raise DegenerateLapseError(f"homogeneous lapse needs |K|^2 > {DEGENERATE_K2:g}, got {k2!r}")
    return 1.0 / k2


def _grid_lapse(prob: GridLapseProblem) -> np.ndarray:
    """Second-order central differences and a dense periodic tridiagonal solve."""
    import numpy as np

    k2 = prob.k_norm2
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
    return _homogeneous_lapse(state.k_norm2)


def lapse_residual(state: FlowState | GridLapseProblem, lapse) -> float:
    """max |-ΔN + |K|²N - 1| for a given lapse."""
    k2 = state.k_norm2
    if not isinstance(state, GridLapseProblem):
        return abs(k2 * lapse - 1.0)
    import numpy as np

    c2, c1 = _laplacian_coefficients(state)
    lap = c2 * periodic_second_difference(lapse, state.spacing) + c1 * _ddr(lapse, state.spacing)
    return float(np.max(np.abs(-lap + k2 * lapse - 1.0)))


# ---------------------------------------------------------------------------
# curvature and constraint residuals
# ---------------------------------------------------------------------------


def flat_constraint_residual(state: FlowState) -> float:
    """Max Gauss residual of flat vacuum data over the blocks.

    Per block the mixed Gauss equation reads R - K² + (tr K) K = 0, with Ricci
    eigenvalue -(d-1)/A on hyperbolic blocks and zero on flat ones.  Codazzi
    holds identically on homogeneous data, so it has no residual.  A NaN
    scale or K value makes tr K NaN and so every block's residual, the first
    included; the built-in max keeps a NaN first entry, so the residual is
    then NaN.
    """
    geom = state.geometry
    trk = state.trace_k
    return max(
        abs((-(d - 1.0) / a if curv == "hyperbolic" else 0.0) - p * p + trk * p)
        for d, curv, a, p in zip(geom.dims, geom.curvatures, state.scales, state.mixed_k)
    )


# ---------------------------------------------------------------------------
# volume and integrals
# ---------------------------------------------------------------------------


def _volume_density(dims: tuple, scales: tuple) -> float:
    """dμ_g per unit-scale volume: the product of A^{d/2} over the blocks."""
    return math.prod(a ** (d / 2.0) for d, a in zip(dims, scales))


def integrate_scalar(geom: BlockGeometry, scales: tuple, value: float) -> float:
    """∫ f dμ_g for a scalar that is constant on the slice."""
    return geom.volume_factor * (_volume_density(geom.dims, scales) * value)


def volume_of(geom: BlockGeometry, scales: tuple) -> float:
    return integrate_scalar(geom, scales, 1.0)


# ---------------------------------------------------------------------------
# the flow proper
# ---------------------------------------------------------------------------


def _rates(scales, kcov, k2: float):
    """(dA/dτ, dP/dτ) as lists, from the fields and their |K|² ``k2``; the lapse
    is constant on homogeneous data, so the Hessian term of ∂ₜK vanishes."""
    lapse = _homogeneous_lapse(k2)
    return ([(-2.0 * lapse) * k for k in kcov],
            [((-lapse) * k) * k / a for a, k in zip(scales, kcov)])


def _stage(dims, a0, p0, h, da, dp):
    """Rates at the RK4 stage (a0 + h·da, p0 + h·dp); one pass advances the
    fields and sums |K|² as ``FlowState.k_norm2`` does."""
    scales, kcov, k2 = [], [], 0
    for d, a, p, ra, rp in zip(dims, a0, p0, da, dp):
        a, p = a + h * ra, p + h * rp
        scales.append(a)
        kcov.append(p)
        m = p / a
        k2 += d * (m * m)
    return _rates(scales, kcov, k2)


def flow_step(state: FlowState, dtau: float, drift_tol: float = DRIFT_TOL, _depth: int = 8) -> FlowState:
    """One classical RK4 step in CMC time, with drift-triggered halving.

    The lapse equation is solved at every stage.  Stage 1 takes the state's
    |K|²; stages 2–4 run through ``_stage`` on plain lists, and the only
    FlowState built is the result.  A non-positive or NaN scale after the
    step, or a zero scale at a stage, raises RuntimeError; a NaN or vanishing
    |K|² at any stage raises DegenerateLapseError.  After the step the trace
    of K is compared with the target time; if the step *added* more than
    ``drift_tol`` of drift it is retried as two half steps (up to 8 nested
    halvings).  No projection is applied — drift stays an honest error meter.
    """
    dims, a0, p0 = state.geometry.dims, state.scales, state.kcov
    half = 0.5 * dtau
    try:
        da1, dp1 = _rates(a0, p0, state.k_norm2)
        da2, dp2 = _stage(dims, a0, p0, half, da1, dp1)
        da3, dp3 = _stage(dims, a0, p0, half, da2, dp2)
        da4, dp4 = _stage(dims, a0, p0, dtau, da3, dp3)
    except ZeroDivisionError as exc:
        # only a stage scale of exactly zero divides by zero in _stage and _rates
        raise RuntimeError(f"metric block scale became zero at an RK4 stage of the step "
                           f"from tau = {state.tau!r} by {dtau!r}") from exc
    h = dtau / 6.0
    scales = tuple([x + h * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
                    for x, q1, q2, q3, q4 in zip(a0, da1, da2, da3, da4)])
    kcov = tuple([x + h * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
                  for x, q1, q2, q3, q4 in zip(p0, dp1, dp2, dp3, dp4)])
    if not all(a > 0.0 for a in scales):
        raise RuntimeError(f"metric block scale became non-positive or NaN during a step: {scales}")
    new = FlowState(state.geometry, state.tau + dtau, scales, kcov)
    drift_before = abs(state.trace_k - state.tau)
    drift_after = abs(new.trace_k - new.tau)
    if drift_after - drift_before > drift_tol:
        if _depth <= 0:
            raise RuntimeError(
                f"CMC drift increment {drift_after - drift_before:.3e} "
                "persists at minimal step size"
            )
        first = flow_step(state, half, drift_tol, _depth - 1)
        return flow_step(first, half, drift_tol, _depth - 1)
    return new


@dataclass
class HamTrace:
    """Record of a flow run: one row per τ grid point, a tuple of Python floats
    in the order of TRACE_COLUMNS."""

    ndim: int
    data: list

    def floats(self, name: str) -> list:
        """One column as a list of Python floats."""
        j = TRACE_COLUMNS.index(name)
        return [row[j] for row in self.data]

    def column(self, name: str) -> np.ndarray:
        """One column as a numpy array, for callers that compute on arrays."""
        import numpy as np

        return np.array(self.floats(name))

    def __len__(self) -> int:
        return len(self.data)


def _record(state: FlowState) -> tuple:
    """One TRACE_COLUMNS row; the homogeneous lapse is both its min and max."""
    geom = state.geometry
    lapse = solve_lapse(state)
    density = _volume_density(geom.dims, state.scales)
    vol = geom.volume_factor * density
    ham = abs(state.tau) ** geom.dim * vol
    nk2 = geom.volume_factor * (density * (lapse * state.khat_norm2()))
    return (state.tau, vol, ham, nk2, flat_constraint_residual(state), lapse, lapse)


def tau_grid(tau_start: float, tau_end: float, steps: int) -> list:
    """CMC time grid between two negative times, uniform in log|τ|: a list of
    ``steps + 1`` Python floats from ``tau_start`` to ``tau_end``, both exact.

    Steps shrink toward τ → 0⁻, where the solution varies fastest.  The
    interior points follow numpy 2.x's ``-geomspace(-tau_start, -tau_end,
    steps + 1)``: a linspace in log10|τ|, i·step + log10|tau_start|, mapped
    back by ``10.0 ** y``.  Python's ``**`` and ``math.log10`` are libm's, so
    the grid does not change with numpy's SIMD dispatch (numpy's AVX-512
    power rounds some of these points differently from libm).
    """
    if not (tau_start < 0 and tau_end < 0):
        raise ValueError("CMC times must be negative")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0 or tau_start == tau_end:
        return [tau_start]
    lo = math.log10(-tau_start)
    step = (math.log10(-tau_end) - lo) / steps
    return [tau_start, *[-(10.0 ** (i * step + lo)) for i in range(1, steps)], tau_end]


def run_flow(initial: FlowState, tau_end: float, steps: int,
             drift_tol: float = DRIFT_TOL) -> HamTrace:
    """Integrate the CMC flow and record the Ham diagnostics at every grid time.

    drift_tol is forwarded to flow_step; pass math.inf to disable the
    per-step re-stepping (useful when measuring the raw integrator order).
    """
    grid = tau_grid(initial.tau, tau_end, steps)
    state = initial
    rows = [_record(state)]
    for t0, t1 in zip(grid, grid[1:]):
        state = flow_step(state, t1 - t0, drift_tol=drift_tol)
        rows.append(_record(state))
    return HamTrace(initial.geometry.dim, rows)


# ---------------------------------------------------------------------------
# trace diagnostics
# ---------------------------------------------------------------------------


def max_or_nan(values) -> float:
    """The largest of 0.0 and ``values``, or NaN if any value is NaN: the worst
    case of errors and of violations clipped at 0.

    The built-in max keeps a NaN only in first place, and drops it anywhere
    else; a check's worst case must fail on a NaN wherever it sits, as
    np.max does.
    """
    worst = 0.0
    for value in values:
        if value > worst:
            worst = value
        elif value != value:
            return value
    return worst


def _identity_mismatches(tau, ham, nk2, n):
    """Relative mismatch of the three-point dHam/dτ and -n|τ|^{n-1} ∫ N|K̂|² dμ
    at each interior record."""
    for t0, t1, t2, a, b, c, q in zip(tau, tau[1:], tau[2:], ham, ham[1:], ham[2:], nk2[1:]):
        h1, h2 = t1 - t0, t2 - t1
        deriv = (-h2 / (h1 * (h1 + h2)) * a + (h2 - h1) / (h1 * h2) * b
                 + h1 / (h2 * (h1 + h2)) * c)
        rhs = -n * abs(t1) ** (n - 1) * q
        # a NaN deriv or rhs makes the numerator NaN, whatever max keeps
        yield abs(deriv - rhs) / max(1.0, abs(deriv), abs(rhs))


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
    a mixed absolute/relative tolerance, HAM_IDENTITY_TOL.  A NaN anywhere
    in the trace fails the check: max_or_nan keeps a NaN mismatch.
    """
    tau, ham = trace.floats("tau"), trace.floats("ham")
    increases = sum(1 for a, b in zip(ham, ham[1:]) if b - a > HAM_INCREASE_REL_TOL * abs(a))
    max_mismatch = max_or_nan(
        _identity_mismatches(tau, ham, trace.floats("n_khat2_integral"), trace.ndim))
    ok = increases == 0 and max_mismatch <= HAM_IDENTITY_TOL
    return MonotonicityReport(ok, increases, max_mismatch)


def lapse_identity_check(state: FlowState):
    """Return (∫(1 - Nτ²/n)dμ, ∫N|K̂|²dμ); equal when N solves the lapse equation."""
    lapse = solve_lapse(state)
    geom = state.geometry
    n = geom.dim
    lhs = integrate_scalar(geom, state.scales, 1.0 - lapse * state.tau**2 / n)
    rhs = integrate_scalar(geom, state.scales, lapse * state.khat_norm2())
    return lhs, rhs
