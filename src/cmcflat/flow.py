"""Zero-shift CMC Einstein flow in block-reduced form.

The evolved geometry is a product of homogeneous blocks, and block order is
the whole encoding: block 0 is the hyperbolic factor, and an optional block 1
of dimension 1 is the flat circle.  A ``GridLapseProblem`` samples the fields
along the circle, its last block, on a uniform periodic grid; it serves only
the lapse solve, the smallest setting where the lapse equation is a genuine
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
host's SIMD extensions.  One RK4 kernel, ``_rk4``, steps the fields as
named floats: (A, P) of the hyperbolic block and (A, P) of the circle, where
a cone gets a zero-dimensional phantom circle (A = 1, P = 0) that adds only
exact zeros and multiplies only by exact ones.  ``run_flow`` loops over the
kernel and builds each trace row inline, so it builds no ``FlowState`` per
step; ``flow_step`` wraps one kernel step in a ``FlowState``.  The per-block
functions on a ``FlowState`` (``solve_lapse``, ``flat_constraint_residual``,
``volume_of``, ``integrate_scalar``, ``FlowState.khat_norm2``) are the
reference that the kernel's rows are tested against bit for bit.

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
    """Static structure of the spatial manifold: the block dimensions.

    ``dims`` is (d,) or (d, 1) with d >= 2: the hyperbolic block, optionally
    followed by the flat circle, the cone and the Kasner product that the
    models build and the flow kernel steps.  ``volume_factor`` is the volume
    of the unit-scale cross section, including every constant factor.
    """

    dims: tuple
    volume_factor: float

    def __post_init__(self):
        if not (self.dims and self.dims[0] >= 2 and self.dims[1:] in ((), (1,))):
            raise ValueError(
                "blocks must be one hyperbolic block, optionally followed by one flat "
                f"block of dimension 1: dims (d,) or (d, 1) with d >= 2, got {self.dims}")
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
        if not len(self.scales) == len(self.kcov) == len(dims):
            raise ValueError("scales and kcov need one entry per block of the geometry")
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
    ``spacing`` along the last block, a flat circle.
    """

    dims: tuple
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
    kcov = tuple([p * a for a, p in zip(slc.scales, slc.k_eigenvalues, strict=True)])
    return FlowState(BlockGeometry(slc.dims, slc.volume_factor), slc.tau, slc.scales, kcov)


def grid_state_from_slice(slc: SliceData, grid_points: int, circle_length: float) -> GridLapseProblem:
    """Lapse problem of a Kasner slice, its fields replicated along its circle."""
    if grid_points < 8:
        raise ValueError("periodic grid needs at least 8 points")
    if not 0 < circle_length < math.inf:
        raise ValueError("grid mode needs a finite positive circle_length")
    if len(BlockGeometry(slc.dims, slc.volume_factor).dims) < 2:
        raise ValueError("grid mode needs a flat one-dimensional block, the slice's circle")
    import numpy as np

    ones = np.ones(grid_points)
    scales = np.stack([a * ones for a in slc.scales])
    kcov = np.stack([p * a * ones for a, p in zip(slc.scales, slc.k_eigenvalues, strict=True)])
    return GridLapseProblem(slc.dims, circle_length / grid_points, scales, kcov)


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
    c = prob.scales[-1]
    c1 = -_ddr(c, h) / (2.0 * c)
    for d, a in zip(prob.dims[:-1], prob.scales[:-1]):
        c1 = c1 + d * _ddr(a, h) / (2.0 * a)
    return 1.0 / c, c1 / c


def _homogeneous_lapse(k2: float) -> float:
    """N = 1/|K|² from |K|²; a NaN |K|² fails here too."""
    if not k2 > DEGENERATE_K2:
        raise DegenerateLapseError(f"homogeneous lapse needs |K|^2 > {DEGENERATE_K2:g}, got {k2!r}")
    return 1.0 / k2


def _grid_lapse(prob: GridLapseProblem) -> np.ndarray:
    """Second-order central differences and a dense periodic tridiagonal solve;
    a NaN |K|² or lapse fails its guard too."""
    import numpy as np

    k2 = prob.k_norm2
    if not float(np.max(k2)) > DEGENERATE_K2:
        raise DegenerateLapseError("lapse operator -Δ + |K|^2 is singular: |K|^2 vanishes "
                                   "or is NaN")
    h = prob.spacing
    c2, c1 = _laplacian_coefficients(prob)
    main = 2.0 * c2 / (h * h) + k2
    upper = -c2 / (h * h) - c1 / (2.0 * h)
    lower = -c2 / (h * h) + c1 / (2.0 * h)
    lapse = solve_periodic_tridiag(lower, main, upper, np.ones_like(k2))
    if not float(np.min(lapse)) > 0.0:
        raise DegenerateLapseError("lapse solve produced a NaN or non-positive lapse")
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
    eigenvalue -(d-1)/A on the hyperbolic block 0 and zero on the circle.
    Codazzi holds identically on homogeneous data, so it has no residual.  A
    NaN scale or K value makes tr K NaN and so every block's residual, the
    first included; the built-in max keeps a NaN first entry, so the residual
    is then NaN.
    """
    trk = state.trace_k
    ricci = (-(state.geometry.dims[0] - 1.0) / state.scales[0], 0.0)
    return max(abs(r - p * p + trk * p) for r, p in zip(ricci, state.mixed_k))


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


def _named_fields(state: FlowState) -> tuple:
    """(dh, dc, ah, kh, ac, kc): the dimensions, scales and covariant K values
    of the hyperbolic block and of the circle.  A cone gets a zero-dimensional
    phantom circle with A = 1.0 and P = 0.0, which the kernel keeps exactly."""
    dims, scales, kcov = state.geometry.dims, state.scales, state.kcov
    if len(dims) == 1:
        return dims[0], 0, scales[0], kcov[0], 1.0, 0.0
    return dims[0], dims[1], scales[0], kcov[0], scales[1], kcov[1]


def _rk4(dh, dc, tau, ah, kh, ac, kc, lapse, trace, dtau, drift_tol, depth=8):
    """One classical RK4 step from the fields at ``tau``, whose lapse and tr K
    the caller gives; returns (tau, ah, kh, ac, kc, ph, pc, trace, k2) at the
    end of the step, with ph, pc the mixed eigenvalues and k2 = |K|².

    Every operation and its order are those of the per-block reference: at
    each stage the rates are dA/dτ = -2N·P and dP/dτ = -N·P·P/A, the lapse
    N = 1/|K|² is solved from the stage's own fields, and |K|² sums the
    hyperbolic term, then the circle's.  A non-positive or NaN scale after
    the step, or a zero scale at a stage, raises RuntimeError; a NaN or
    vanishing |K|² at any stage raises DegenerateLapseError.  If the step
    *added* more than ``drift_tol`` of drift |tr K - τ| it is retried as two
    half steps, up to ``depth`` nested halvings.

    At each stage (a, k) are the hyperbolic block's fields and (b, c) the
    circle's, p and r their mixed eigenvalues, and g, q the factors -2N, -N.
    """
    half = 0.5 * dtau
    try:
        g, q = -2.0 * lapse, -lapse
        ah1, kh1, ac1, kc1 = g * kh, q * kh * kh / ah, g * kc, q * kc * kc / ac
        a, k, b, c = ah + half * ah1, kh + half * kh1, ac + half * ac1, kc + half * kc1
        p, r = k / a, c / b
        lapse2 = _homogeneous_lapse(dh * (p * p) + dc * (r * r))
        g, q = -2.0 * lapse2, -lapse2
        ah2, kh2, ac2, kc2 = g * k, q * k * k / a, g * c, q * c * c / b
        a, k, b, c = ah + half * ah2, kh + half * kh2, ac + half * ac2, kc + half * kc2
        p, r = k / a, c / b
        lapse3 = _homogeneous_lapse(dh * (p * p) + dc * (r * r))
        g, q = -2.0 * lapse3, -lapse3
        ah3, kh3, ac3, kc3 = g * k, q * k * k / a, g * c, q * c * c / b
        a, k, b, c = ah + dtau * ah3, kh + dtau * kh3, ac + dtau * ac3, kc + dtau * kc3
        p, r = k / a, c / b
        lapse4 = _homogeneous_lapse(dh * (p * p) + dc * (r * r))
        g, q = -2.0 * lapse4, -lapse4
        ah4, kh4, ac4, kc4 = g * k, q * k * k / a, g * c, q * c * c / b
    except ZeroDivisionError as exc:
        # only a stage scale of exactly zero divides by zero here
        raise RuntimeError(f"metric block scale became zero at an RK4 stage of the step "
                           f"from tau = {tau!r} by {dtau!r}") from exc
    h = dtau / 6.0
    a = ah + h * (ah1 + 2.0 * ah2 + 2.0 * ah3 + ah4)
    k = kh + h * (kh1 + 2.0 * kh2 + 2.0 * kh3 + kh4)
    b = ac + h * (ac1 + 2.0 * ac2 + 2.0 * ac3 + ac4)
    c = kc + h * (kc1 + 2.0 * kc2 + 2.0 * kc3 + kc4)
    if not (a > 0.0 and b > 0.0):
        scales = (a, b) if dc else (a,)
        raise RuntimeError(f"metric block scale became non-positive or NaN during a step: {scales}")
    p, r = k / a, c / b
    # sum() starts from 0, which turns a -0.0 first term into 0.0
    new_trace = (0 + dh * p) + dc * r
    drift = abs(new_trace - (tau + dtau)) - abs(trace - tau)
    if drift > drift_tol:
        if depth <= 0:
            raise RuntimeError(f"CMC drift increment {drift:.3e} persists at minimal step size")
        mid = _rk4(dh, dc, tau, ah, kh, ac, kc, lapse, trace, half, drift_tol, depth - 1)
        return _rk4(dh, dc, *mid[:5], _homogeneous_lapse(mid[8]), mid[7], half, drift_tol,
                    depth - 1)
    return tau + dtau, a, k, b, c, p, r, new_trace, dh * (p * p) + dc * (r * r)


def flow_step(state: FlowState, dtau: float, drift_tol: float = DRIFT_TOL) -> FlowState:
    """One classical RK4 step in CMC time, with drift-triggered halving.

    The lapse equation is solved at every stage.  This is one step of
    ``_rk4``, wrapped in a FlowState; its failures are the kernel's.  No
    projection is applied: drift stays an honest error meter.
    """
    dh, dc, ah, kh, ac, kc = _named_fields(state)
    tau, a, k, b, c = _rk4(dh, dc, state.tau, ah, kh, ac, kc,
                           _homogeneous_lapse(state.k_norm2), state.trace_k, dtau,
                           drift_tol)[:5]
    if dc:
        return FlowState(state.geometry, tau, (a, b), (k, c))
    return FlowState(state.geometry, tau, (a,), (k,))


@dataclass
class HamTrace:
    """Record of a flow run: one row per τ grid point, a tuple of Python floats
    in the order of TRACE_COLUMNS.  The rows are not changed once built."""

    ndim: int
    data: list
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def floats(self, name: str) -> list:
        """One column as a list of Python floats, built at the first call and
        the same list at every later one."""
        column = self._columns.get(name)
        if column is None:
            j = TRACE_COLUMNS.index(name)
            column = self._columns[name] = [row[j] for row in self.data]
        return column

    def column(self, name: str) -> np.ndarray:
        """One column as a numpy array, for callers that compute on arrays."""
        import numpy as np

        return np.array(self.floats(name))

    def __len__(self) -> int:
        return len(self.data)


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

    Each step is one ``_rk4`` step, and each row holds the lapse,
    the volume, Ham, ∫ N|K̂|² dμ and the Gauss residual of the step's fields,
    computed as ``solve_lapse``, ``volume_of``, ``integrate_scalar``,
    ``FlowState.khat_norm2`` and ``flat_constraint_residual`` compute them;
    the homogeneous lapse is both the row's min and max.  drift_tol is
    forwarded to the kernel; pass math.inf to disable the per-step
    re-stepping (useful when measuring the raw integrator order).
    """
    grid = tau_grid(initial.tau, tau_end, steps)
    geom = initial.geometry
    n, vf = geom.dim, geom.volume_factor
    dh, dc, ah, kh, ac, kc = _named_fields(initial)
    eh, ec, rh = dh / 2.0, dc / 2.0, -(dh - 1.0)
    tau, trace, k2 = initial.tau, initial.trace_k, initial.k_norm2
    ph, pc = kh / ah, kc / ac
    rows = []
    for i in range(len(grid)):
        if i:
            tau, ah, kh, ac, kc, ph, pc, trace, k2 = _rk4(
                dh, dc, tau, ah, kh, ac, kc, lapse, trace, grid[i] - grid[i - 1], drift_tol)
        lapse = _homogeneous_lapse(k2)
        density = ah ** eh * ac ** ec
        vol = vf * density
        mean = trace / n
        xh, xc = ph - mean, pc - mean
        # (dc·xc)·xc is dc·(xc·xc) for dc = 1, and stays an exact zero for the
        # phantom circle where xc·xc would overflow
        khat = dh * (xh * xh) + dc * xc * xc
        gh = abs(rh / ah - ph * ph + trace * ph)
        gc = abs(0.0 - pc * pc + trace * pc)
        # gc if gc > gh else gh is the built-in max(gh, gc), NaN rule included
        rows.append((tau, vol, abs(tau) ** n * vol, vf * (density * (lapse * khat)),
                     gc if gc > gh else gh, lapse, lapse))
    return HamTrace(n, rows)


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
