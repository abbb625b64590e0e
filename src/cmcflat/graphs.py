"""Spacelike graphs t = phi(x) in Minkowski space and their quotient geometry.

A height field phi on a uniform grid over a patch of Euclidean n-space
describes the surface {(phi(x), x)}.  With the signature (-,+,...,+) the
induced metric, future unit normal, and second fundamental form are

    g_ij = delta_ij - phi_i phi_j          W = sqrt(1 - |grad phi|^2)
    nu   = (1, grad phi) / W               K_ij = -phi_ij / W

so the volume element is W dx and the upper hyperboloid of radius s,
phi = sqrt(s^2 + |x|^2), has constant mean curvature H = -n/s.  All
differential operators act on interior nodes (two-node margin); the frame
carries Dirichlet data.

The quotient machinery (n = 2) integrates over one fundamental domain of a
Fuchsian group by filtering through the Gauss map: the normal of an invariant
surface is equivariant, so the preimage of the fundamental octagon under the
Gauss map cuts out exactly one copy of the quotient.  Boundary cells of the
filtered region are resolved by a linear (marching-squares) cut.

CMC surfaces are produced by a damped Newton relaxation of H[phi] = tau on
the interior with the frame held fixed; its contract is the achieved
residual, not convergence.  Each Newton step factors the Jacobian by a
symmetric-mode, no-pivot sparse LU (minimum degree on A^T + A).  The LU is
kept and first tried again as a chord step; the chord step is taken only if
it shrinks the residual by CHORD_CONTRACTION, and otherwise the Jacobian is
factored afresh at the current iterate.  Every solve, chord or Newton, is
checked against the linear residual of the matrix that was factored and
raises NewtonStepError when that check fails.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import holonomy

#: required distance of the discrete gradient from the light cone
SPACELIKE_MARGIN = 1e-6
#: consecutive rejected relaxation steps before giving up
MAX_STEP_REJECTIONS = 40
#: relative linear residual allowed for one Newton or chord step of the relaxation
NEWTON_STEP_RTOL = 1e-10
#: residual reduction a chord step (the kept LU of an earlier Newton step) must
#: reach to be taken; a chord step that falls short makes the Jacobian refactored
CHORD_CONTRACTION = 0.1
#: soft-minimum width of the orbit envelope
ENVELOPE_SMOOTHING = 0.08
#: Newton iterations allowed to each relaxation of the limit experiment
LIMIT_MAX_ITERS = 25

try:  # glibc; other C libraries have no malloc_trim and skip the release
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None

LIMIT_COLUMNS = ("lambda", "tau_mean", "volume", "ham_ratio", "residual", "steps",
                 "factorizations")


class SpacelikeError(ValueError):
    """The discrete gradient reached the light cone (|grad phi| too close to 1)."""


class NewtonStepError(RuntimeError):
    """A Newton or chord step of the CMC relaxation failed its linear-residual check."""


@dataclass(frozen=True)
class HeightField:
    """phi sampled on a uniform grid: values[i...] at origin + spacing*(i...)."""

    values: np.ndarray
    spacing: float
    origin: tuple

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != len(self.origin):
            raise ValueError("origin must have one entry per grid axis")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if any(s < 5 for s in v.shape):
            raise ValueError("need at least 5 nodes per axis for interior stencils")

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing * np.arange(self.shape[axis])

    def meshgrid(self):
        axes = [self.axis_coords(i) for i in range(self.ndim)]
        return np.meshgrid(*axes, indexing="ij")

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[tuple(slice(2, -2) for _ in range(self.ndim))] = True
        return mask


def sample_height_field(fn, extent: float, nodes: int, ndim: int = 2) -> HeightField:
    """Sample fn(x1, ..., xn) on a centered square patch [-extent, extent]^n."""
    spacing = 2.0 * extent / (nodes - 1)
    origin = (-extent,) * ndim
    axes = [origin[i] + spacing * np.arange(nodes) for i in range(ndim)]
    grids = np.meshgrid(*axes, indexing="ij")
    return HeightField(fn(*grids), spacing, origin)


def hyperboloid_field(s: float, extent: float, nodes: int, ndim: int = 2) -> HeightField:
    """The CMC model graph phi = sqrt(s^2 + |x|^2) (mean curvature -n/s)."""
    return sample_height_field(
        lambda *xs: np.sqrt(s * s + sum(x * x for x in xs)), extent, nodes, ndim
    )


def _second_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Compact central second difference along one axis (edges copy inward).

    The compact stencil (f[k-1] - 2f[k] + f[k+1])/h^2 keeps the linearization
    of the mean-curvature operator on the 9-point box; edge planes are filled
    with their neighbors' values, which the interior contract never sees.
    """
    out = np.empty_like(values)
    mid = [slice(None)] * values.ndim
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    mid[axis], lo[axis], hi[axis] = slice(1, -1), slice(0, -2), slice(2, None)
    out[tuple(mid)] = (values[tuple(lo)] - 2.0 * values[tuple(mid)] + values[tuple(hi)]) / (h * h)
    first = [slice(None)] * values.ndim
    second = [slice(None)] * values.ndim
    first[axis], second[axis] = slice(0, 1), slice(1, 2)
    out[tuple(first)] = out[tuple(second)]
    first[axis], second[axis] = slice(-1, None), slice(-2, -1)
    out[tuple(first)] = out[tuple(second)]
    return out


def _derivatives(values: np.ndarray, h: float):
    """Central-difference gradient list and symmetric Hessian dict {(i,j): array}.

    Pure second derivatives use the compact three-point stencil; mixed ones
    are central differences of the central gradient (the 4-point cross).
    """
    grads = np.gradient(values, h, edge_order=2)
    if values.ndim == 1:
        grads = [grads]
    hess = {}
    for i in range(values.ndim):
        for j in range(i, values.ndim):
            if i == j:
                hess[(i, j)] = _second_derivative(values, h, i)
            else:
                hess[(i, j)] = np.gradient(grads[i], h, axis=j, edge_order=2)
    return grads, hess


class GraphGeometry:
    """Pointwise geometry of a spacelike graph (lean scalar fields).

    Stores the gradient, W, mean curvature H, and |K|^2 (squared norm in the
    induced metric); the induced metric tensor is materialized on demand.
    Only interior nodes (two-node margin) are contractual.
    """

    def __init__(self, field: HeightField):
        self.field = field
        h = field.spacing
        n = field.ndim
        grads, hess = _derivatives(np.asarray(field.values, float), h)
        grad2 = sum(g * g for g in grads)
        interior = field.interior_mask()
        if float(np.max(grad2[interior])) > (1.0 - SPACELIKE_MARGIN) ** 2:
            raise SpacelikeError(
                "graph is not uniformly spacelike on the interior "
                f"(max |grad phi| = {float(np.sqrt(np.max(grad2[interior]))):.8f})"
            )
        w2 = np.maximum(1.0 - grad2, SPACELIKE_MARGIN**2)
        w = np.sqrt(w2)
        lap = sum(hess[(i, i)] for i in range(n))
        u = [sum(grads[j] * hess[tuple(sorted((i, j)))] for j in range(n)) for i in range(n)]
        t = sum(grads[i] * u[i] for i in range(n))
        hnorm2 = sum((2.0 if i != j else 1.0) * hess[tuple(sorted((i, j)))] ** 2
                     for i in range(n) for j in range(i, n))
        self.grads = grads
        self.volume_density = w
        self.mean_curvature = -(lap + t / w2) / w
        self.k_norm2 = (hnorm2 + 2.0 * sum(ui * ui for ui in u) / w2 + (t / w2) ** 2) / w2
        self.interior = interior

    @property
    def ndim(self) -> int:
        return self.field.ndim

    @property
    def induced_metric(self) -> np.ndarray:
        n = self.ndim
        g = np.empty(self.field.shape + (n, n))
        for i in range(n):
            for j in range(n):
                g[..., i, j] = (1.0 if i == j else 0.0) - self.grads[i] * self.grads[j]
        return g

    def det_identity_error(self) -> float:
        """max interior |det(g) - W^2| — an exact identity up to rounding."""
        det = np.linalg.det(self.induced_metric)
        return float(np.max(np.abs(det - self.volume_density**2)[self.interior]))

    def disk_coordinates(self) -> np.ndarray:
        """Poincare-disk image of the Gauss map: grad phi/(1 + W), shape (..., n)."""
        return np.stack([g / (1.0 + self.volume_density) for g in self.grads], axis=-1)


def graph_geometry(field: HeightField) -> GraphGeometry:
    return GraphGeometry(field)


def bolza_domain_level(geom: GraphGeometry) -> np.ndarray:
    """Signed octagon level of the Gauss map at every node (>= 0 in the domain)."""
    return holonomy.octagon_level(geom.disk_coordinates())


# ---------------------------------------------------------------------------
# quadrature over a Gauss-map-filtered region (n = 2)
# ---------------------------------------------------------------------------


def _edge_cross(sa, sb):
    """Crossing position in [0, 1] from corner a toward corner b (linear)."""
    denom = sa - sb
    safe = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    return np.clip(sa / safe, 0.0, 1.0)


def _cut_fraction(s0, s1, s2, s3):
    """Inside-area fraction of a cell from corner levels (>= 0 means inside).

    Corners are cyclic: s0=(0,0), s1=(1,0), s2=(1,1), s3=(0,1).  The level is
    interpolated linearly along each edge and the boundary is taken straight
    inside the cell (marching squares); the two saddle cases are resolved by
    the cell-center average.
    """
    b0, b1, b2, b3 = s0 >= 0, s1 >= 0, s2 >= 0, s3 >= 0
    case = (b0.astype(int) + 2 * b1.astype(int) + 4 * b2.astype(int) + 8 * b3.astype(int))
    tb = _edge_cross(s0, s1)  # bottom, x of crossing
    tr = _edge_cross(s1, s2)  # right, y
    tt = _edge_cross(s3, s2)  # top, x (from the left corner)
    tl = _edge_cross(s0, s3)  # left, y
    tri0 = 0.5 * tb * tl
    tri1 = 0.5 * (1.0 - tb) * tr
    tri2 = 0.5 * (1.0 - tr) * (1.0 - tt)
    tri3 = 0.5 * tt * (1.0 - tl)
    center = 0.25 * (s0 + s1 + s2 + s3)
    frac = np.zeros_like(np.asarray(s0, float))
    frac = np.where(case == 1, tri0, frac)
    frac = np.where(case == 2, tri1, frac)
    frac = np.where(case == 4, tri2, frac)
    frac = np.where(case == 8, tri3, frac)
    frac = np.where(case == 14, 1.0 - tri0, frac)
    frac = np.where(case == 13, 1.0 - tri1, frac)
    frac = np.where(case == 11, 1.0 - tri2, frac)
    frac = np.where(case == 7, 1.0 - tri3, frac)
    frac = np.where(case == 3, 0.5 * (tl + tr), frac)
    frac = np.where(case == 12, 1.0 - 0.5 * (tl + tr), frac)
    frac = np.where(case == 9, 0.5 * (tb + tt), frac)
    frac = np.where(case == 6, 1.0 - 0.5 * (tb + tt), frac)
    frac = np.where(case == 5, np.where(center >= 0, 1.0 - tri1 - tri3, tri0 + tri2), frac)
    frac = np.where(case == 10, np.where(center >= 0, 1.0 - tri0 - tri2, tri1 + tri3), frac)
    frac = np.where(case == 15, 1.0, frac)
    return frac


@dataclass(frozen=True)
class EnergyReport:
    energy: float
    volume: float
    tau_mean: float
    region_area: float


def quotient_energy(field: HeightField, level_fn, geom: GraphGeometry | None = None) -> EnergyReport:
    """Integrate |K|^2 and the volume element over a filtered region.

    ``level_fn`` maps the geometry to a signed node field whose >= 0 region
    selects the domain (``bolza_domain_level`` picks one Bolza fundamental
    domain through the Gauss map).  Returns E = int |K|^2 dmu, Vol = int dmu,
    the mu-weighted mean of H, and the coordinate area of the region.  Boundary cells get a linear cut; the
    integrand uses the cell-corner average.
    """
    if field.ndim != 2:
        raise ValueError("filtered quadrature is implemented for n = 2 patches")
    if geom is None:
        geom = graph_geometry(field)
    h = field.spacing

    def corners(a):
        return a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]

    inner = np.zeros(tuple(s - 1 for s in field.shape), dtype=bool)
    inner[2:-2, 2:-2] = True  # cells whose corners are all interior nodes
    s0, s1, s2, s3 = corners(np.asarray(level_fn(geom), float))
    frac = _cut_fraction(s0, s1, s2, s3)
    touched = (frac > 0) & ~inner
    if np.any(touched):
        raise ValueError("filtered region touches the patch frame; enlarge the patch")
    frac = frac * inner
    area = h * h * float(np.sum(frac))
    if area == 0.0:
        raise ValueError("filtered region is empty")

    def cell_integral(values):
        c = corners(values)
        avg = 0.25 * (c[0] + c[1] + c[2] + c[3])
        return h * h * float(np.sum(avg * frac))

    w = geom.volume_density
    volume = cell_integral(w)
    energy = cell_integral(geom.k_norm2 * w)
    tau_mean = cell_integral(geom.mean_curvature * w) / volume
    return EnergyReport(energy, volume, tau_mean, area)


# ---------------------------------------------------------------------------
# CMC relaxation (n = 2): damped Newton on H[phi] = tau
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelaxResult:
    field: HeightField
    residual: float
    #: accepted steps, chord and Newton
    iterations: int
    converged: bool
    #: sparse LU factorizations of the Jacobian
    factorizations: int


def _interior_residual(geom: GraphGeometry, tau: float) -> float:
    return float(np.max(np.abs(geom.mean_curvature - tau)[geom.interior]))


def _newton_rhs(geom: GraphGeometry, tau: float) -> np.ndarray:
    """Right-hand side -(H - tau) of a Newton or chord step (0 on the frame), flattened."""
    return np.where(geom.interior, tau - geom.mean_curvature, 0.0).ravel()


def _newton_system(field: HeightField):
    """Sparse linearization J of phi -> H[phi] at interior nodes.

    Frame nodes get identity rows (Dirichlet).  Row structure is the 9-point
    stencil obtained by differentiating H through the central differences of
    the gradient and Hessian entries.
    """
    v = np.asarray(field.values, float)
    h = field.spacing
    m1, m2 = v.shape
    grads, hess = _derivatives(v, h)
    gx, gy = grads
    w2 = 1.0 - gx * gx - gy * gy
    w2 = np.maximum(w2, SPACELIKE_MARGIN**2)
    w = np.sqrt(w2)
    w3 = w2 * w
    w5 = w2 * w3
    hxx, hxy, hyy = hess[(0, 0)], hess[(0, 1)], hess[(1, 1)]
    lap = hxx + hyy
    t = gx * gx * hxx + 2.0 * gx * gy * hxy + gy * gy * hyy

    # coefficients of H with respect to the Hessian and gradient entries
    c_xx = -(1.0 + gx * gx / w2) / w
    c_yy = -(1.0 + gy * gy / w2) / w
    c_xy = -2.0 * gx * gy / (w2 * w)
    d_x = -(gx * lap / w3 + 2.0 * (gx * hxx + gy * hxy) / w3 + 3.0 * gx * t / w5)
    d_y = -(gy * lap / w3 + 2.0 * (gx * hxy + gy * hyy) / w3 + 3.0 * gy * t / w5)

    idx = np.arange(m1 * m2).reshape(m1, m2)
    ii = idx[2:-2, 2:-2].ravel()
    h2 = h * h
    rows, cols, data = [], [], []

    def add(di, dj, coeff):
        rows.append(ii)
        cols.append(idx[2 + di : m1 - 2 + di, 2 + dj : m2 - 2 + dj].ravel())
        data.append(coeff[2:-2, 2:-2].ravel())

    add(0, 0, -2.0 * (c_xx + c_yy) / h2)
    add(1, 0, c_xx / h2 + d_x / (2.0 * h))
    add(-1, 0, c_xx / h2 - d_x / (2.0 * h))
    add(0, 1, c_yy / h2 + d_y / (2.0 * h))
    add(0, -1, c_yy / h2 - d_y / (2.0 * h))
    quarter = c_xy / (4.0 * h2)
    add(1, 1, quarter)
    add(-1, -1, quarter)
    add(1, -1, -quarter)
    add(-1, 1, -quarter)

    frame = np.ones(m1 * m2, dtype=bool)
    frame[ii] = False
    frame_idx = np.nonzero(frame)[0]
    rows.append(frame_idx)
    cols.append(frame_idx)
    data.append(np.ones(frame_idx.size))

    return scipy.sparse.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m1 * m2, m1 * m2),
    )


def _release_free_heap() -> None:
    """Return the C heap's free pages to the system before a SuperLU call.

    The Jacobian's assembly leaves tens of MB of freed, still-resident holes
    in the heap.  Whether SuperLU's buffers reuse a hole or extend the heap
    depends on a few KB of layout that differ between identical runs, so
    without this release the peak RSS of limit-experiment jumps between
    about 248 and 263 MB from one run to the next.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _factorize(jac):
    """Symmetric-mode, no-pivot sparse LU of a Newton Jacobian.

    The Jacobian (9-point elliptic stencil, identity frame rows) is
    structurally symmetric, so SuperLU orders A^T + A by minimum degree and
    pivots on the diagonal only (no partial pivoting).
    """
    _release_free_heap()
    return scipy.sparse.linalg.splu(jac, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})


def _newton_step(jac, rhs: np.ndarray, lu=None) -> np.ndarray:
    """Solve J s = rhs with the LU of J, checked by its residual.

    ``lu`` is the kept ``_factorize(jac)`` of an earlier step (a chord step);
    without it ``jac`` is factored here.  Without pivoting a small pivot can
    grow the factors without bound, so the step is accepted only if
    ||J s - rhs||_2 <= NEWTON_STEP_RTOL * ||rhs||_2 for the factored J;
    otherwise NewtonStepError is raised.
    """
    if lu is None:
        lu = _factorize(jac)
    _release_free_heap()
    step = lu.solve(rhs)
    misfit = np.linalg.norm(jac @ step - rhs)
    scale = np.linalg.norm(rhs)
    if not misfit <= NEWTON_STEP_RTOL * scale:
        raise NewtonStepError(
            f"no-pivot LU of the Newton system is inaccurate: relative linear residual "
            f"{misfit / scale:.3e} exceeds {NEWTON_STEP_RTOL:.0e}"
        )
    return step


def _trial_step(field: HeightField, step: np.ndarray, tau: float):
    """(trial field, its geometry, its interior residual), or None when the
    trial is not uniformly spacelike."""
    trial = HeightField(field.values + step, field.spacing, field.origin)
    try:
        geom = graph_geometry(trial)
    except SpacelikeError:
        return None
    return trial, geom, _interior_residual(geom, tau)


def cmc_relax(field: HeightField, tau_target: float, tol: float = 1e-6, max_iters: int = 30) -> RelaxResult:
    """Relax a spacelike graph toward constant mean curvature tau_target.

    Damped Newton with the frame held at the initial (barrier) data.  The
    sparse LU of the last Newton Jacobian is kept, and each step first tries
    it as a full chord step: the chord step is taken only if it keeps the
    interior uniformly spacelike and shrinks the interior residual max|H - tau|
    by at least CHORD_CONTRACTION.  Otherwise it is discarded, the kept LU is
    dropped, and a Newton step is taken from the Jacobian at the current
    iterate.  A Newton step is accepted only if it keeps the interior
    uniformly spacelike and decreases the residual; otherwise it is halved,
    and after MAX_STEP_REJECTIONS consecutive rejections the current iterate
    is returned.  Every step taken lowers the residual, so the current
    iterate is always the best so far.  ``iterations`` counts the steps taken,
    chord and Newton; ``factorizations`` the Jacobians factored.  The
    contract is the achieved residual, not convergence.
    """
    if field.ndim != 2:
        raise ValueError("relaxation is implemented for n = 2 patches")
    if tau_target >= 0:
        raise ValueError("tau_target must be negative")
    current, geom = field, graph_geometry(field)
    current_res = _interior_residual(geom, tau_target)
    jac = lu = None
    factorizations = 0
    for iteration in range(max_iters):
        if current_res <= tol:
            return RelaxResult(current, current_res, iteration, True, factorizations)
        rhs = _newton_rhs(geom, tau_target)
        taken = None
        if lu is not None:
            chord = _newton_step(jac, rhs, lu).reshape(current.shape)
            taken = _trial_step(current, chord, tau_target)
            if taken is not None and not taken[2] <= CHORD_CONTRACTION * current_res:
                taken = None
        if taken is None:
            # free the kept factors first: two LUs alive at once raise the peak
            jac = lu = None
            jac = _newton_system(current)
            lu = _factorize(jac)
            factorizations += 1
            step = _newton_step(jac, rhs, lu).reshape(current.shape)
            alpha = 1.0
            for _ in range(MAX_STEP_REJECTIONS):
                taken = _trial_step(current, alpha * step, tau_target)
                if taken is not None and taken[2] < current_res:
                    break
                alpha *= 0.5
            else:
                return RelaxResult(current, current_res, iteration + 1, current_res <= tol,
                                   factorizations)
        current, geom, current_res = taken
    return RelaxResult(current, current_res, max_iters, current_res <= tol, factorizations)


# ---------------------------------------------------------------------------
# deformed-holonomy initial data and the limit experiment (n = 2)
# ---------------------------------------------------------------------------


def orbit_envelope_field(rep, extent: float, nodes: int, word_length: int = 3) -> HeightField:
    """Smoothed lower envelope of the orbit of the unit hyperboloid.

    Each group element (A, t) maps the hyperboloid to its translate by t, the
    graph of t0 + sqrt(1 + |x - ts|^2).  The sheets are combined with a soft
    minimum -s log sum exp(-sheet/s), s = ENVELOPE_SMOOTHING: its gradient is
    a convex combination of sheet gradients, so the result is smooth and
    uniformly spacelike whenever every sheet is (a hard minimum has creases
    whose discrete gradients can cross the light cone).  At zero cocycle all
    sheets coincide and the envelope is the exact hyperboloid shifted down by
    s*log(#sheets) — a vertical translation, which is an isometry.
    """
    if rep.presentation.ndim != 2:
        raise ValueError("orbit envelopes are implemented for n = 2")
    spacing = 2.0 * extent / (nodes - 1)
    xs = -extent + spacing * np.arange(nodes)
    translations = [iso.translation for iso in holonomy.orbit_isometries(rep, word_length)]

    def sheet(t):
        # rebuilt in each pass instead of stored (457 sheets at 321^2 nodes
        # hold ~376 MB); broadcasting the 1-D offsets makes the rebuild cheap
        return t[0] + np.sqrt((1.0 + (xs - t[1]) ** 2)[:, None] + ((xs - t[2]) ** 2)[None, :])

    hard_min = sheet(translations[0])
    for t in translations[1:]:
        np.minimum(hard_min, sheet(t), out=hard_min)
    acc = np.zeros_like(hard_min)
    for t in translations:
        acc += np.exp(-(sheet(t) - hard_min) / ENVELOPE_SMOOTHING)
    envelope = hard_min - ENVELOPE_SMOOTHING * np.log(acc)
    return HeightField(envelope, spacing, (-extent, -extent))


def limit_pipeline(rep, extent: float, nodes: int, word_length: int, relax_tol: float):
    """(EnergyReport, RelaxResult) of one representation.

    The orbit envelope is relaxed to a CMC graph at tau = -2 and the quotient
    energy is integrated over the Gauss-map preimage of the Bolza octagon.
    """
    start = orbit_envelope_field(rep, extent, nodes, word_length)
    relaxed = cmc_relax(start, -2.0, tol=relax_tol, max_iters=LIMIT_MAX_ITERS)
    geom = graph_geometry(relaxed.field)
    report = quotient_energy(relaxed.field, bolza_domain_level, geom=geom)
    return report, relaxed


def limit_row(lam: float, report: EnergyReport, relaxed: RelaxResult, base_volume: float):
    """One LIMIT_COLUMNS row: the quotient integrals, the volume ratio to the
    zero-cocycle baseline, and the relaxation's residual and solver counts."""
    return (float(lam), report.tau_mean, report.volume, report.volume / base_volume,
            relaxed.residual, relaxed.iterations, relaxed.factorizations)


def limit_experiment(rep, lambdas, extent: float = 6.4, nodes: int = 321,
                     word_length: int = 3, relax_tol: float = 1e-8):
    """Rescaled-volume convergence experiment over a cocycle-scaling family.

    For each lambda the cocycle is scaled by lambda**-2, a CMC graph at
    tau = -2 is relaxed from the orbit envelope, and the quotient volume is
    integrated over the Gauss-map preimage of the Bolza octagon.  Reported
    ham_ratio values are normalized by the zero-cocycle volume measured
    through the identical pipeline, so the exact-cone case gives 1 by
    construction and quadrature bias cancels.  Returns (rows, baseline_volume)
    with one LIMIT_COLUMNS row per lambda; a row whose residual exceeds
    relax_tol marks a relaxation failure.
    """
    zero = holonomy.HolonomyRep(
        rep.presentation, holonomy.Cocycle.zero(2, rep.presentation.n_generators)
    )
    base_report, _ = limit_pipeline(zero, extent, nodes, word_length, relax_tol)
    rows = []
    for lam in lambdas:
        if lam <= 0:
            raise ValueError("lambda values must be positive")
        scaled = holonomy.scale_structure(rep, float(lam) ** -2)
        report, relaxed = limit_pipeline(scaled, extent, nodes, word_length, relax_tol)
        rows.append(limit_row(lam, report, relaxed, base_report.volume))
    return rows, base_report.volume
