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
filtered region are resolved by a linear (marching-squares) cut, and only
those: a cell with all four corners inside counts whole.  Every quantity in
that integral is a local stencil, so the grid is integrated in blocks of
QUADRATURE_BLOCK_ROWS (32) cell rows, each with the geometry of its own node
rows plus a two-row halo; no whole-grid geometry is built (a 2401^2 field is
46 MB, a 32-row block's field 0.65 MB).  The kernels a block runs through,
GraphGeometry, octagon_level and the cell sums of quotient_energy, form
their sums in place on a few scratch arrays, so a block makes no temporary
array per operation.

CMC surfaces are produced by a damped Newton relaxation of H[phi] = tau on
the interior with the frame held fixed; its contract is the achieved
residual, not convergence.  Each Newton step factors the Jacobian by a
symmetric-mode, no-pivot sparse LU (minimum degree on A^T + A).  The LU is
kept in a caller-owned ChordLU and first tried again as a chord step, also
by the next relaxation that is handed the same ChordLU (the limit
experiment carries one LU through all its relaxations); the chord step is
taken only if it at least halves the residual (CHORD_CONTRACTION), and
otherwise the kept LU is dropped and the Jacobian is factored afresh at the
current iterate, so at most one LU is alive.  Every solve, chord or Newton, is
checked against the linear residual of the matrix that was factored and
raises NewtonStepError when that check fails.  scipy.sparse and its LU are
imported by the functions that assemble and factor the Jacobian, so only the
limit experiment's relaxations load scipy; graph-check does not.

The initial data of the limit experiment is a soft-min envelope of orbit
sheets, built in one pass against the identity element's sheet; a sheet
too far from that reference for exp to stay finite raises
EnvelopeRangeError.  The limit experiment range-checks every orbit before
it relaxes anything, then builds the envelopes in order, ahead of the
relaxations, on a one-worker ThreadPoolExecutor while this thread relaxes;
the queue holds one grid array per envelope built and not yet relaxed (the
rules the worker keeps are in limit_experiment).
"""

from __future__ import annotations

import contextvars
import ctypes
from dataclasses import dataclass

import numpy as np

from . import holonomy

#: required distance of the discrete gradient from the light cone
SPACELIKE_MARGIN = 1e-6
#: consecutive rejected relaxation steps before giving up
MAX_STEP_REJECTIONS = 40
#: relative linear residual allowed for one Newton or chord step of the relaxation
NEWTON_STEP_RTOL = 1e-10
#: residual reduction a chord step (the kept LU of an earlier Newton step) must
#: reach to be taken: it must at least halve the residual, the refactoring rule
#: of the Newton-chord solver nsold (rsham = 0.5) in C. T. Kelley, Solving
#: Nonlinear Equations with Newton's Method (SIAM, 2003); a chord step that
#: falls short makes the Jacobian refactored
CHORD_CONTRACTION = 0.5
#: soft-minimum width of the orbit envelope
ENVELOPE_SMOOTHING = 0.08
#: largest bound on |sheet - reference sheet| / ENVELOPE_SMOOTHING the one-pass
#: envelope accepts: each exp term stays below e^600, so a sum over any
#: orbit of fewer than e^109 sheets stays finite
ENVELOPE_MAX_EXPONENT = 600.0
#: steps, chord and Newton, allowed to each CMC relaxation (cmc_relax)
LIMIT_MAX_ITERS = 25
#: cell rows per block of the quotient quadrature: a block's geometry at
#: 2401 columns holds about 0.65 MB per field where the whole grid holds 46 MB
QUADRATURE_BLOCK_ROWS = 32

try:  # glibc; other C libraries have no malloc_trim and skip the release
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None

#: base-point direction of the limit experiment's pure-gauge (coboundary) control
COBOUNDARY_DIRECTION = (1.0, 0.6, -0.8)

LIMIT_COLUMNS = ("lambda", "tau_mean", "volume", "ham_ratio", "residual", "steps",
                 "factorizations")


class SpacelikeError(ValueError):
    """The discrete gradient reached the light cone (|grad phi| too close to 1)."""


class NewtonStepError(RuntimeError):
    """A Newton or chord step of the CMC relaxation failed its linear-residual check."""


class EnvelopeRangeError(ValueError):
    """Orbit sheets lie too far from the reference sheet for the one-pass soft minimum."""


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
        if not self.spacing > 0:
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

    @property
    def interior(self) -> tuple:
        """Index of the interior nodes (two-node margin): values[interior]."""
        return (slice(2, -2),) * self.ndim


def _centered_axis(extent: float, nodes: int):
    """(spacing, coordinates) of ``nodes`` equispaced points on [-extent, extent]."""
    spacing = 2.0 * extent / (nodes - 1)
    return spacing, -extent + spacing * np.arange(nodes)


def sample_height_field(fn, extent: float, nodes: int, ndim: int = 2) -> HeightField:
    """Sample fn(x1, ..., xn) on a centered square patch [-extent, extent]^n."""
    spacing, axis = _centered_axis(extent, nodes)
    # sparse axes broadcast inside fn, so no full coordinate grids are built;
    # the broadcast fills in an axis that fn ignores (fn = lambda x, y: x)
    grids = np.meshgrid(*[axis] * ndim, indexing="ij", sparse=True)
    return HeightField(np.broadcast_to(fn(*grids), (nodes,) * ndim), spacing, (-extent,) * ndim)


def hyperboloid_field(s: float, extent: float, nodes: int, ndim: int = 2) -> HeightField:
    """The CMC model graph phi = sqrt(s^2 + |x|^2) (mean curvature -n/s)."""

    def phi(*xs):
        # one grid array: |x|^2 summed axis by axis, then s^2 and the root in place
        out = np.zeros(np.broadcast_shapes(*(x.shape for x in xs)))
        for x in xs:
            out += x * x
        out += s * s
        return np.sqrt(out, out=out)

    return sample_height_field(phi, extent, nodes, ndim)


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
    induced metric); only det_identity_error builds the induced metric tensor.
    Only interior nodes (two-node margin) are contractual.

    With lap = sum_i phi_ii, u_i = sum_j phi_j phi_ij, t = sum_i phi_i u_i
    and |Hess|^2 = sum_ij phi_ij^2,

        H = -(lap + t/W^2)/W    |K|^2 = (|Hess|^2 + 2|u|^2/W^2 + (t/W^2)^2)/W^2.

    Each sum is accumulated in place, term by term in the order of its index
    loop, and spent arrays are reused, so besides the derivatives and the
    stored fields the build allocates only W^2, the u_i and one scratch term.
    """

    def __init__(self, field: HeightField):
        self.field = field
        n = field.ndim
        grads, hess = _derivatives(np.asarray(field.values, float), field.spacing)
        interior = field.interior

        def hs(i, j):
            return hess[(i, j) if i <= j else (j, i)]

        scratch = np.empty_like(grads[0])

        def dot(a, b, out):
            """sum_k a[k] * b[k] into ``out``, one term at a time."""
            np.multiply(a[0], b[0], out=out)
            for ak, bk in zip(a[1:], b[1:]):
                out += np.multiply(ak, bk, out=scratch)
            return out

        w2 = dot(grads, grads, np.empty_like(scratch))
        # np.max keeps a NaN, which fails the guard
        if not float(np.max(w2[interior])) <= (1.0 - SPACELIKE_MARGIN) ** 2:
            raise SpacelikeError(
                "graph is not uniformly spacelike on the interior "
                f"(max |grad phi| = {float(np.sqrt(np.max(w2[interior]))):.8f})"
            )
        np.subtract(1.0, w2, out=w2)
        np.maximum(w2, SPACELIKE_MARGIN**2, out=w2)
        w = np.sqrt(w2)
        u = [dot(grads, [hs(i, j) for j in range(n)], np.empty_like(scratch)) for i in range(n)]
        t = dot(grads, u, np.empty_like(scratch))
        t /= w2
        # 2|u|^2/W^2 into u[0]; |Hess|^2, then |K|^2, into u[-1] (u is spent)
        u2 = dot(u, u, u[0])
        u2 *= 2.0
        u2 /= w2
        k_norm2 = u[-1] if n > 1 else np.empty_like(scratch)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        np.square(hs(*pairs[0]), out=k_norm2)
        for i, j in pairs[1:]:
            np.square(hs(i, j), out=scratch)
            if i != j:
                scratch *= 2.0
            k_norm2 += scratch
        k_norm2 += u2
        k_norm2 += np.square(t, out=u2)
        k_norm2 /= w2
        # the Laplacian in the first diagonal entry, then H in t's slot
        lap = hs(0, 0)
        for i in range(1, n):
            lap += hs(i, i)
        t += lap
        t /= w
        self.grads = grads
        self.volume_density = w
        self.mean_curvature = np.negative(t, out=t)
        self.k_norm2 = k_norm2
        self.interior = interior

    def det_identity_error(self) -> float:
        """max interior |det(g) - W^2| — an exact identity up to rounding."""
        n = self.field.ndim
        g = np.empty(self.field.shape + (n, n))
        for i in range(n):
            for j in range(n):
                g[..., i, j] = (1.0 if i == j else 0.0) - self.grads[i] * self.grads[j]
        det = np.linalg.det(g)
        return float(np.max(np.abs(det - self.volume_density**2)[self.interior]))

    def disk_coordinates(self) -> list:
        """Poincare-disk image of the Gauss map, grad phi/(1 + W), one array per axis."""
        denom = 1.0 + self.volume_density
        return [g / denom for g in self.grads]


def graph_geometry(field: HeightField) -> GraphGeometry:
    return GraphGeometry(field)


def curvature_convergence(s: float, extent: float, nodes_list, ndim: int = 2):
    """(rows, det_err): the hyperboloid graph's mean-curvature error on each grid.

    A row (nodes, spacing, err) per size in ``nodes_list``, err the largest
    interior |H + ndim/s| of sqrt(s^2 + |x|^2) over [-extent, extent]^ndim;
    det_err is the np.max of det_identity_error over the grids.
    """
    rows, det_errs = [], []
    for nodes in nodes_list:
        field = hyperboloid_field(s, extent, nodes, ndim=ndim)
        geom = graph_geometry(field)
        det_errs.append(geom.det_identity_error())
        rows.append((nodes, field.spacing, _interior_residual(geom, -ndim / s)))
    return rows, float(np.max(det_errs))


def bolza_domain_level(geom: GraphGeometry) -> np.ndarray:
    """Signed octagon level of the Gauss map at every node (>= 0 in the domain)."""
    return holonomy.octagon_level(*geom.disk_coordinates())


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

    Corners are cyclic: s0=(0,0), s1=(1,0), s2=(1,1), s3=(0,1).  A cell with
    every corner inside gets 1 and one with none gets 0; only the cut cells,
    whose corner levels change sign, are resolved.  There the level is
    interpolated linearly along each edge and the boundary is taken straight
    inside the cell (marching squares); the two saddle cases are resolved by
    the cell-center average.
    """
    case = sum((s >= 0) * np.uint8(1 << k) for k, s in enumerate((s0, s1, s2, s3)))
    frac = (case == 15).astype(float)
    cut = (case != 0) & (case != 15)
    s0, s1, s2, s3, case = s0[cut], s1[cut], s2[cut], s3[cut], case[cut]
    tb = _edge_cross(s0, s1)  # bottom, x of crossing
    tr = _edge_cross(s1, s2)  # right, y
    tt = _edge_cross(s3, s2)  # top, x (from the left corner)
    tl = _edge_cross(s0, s3)  # left, y
    tri0 = 0.5 * tb * tl
    tri1 = 0.5 * (1.0 - tb) * tr
    tri2 = 0.5 * (1.0 - tr) * (1.0 - tt)
    tri3 = 0.5 * tt * (1.0 - tl)
    center = 0.25 * (s0 + s1 + s2 + s3)
    frac[cut] = np.select(
        [case == c for c in (1, 2, 4, 8, 14, 13, 11, 7, 3, 12, 9, 6, 5, 10)],
        [tri0, tri1, tri2, tri3, 1.0 - tri0, 1.0 - tri1, 1.0 - tri2, 1.0 - tri3,
         0.5 * (tl + tr), 1.0 - 0.5 * (tl + tr), 0.5 * (tb + tt), 1.0 - 0.5 * (tb + tt),
         np.where(center >= 0, 1.0 - tri1 - tri3, tri0 + tri2),
         np.where(center >= 0, 1.0 - tri0 - tri2, tri1 + tri3)])
    return frac


@dataclass(frozen=True)
class EnergyReport:
    energy: float
    volume: float
    tau_mean: float
    region_area: float


def quotient_energy(field: HeightField, level_fn) -> EnergyReport:
    """Integrate |K|^2 and the volume element over a filtered region.

    ``level_fn`` maps a geometry to a signed node field whose >= 0 region
    selects the domain (``bolza_domain_level`` picks one Bolza fundamental
    domain through the Gauss map).  Returns E = int |K|^2 dmu, Vol = int dmu,
    the mu-weighted mean of H, and the coordinate area of the region.
    Boundary cells get a linear cut; the integrand uses the cell-corner
    average.

    The cells are integrated in blocks of QUADRATURE_BLOCK_ROWS rows: each
    block builds the geometry of its node rows plus a two-row halo, which
    the stencils reach, calls ``level_fn`` on that block geometry, and adds
    its sums to running totals.  ``level_fn`` is therefore evaluated once per
    block and must be pointwise in the block's geometry and coordinates.
    SpacelikeError is raised when any block's interior is not uniformly
    spacelike; ValueError when the region reaches the frame cells (the two
    outer cell rings) anywhere, or is empty.
    """
    if field.ndim != 2:
        raise ValueError("filtered quadrature is implemented for n = 2 patches")
    h = field.spacing
    cells, cols = field.shape[0] - 1, field.shape[1] - 1

    def corners(a):
        return a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]

    touched = False
    area = volume = energy = tau_weight = 0.0
    for first in range(0, cells, QUADRATURE_BLOCK_ROWS):
        stop = min(first + QUADRATURE_BLOCK_ROWS, cells)
        # node rows first - 2 .. stop + 2, widened to the five the stencils need
        hi = min(max(stop + 2, 4), cells)
        lo = max(0, min(first - 2, hi - 4))
        block = HeightField(field.values[lo:hi + 1], h,
                            (field.origin[0] + lo * h, field.origin[1]))
        block_geom = graph_geometry(block)
        nodes = slice(first - lo, stop - lo + 1)
        # cells whose corners are all interior nodes
        inner = np.zeros((stop - first, cols), dtype=bool)
        inner[max(2 - first, 0):max(cells - 2 - first, 0), 2:-2] = True
        frac = _cut_fraction(*corners(np.asarray(level_fn(block_geom), float)[nodes]))
        touched = touched or bool(np.any((frac > 0) & ~inner))
        frac *= inner
        area += float(np.sum(frac))
        w = block_geom.volume_density[nodes]
        weighted = np.empty_like(w)
        cell = np.empty_like(frac)

        def cell_sum(values):
            # 0.25 * (c0 + c1 + c2 + c3) * frac, formed in the one cell buffer
            c = corners(values)
            total = np.add(c[0], c[1], out=cell)
            total += c[2]
            total += c[3]
            total *= 0.25
            total *= frac
            return float(np.sum(total))

        volume += cell_sum(w)
        energy += cell_sum(np.multiply(block_geom.k_norm2[nodes], w, out=weighted))
        tau_weight += cell_sum(np.multiply(block_geom.mean_curvature[nodes], w, out=weighted))
    if touched:
        raise ValueError("filtered region touches the patch frame; enlarge the patch")
    area = h * h * area
    if area == 0.0:
        raise ValueError("filtered region is empty")
    volume = h * h * volume
    return EnergyReport(h * h * energy, volume, h * h * tau_weight / volume, area)


# ---------------------------------------------------------------------------
# CMC relaxation (n = 2): damped Newton on H[phi] = tau
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelaxResult:
    #: the returned iterate, the best the relaxation reached
    field: HeightField
    residual: float
    #: steps, chord and Newton: the accepted ones, plus one whose line search ran out
    iterations: int
    converged: bool
    #: sparse LU factorizations of the Jacobian
    factorizations: int


@dataclass
class ChordLU:
    """Caller-owned slot for a Newton Jacobian and its sparse LU.

    cmc_relax tries the held LU as its first chord step, empties the slot
    before it factors, and leaves its last factors here, so one ChordLU
    passed to successive relaxations carries the LU from one to the next.
    """

    jac: object = None
    lu: object = None


def _interior_residual(geom: GraphGeometry, tau: float) -> float:
    return float(np.max(np.abs(geom.mean_curvature[geom.interior] - tau)))


def _newton_rhs(geom: GraphGeometry, tau: float) -> np.ndarray:
    """Right-hand side -(H - tau) of a Newton or chord step (0 on the frame), flattened."""
    rhs = np.zeros(geom.field.shape)
    rhs[geom.interior] = tau - geom.mean_curvature[geom.interior]
    return rhs.ravel()


def _newton_system(field: HeightField):
    """Sparse linearization J of phi -> H[phi] at interior nodes.

    Frame nodes get identity rows (Dirichlet).  Row structure is the 9-point
    stencil obtained by differentiating H through the central differences of
    the gradient and Hessian entries.
    """
    import scipy.sparse

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
    ii = idx[field.interior].ravel()
    h2 = h * h
    rows, cols, data = [], [], []

    def add(di, dj, coeff):
        rows.append(ii)
        cols.append(idx[2 + di : m1 - 2 + di, 2 + dj : m2 - 2 + dj].ravel())
        data.append(coeff[field.interior].ravel())

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
    import scipy.sparse.linalg

    _release_free_heap()
    return scipy.sparse.linalg.splu(jac, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})


def _newton_step(jac, rhs: np.ndarray, lu) -> np.ndarray:
    """Solve J s = rhs with ``lu = _factorize(jac)``, checked by its residual.

    ``lu`` may have been factored for an earlier step (a chord step).
    Without pivoting a small pivot can grow the factors without bound, so
    the step is accepted only if ||J s - rhs||_2 <= NEWTON_STEP_RTOL *
    ||rhs||_2 for the factored J; otherwise NewtonStepError is raised.
    """
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


def cmc_relax(field: HeightField, tau_target: float, tol: float = 1e-6,
              chord: ChordLU | None = None) -> RelaxResult:
    """Relax a spacelike graph toward constant mean curvature tau_target.

    Damped Newton with the frame held at the initial (barrier) data.  The
    sparse LU of the last Newton Jacobian is kept in ``chord``, and each step
    first tries it as a full chord step: the chord step is taken only if it
    keeps the interior uniformly spacelike and at least halves the interior
    residual max|H - tau| (CHORD_CONTRACTION).  Otherwise it is discarded,
    the kept LU is dropped, and a Newton step is taken from the Jacobian at
    the current iterate.  A Newton step is accepted only if it keeps the
    interior uniformly spacelike and decreases the residual; otherwise it is
    halved, and after MAX_STEP_REJECTIONS consecutive rejections the current
    iterate is returned.  Every step taken lowers the residual, so the
    current iterate is always the best so far.  At most LIMIT_MAX_ITERS steps
    are tried; ``iterations`` counts them, chord and Newton, the one whose
    line search ran out included, and ``factorizations`` the Jacobians factored.
    The contract is the achieved residual, not convergence.

    A ``chord`` handed in holding the LU of an earlier relaxation on the same
    grid makes that LU the first chord step, under the same rules (the
    Dirichlet frame rows of every Jacobian are identity rows, and the
    right-hand side is 0 there, so a chord step keeps this relaxation's
    frame); on return it holds this relaxation's last factors.
    """
    if field.ndim != 2:
        raise ValueError("relaxation is implemented for n = 2 patches")
    if tau_target >= 0:
        raise ValueError("tau_target must be negative")
    if chord is None:
        chord = ChordLU()
    elif chord.jac is not None and chord.jac.shape[0] != field.values.size:
        raise ValueError(f"the carried LU is for {chord.jac.shape[0]} unknowns, "
                         f"the field has {field.values.size}")
    current, geom = field, graph_geometry(field)
    current_res = _interior_residual(geom, tau_target)
    steps = factorizations = 0
    while steps < LIMIT_MAX_ITERS and not current_res <= tol:
        steps += 1
        rhs = _newton_rhs(geom, tau_target)
        taken = None
        if chord.lu is not None:
            step = _newton_step(chord.jac, rhs, chord.lu).reshape(current.shape)
            taken = _trial_step(current, step, tau_target)
            if taken is not None and not taken[2] <= CHORD_CONTRACTION * current_res:
                taken = None
        if taken is None:
            # free the kept factors first: two LUs alive at once raise the peak
            chord.jac = chord.lu = None
            jac = _newton_system(current)
            chord.jac, chord.lu = jac, _factorize(jac)
            factorizations += 1
            step = _newton_step(chord.jac, rhs, chord.lu).reshape(current.shape)
            alpha = 1.0
            for _ in range(MAX_STEP_REJECTIONS):
                taken = _trial_step(current, alpha * step, tau_target)
                if taken is not None and taken[2] < current_res:
                    break
                alpha *= 0.5
            else:
                break
        current, geom, current_res = taken
    return RelaxResult(current, current_res, steps, current_res <= tol, factorizations)


# ---------------------------------------------------------------------------
# deformed-holonomy initial data and the limit experiment (n = 2)
# ---------------------------------------------------------------------------


def _envelope_translations(rep, word_length: int) -> np.ndarray:
    """Orbit translations of ``rep``, one row per group element, the identity's first.

    The rows are checked against the one-pass envelope's exponent bound:
    sqrt(1 + |x|^2) is 1-Lipschitz, so a sheet differs from the identity
    element's reference sheet r by at most |t0 - r0| + |ts - rs| at every
    node, and when that bound over ENVELOPE_SMOOTHING exceeds
    ENVELOPE_MAX_EXPONENT, EnvelopeRangeError is raised.
    """
    if rep.presentation.ndim != 2:
        raise ValueError("orbit envelopes are implemented for n = 2")
    translations = np.array([iso.translation
                             for iso in holonomy.orbit_isometries(rep, word_length)])
    offsets = translations - translations[0]
    bound = float(np.max(np.abs(offsets[:, 0]) + np.hypot(offsets[:, 1], offsets[:, 2])))
    if bound / ENVELOPE_SMOOTHING > ENVELOPE_MAX_EXPONENT:
        raise EnvelopeRangeError(
            f"orbit sheets differ from the reference sheet by up to {bound:.6g}, "
            f"{bound / ENVELOPE_SMOOTHING:.6g} smoothing widths; the one-pass envelope "
            f"allows ENVELOPE_MAX_EXPONENT = {ENVELOPE_MAX_EXPONENT:g}"
        )
    return translations


def _envelope_sum(translations: np.ndarray, extent: float, nodes: int) -> HeightField:
    """Soft minimum of the sheets of checked ``_envelope_translations`` rows.

    Pure numpy: the limit experiment runs it on a worker thread, where no
    function that a tracer may wrap is called.
    """
    spacing, xs = _centered_axis(extent, nodes)

    def sheet(t, out):
        # built in place, one at a time (457 sheets at 321^2 nodes would hold
        # ~376 MB); broadcasting the 1-D offsets makes each build cheap
        np.add((1.0 + (xs - t[1]) ** 2)[:, None], ((xs - t[2]) ** 2)[None, :], out=out)
        np.sqrt(out, out=out)
        out += t[0]
        return out

    ref = sheet(translations[0], np.empty((nodes, nodes)))
    # the reference sheet's own term exp(0) = 1 starts the sum, and every row
    # equal to the reference row adds the 1.0 that exp(-0.0) gives its sheet
    acc = np.ones_like(ref)
    term = np.empty_like(ref)
    repeats = np.all(translations == translations[0], axis=1)
    for t, repeat in zip(translations[1:], repeats[1:]):
        if repeat:
            acc += 1.0
            continue
        sheet(t, term)
        term -= ref
        term /= -ENVELOPE_SMOOTHING
        acc += np.exp(term, out=term)
    # ref - s log(acc), formed in place: the same operations, no temporaries
    np.log(acc, out=acc)
    acc *= ENVELOPE_SMOOTHING
    return HeightField(np.subtract(ref, acc, out=acc), spacing, (-extent, -extent))


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

    The soft minimum does not depend on the surface it is taken relative to,
    so the first orbit sheet (the identity element's, translation 0) serves
    as the reference r, ref - s log sum exp(-(sheet - ref)/s), and each sheet
    is built once.  The translations are range-checked first
    (_envelope_translations, which raises EnvelopeRangeError before any
    sheet is built), and _envelope_sum takes the soft minimum.
    """
    return _envelope_sum(_envelope_translations(rep, word_length), extent, nodes)


def _relax_and_integrate(start: HeightField, relax_tol: float, chord: ChordLU | None):
    """(EnergyReport, residual, steps, factorizations) of one orbit envelope.

    The envelope is relaxed to a CMC graph at tau = -2 and the quotient
    energy is integrated over the Gauss-map preimage of the Bolza octagon.
    ``chord`` carries the sparse LU into and out of the relaxation (see
    cmc_relax).  The relaxed field is not returned, so a caller that keeps
    the results of several relaxations holds none of their fields.
    """
    relaxed = cmc_relax(start, -2.0, tol=relax_tol, chord=chord)
    return (quotient_energy(relaxed.field, bolza_domain_level), relaxed.residual,
            relaxed.iterations, relaxed.factorizations)


def limit_row(lam: float, base_volume: float, report: EnergyReport, residual: float,
              steps: int, factorizations: int):
    """One LIMIT_COLUMNS row: the quotient integrals, the volume ratio to the
    zero-cocycle baseline, and the relaxation's residual and solver counts."""
    return (float(lam), report.tau_mean, report.volume, report.volume / base_volume,
            residual, steps, factorizations)


def limit_experiment(rep, lambdas, extent: float = 6.4, nodes: int = 321,
                     word_length: int = 3, relax_tol: float = 1e-8,
                     chord: ChordLU | None = None):
    """Rescaled-volume convergence experiment over a cocycle-scaling family.

    For each lambda the cocycle is scaled by lambda**-2, a CMC graph at
    tau = -2 is relaxed from the orbit envelope, and the quotient volume is
    integrated over the Gauss-map preimage of the Bolza octagon.  Reported
    ham_ratio values are normalized by the zero-cocycle volume measured
    through the identical pipeline, so the exact-cone case gives 1 by
    construction and quadrature bias cancels.  Returns (rows, baseline_volume)
    with one LIMIT_COLUMNS row per lambda; a row whose residual exceeds
    relax_tol marks a relaxation failure.  All relaxations share ``chord``
    (a new ChordLU when none is given), so each starts from the LU the one
    before it left; on return it holds the last relaxation's LU.

    Every lambda is checked, and every representation's orbit translations
    are built and range-checked, before anything is relaxed.  The envelopes
    are then built in order, ahead of the relaxations, by the map of a
    one-worker ThreadPoolExecutor: while this thread relaxes and integrates
    one representation, the worker takes the soft-minimum sums of the next
    ones (SuperLU and numpy's ufuncs release the GIL).  The queue holds one
    nodes^2 array per envelope built and not yet relaxed: with four lambdas
    at 321^2 nodes, at most four of 0.8 MB.  The worker runs numpy only, in
    one copy of the caller's context (so a caller's np.errstate holds
    there), and a tracer that wraps this module's functions sees every call
    on this thread.  Each envelope is the array a sequential
    orbit_envelope_field gives.  An error, in a relaxation or in the worker,
    cancels the envelopes the worker has not started; the executor's exit
    joins the worker before the exception leaves, and a worker's error is
    raised again here.
    """
    lambdas = tuple(lambdas)
    if not all(lam > 0 for lam in lambdas):
        raise ValueError("lambda values must be positive")
    if chord is None:
        chord = ChordLU()
    zero = holonomy.HolonomyRep(
        rep.presentation, tuple(np.zeros(3) for _ in range(rep.presentation.n_generators))
    )
    reps = [zero] + [holonomy.scale_structure(rep, float(lam) ** -2) for lam in lambdas]
    translations = [_envelope_translations(r, word_length) for r in reps]
    # imported here, as scipy is: no other scenario loads it
    from concurrent.futures import ThreadPoolExecutor

    run = contextvars.copy_context().run
    results = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        starts = pool.map(lambda t: run(_envelope_sum, t, extent, nodes), translations)
        try:
            for start in starts:
                results.append(_relax_and_integrate(start, relax_tol, chord))
        finally:
            # cancels the envelopes not yet started, so an error waits for
            # the running one alone before the executor's exit joins the worker
            starts.close()
    base_volume = results[0][0].volume
    rows = [limit_row(lam, base_volume, *result) for lam, result in zip(lambdas, results[1:])]
    return rows, base_volume


def coboundary_control(rep, base_volume: float, size: float, extent: float, nodes: int,
                       word_length: int, relax_tol: float, chord: ChordLU | None = None):
    """The lambda = 1 LIMIT_COLUMNS row of the limit experiment's pure-gauge control.

    The coboundary of a base point along COBOUNDARY_DIRECTION, scaled to a
    largest orbit translation of ``size``, is relaxed from its orbit envelope
    (with ``chord``) and integrated as in limit_experiment.  It only moves the
    base point, so its ham_ratio to ``base_volume`` differs from 1 by
    quadrature noise alone.
    """
    pres = rep.presentation
    b_unit = np.array(COBOUNDARY_DIRECTION)
    unit = holonomy.HolonomyRep(pres, holonomy.coboundary_cocycle(pres, b_unit))
    amp = np.max([np.max(np.abs(iso.translation))
                  for iso in holonomy.orbit_isometries(unit, word_length)])
    cob = holonomy.coboundary_cocycle(pres, (size / amp) * b_unit)
    start = orbit_envelope_field(holonomy.HolonomyRep(pres, cob), extent, nodes, word_length)
    return limit_row(1.0, base_volume, *_relax_and_integrate(start, relax_tol, chord))
