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
those: a cell with all four corners inside counts whole.

Every quantity in that integral, and in the curvature convergence of the
model hyperboloid, is a local stencil, so quotient_energy and
curvature_convergence run one row-block pipeline: each block takes its node
rows along axis 0, plus the two-row halo the stencils reach, from the field's
rows(lo, hi) accessor (_with_halo) and builds the geometry of those rows only.
A HeightField answers with a slice of its array; a SampledField evaluates its
profile on those rows only, so a caller that passes one never holds a whole
grid (a 2401^2 field is 46 MB, the 36 node rows of a 32-cell-row quadrature
block 0.7 MB).  The quadrature takes QUADRATURE_BLOCK_ROWS (32) cell rows a
block, because its cell sums depend on block order; the convergence takes the
fewest whole planes holding CONVERGENCE_BLOCK_NODES, and its maxima, taken
with np.max, keep a NaN whatever block it sits in.

A geometry is built in two stages: the Gauss stage (GaussGeometry: the
gradient, W, the spacelike guard and the Gauss map) and the curvature stage
(_curvature: the Hessian, H and |K|^2); GraphGeometry is both, on every node.
The quadrature runs the Gauss stage on the whole block, evaluates the domain's
level there, and runs the curvature stage, the cut fractions and the cell
sums only on the window of cell columns whose cells have a corner in the
domain, plus a two-column halo (at 2401^2 nodes the Bolza domain spans about a
third of a block's columns); its sums go through full-width buffers that are
zero outside the window, so they keep the bits of a whole-width build.  The
kernels a block runs through, the derivative stencils, both stages,
octagon_level and the cell sums of quotient_energy, form their sums in place
on a few scratch arrays, so a block makes no temporary array per operation.

CMC surfaces are produced by a damped Newton relaxation of H[phi] = tau on
the interior with the frame held fixed; its contract is the achieved
residual, not convergence.  Each iterate is carried as its GraphGeometry,
and its Newton Jacobian is assembled from that geometry's gradient, W^2 and
W (GaussGeometry is the one place W^2 is formed and held at the margin), with
only the Hessian built again.  Each Newton step factors the Jacobian by a
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
EnvelopeRangeError.  The limit experiment, with or without its coboundary
control queued last, and the control alone take the Bolza presentation only
(_require_bolza) and run through one pipeline (_relax_orbits) on a fresh
ChordLU: it range-checks every orbit before it relaxes anything, then
builds the envelopes in order, ahead of the relaxations, on a one-worker
ThreadPoolExecutor while this thread relaxes.  The queue holds one grid
array per envelope built and not yet relaxed: at defaults (321^2 nodes,
four lambdas, the control last) at most five arrays of 0.8 MB.  The rules
the worker keeps are in _relax_orbits.
"""

from __future__ import annotations

import contextvars
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
#: nodes per block of curvature_convergence: a block is the fewest whole planes
#: (node rows along axis 0) that hold 2^17 nodes, about 1 MB per geometry array,
#: plus a two-plane halo; two planes of 41^3 at dim 4, 20 of 81^2 at dim 3
CONVERGENCE_BLOCK_NODES = 2**17

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
    """phi sampled on a uniform grid: values[i...] at origin + spacing*(i...).

    rows(lo, hi) is the row-block accessor that quotient_energy and
    curvature_convergence read, here a view of ``values``; a SampledField
    answers it without holding a grid.
    """

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

    def rows(self, lo: int, hi: int) -> HeightField:
        """Node rows lo..hi-1 along axis 0, a view of ``values``."""
        return HeightField(self.values[lo:hi], self.spacing,
                           (self.origin[0] + lo * self.spacing, *self.origin[1:]))


def _centered_axis(extent: float, nodes: int):
    """(spacing, coordinates) of ``nodes`` equispaced points on [-extent, extent]."""
    spacing = 2.0 * extent / (nodes - 1)
    return spacing, -extent + spacing * np.arange(nodes)


@dataclass(frozen=True)
class SampledField:
    """fn(x1, ..., xn) on the centered patch [-extent, extent]^n, sampled on demand.

    It holds no grid: rows(lo, hi), HeightField's row-block accessor,
    evaluates fn on node rows lo..hi-1 along axis 0 only.  Those rows are,
    byte for byte, the same rows of sample_height_field(fn, extent, nodes,
    ndim), which is rows(0, nodes).
    """

    fn: object
    extent: float
    nodes: int
    ndim: int = 2

    @property
    def spacing(self) -> float:
        return _centered_axis(self.extent, self.nodes)[0]

    @property
    def shape(self) -> tuple:
        return (self.nodes,) * self.ndim

    def rows(self, lo: int, hi: int) -> HeightField:
        """fn on node rows lo..hi-1 along axis 0, a HeightField of those rows."""
        spacing, axis = _centered_axis(self.extent, self.nodes)
        # sparse axes broadcast inside fn, so no full coordinate grids are built;
        # the broadcast fills in an axis that fn ignores (fn = lambda x, y: x)
        grids = np.meshgrid(axis[lo:hi], *[axis] * (self.ndim - 1), indexing="ij", sparse=True)
        return HeightField(np.broadcast_to(self.fn(*grids), (hi - lo,) + self.shape[1:]), spacing,
                           (-self.extent + lo * spacing,) + (-self.extent,) * (self.ndim - 1))


def sample_height_field(fn, extent: float, nodes: int, ndim: int = 2) -> HeightField:
    """fn(x1, ..., xn) on the whole centered square patch [-extent, extent]^n."""
    return SampledField(fn, extent, nodes, ndim).rows(0, nodes)


def sampled_hyperboloid(s: float, extent: float, nodes: int, ndim: int = 2) -> SampledField:
    """The CMC model graph phi = sqrt(s^2 + |x|^2) (mean curvature -n/s), sampled on demand."""

    def phi(*xs):
        # one array of the rows asked for: |x|^2 summed axis by axis, then s^2
        # and the root in place
        out = np.zeros(np.broadcast_shapes(*(x.shape for x in xs)))
        for x in xs:
            out += x * x
        out += s * s
        return np.sqrt(out, out=out)

    return SampledField(phi, extent, nodes, ndim)


def hyperboloid_field(s: float, extent: float, nodes: int, ndim: int = 2) -> HeightField:
    """sampled_hyperboloid on the whole grid, one array."""
    return sampled_hyperboloid(s, extent, nodes, ndim).rows(0, nodes)


def _with_halo(field, first: int, stop: int):
    """(block, lo): node rows first..stop-1 of ``field`` along axis 0 with the
    two-row halo the stencils reach, clipped to the grid and widened to the
    five rows a HeightField needs; ``lo`` is the block's first row.

    ``field`` is a HeightField or a SampledField: the block comes from its
    rows accessor, so a sampled field is evaluated on the block's rows only.
    """
    hi = min(max(stop + 2, 5), field.shape[0])
    lo = max(0, min(first - 2, hi - 5))
    return field.rows(lo, hi), lo


def _along(ndim: int, axis: int):
    """index(s): the index tuple that applies slice or integer ``s`` on ``axis``."""

    def index(s):
        key = [slice(None)] * ndim
        key[axis] = s
        return tuple(key)

    return index


def _first_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """np.gradient(values, h, axis=axis, edge_order=2), bit for bit, formed in place.

    The interior central difference (f[k+1] - f[k-1])/(2h) is written into
    its output slice by the same two operations np.gradient applies; the two
    one-sided second-order edge planes are formed as np.gradient forms them.
    """
    at = _along(values.ndim, axis)
    out = np.empty_like(values)
    mid = out[at(slice(1, -1))]
    np.subtract(values[at(slice(2, None))], values[at(slice(None, -2))], out=mid)
    mid /= 2.0 * h
    out[at(0)] = ((-1.5 / h) * values[at(0)] + (2.0 / h) * values[at(1)]
                  + (-0.5 / h) * values[at(2)])
    out[at(-1)] = ((0.5 / h) * values[at(-3)] + (-2.0 / h) * values[at(-2)]
                   + (1.5 / h) * values[at(-1)])
    return out


def _second_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Compact central second difference along one axis (edges copy inward).

    The compact stencil (f[k-1] - 2f[k] + f[k+1])/h^2 keeps the linearization
    of the mean-curvature operator on the 9-point box; it is written into its
    output slice term by term, in the order of that formula.  Edge planes are
    filled with their neighbors' values, which the interior contract never sees.
    """
    at = _along(values.ndim, axis)
    out = np.empty_like(values)
    mid = out[at(slice(1, -1))]
    np.multiply(values[at(slice(1, -1))], 2.0, out=mid)
    np.subtract(values[at(slice(None, -2))], mid, out=mid)
    mid += values[at(slice(2, None))]
    mid /= h * h
    out[at(0)] = out[at(1)]
    out[at(-1)] = out[at(-2)]
    return out


def _hessian(values: np.ndarray, grads: list, h: float) -> dict:
    """Symmetric Hessian dict {(i,j): array} of ``values``, whose gradient is ``grads``.

    Pure second derivatives use the compact three-point stencil; mixed ones
    are central differences of the central gradient (the 4-point cross).
    Every stencil is formed in place in its output array.
    """
    n = values.ndim
    return {(i, j): (_second_derivative(values, h, i) if i == j
                     else _first_derivative(grads[i], h, j))
            for i in range(n) for j in range(i, n)}


def _dot(a, b, out, scratch):
    """sum_k a[k] * b[k] into ``out``, one term at a time through ``scratch``."""
    np.multiply(a[0], b[0], out=out)
    for ak, bk in zip(a[1:], b[1:]):
        out += np.multiply(ak, bk, out=scratch)
    return out


class GaussGeometry:
    """The Gauss stage of a spacelike graph: gradient, W and the spacelike guard.

    Stores the gradient, w2 = W^2 = 1 - |grad phi|^2 (held at
    SPACELIKE_MARGIN^2 from below) and W, the volume density; the Gauss map's
    disk image and the det(g) identity need nothing more.  SpacelikeError is
    raised unless every interior node is uniformly spacelike.  Only interior
    nodes (two-node margin) are contractual.

    GraphGeometry adds the curvature stage on every node; quotient_energy
    hands each block's GaussGeometry to its level_fn and builds the curvature
    on a column window only (_curvature).
    """

    def __init__(self, field: HeightField):
        self.field = field
        values = np.asarray(field.values, float)
        grads = [_first_derivative(values, field.spacing, i) for i in range(field.ndim)]
        interior = field.interior
        w2 = _dot(grads, grads, np.empty_like(values), np.empty_like(values))
        # np.max keeps a NaN, which fails the guard
        if not float(np.max(w2[interior])) <= (1.0 - SPACELIKE_MARGIN) ** 2:
            raise SpacelikeError(
                "graph is not uniformly spacelike on the interior "
                f"(max |grad phi| = {float(np.sqrt(np.max(w2[interior]))):.8f})"
            )
        np.subtract(1.0, w2, out=w2)
        np.maximum(w2, SPACELIKE_MARGIN**2, out=w2)
        self.grads = grads
        self.w2 = w2
        self.volume_density = np.sqrt(w2)
        self.interior = interior

    def det_identity_error(self) -> float:
        """max interior |det(g) - W^2| — an exact identity up to rounding.

        The n x n metric stack is built on the interior nodes only.
        """
        n = self.field.ndim
        grads = [grad[self.interior] for grad in self.grads]
        g = np.empty(grads[0].shape + (n, n))
        for i in range(n):
            for j in range(n):
                g[..., i, j] = (1.0 if i == j else 0.0) - grads[i] * grads[j]
        det = np.linalg.det(g)
        return float(np.max(np.abs(det - self.volume_density[self.interior] ** 2)))

    def disk_coordinates(self) -> list:
        """Poincare-disk image of the Gauss map, grad phi/(1 + W), one array per axis."""
        denom = 1.0 + self.volume_density
        return [g / denom for g in self.grads]


def _curvature(values: np.ndarray, h: float, grads: list, w2: np.ndarray, w: np.ndarray):
    """(H, |K|^2), the curvature stage, from node values, their gradient, W^2 and W.

    With lap = sum_i phi_ii, u_i = sum_j phi_j phi_ij, t = sum_i phi_i u_i
    and |Hess|^2 = sum_ij phi_ij^2,

        H = -(lap + t/W^2)/W    |K|^2 = (|Hess|^2 + 2|u|^2/W^2 + (t/W^2)^2)/W^2.

    Each sum is accumulated in place, term by term in the order of its index
    loop, and spent arrays are reused, so besides the Hessian and the results
    the build allocates only the u_i and one scratch term.  Every operation
    is pointwise but the Hessian's stencils, so the arrays may be any box of
    a geometry's nodes: a node one or more planes inside the box gets the
    bits of the whole geometry's node.
    """
    n = values.ndim
    hess = _hessian(values, grads, h)

    def hs(i, j):
        return hess[(i, j) if i <= j else (j, i)]

    scratch = np.empty_like(hess[(0, 0)])

    def dot(a, b, out):
        return _dot(a, b, out, scratch)

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
    return np.negative(t, out=t), k_norm2


class GraphGeometry(GaussGeometry):
    """Pointwise geometry of a spacelike graph (lean scalar fields).

    The Gauss stage (GaussGeometry: gradient, W^2, W and the spacelike
    guard), then the curvature stage on every node (_curvature): the mean
    curvature H and |K|^2, the squared norm of the second fundamental form in
    the induced metric.  Only det_identity_error builds the induced metric
    tensor.  Only interior nodes (two-node margin) are contractual.
    """

    def __init__(self, field: HeightField):
        super().__init__(field)
        self.mean_curvature, self.k_norm2 = _curvature(
            np.asarray(field.values, float), field.spacing, self.grads, self.w2,
            self.volume_density)


def graph_geometry(field: HeightField) -> GraphGeometry:
    return GraphGeometry(field)


def curvature_convergence(s: float, extent: float, nodes_list, ndim: int = 2):
    """(rows, det_err): the hyperboloid graph's mean-curvature error on each grid.

    A row (nodes, spacing, err) per size in ``nodes_list``, err the largest
    interior |H + ndim/s| of sqrt(s^2 + |x|^2) over [-extent, extent]^ndim;
    det_err is the np.max of det_identity_error over the grids.

    Each grid is sampled and its geometry built in blocks of whole planes
    along axis 0 (CONVERGENCE_BLOCK_NODES), each block with a two-plane halo
    so that its own interior is its planes; the values equal those of one
    whole-grid geometry byte for byte, and np.max over the blocks keeps a NaN.
    """
    rows, det_errs = [], []
    for nodes in nodes_list:
        field = sampled_hyperboloid(s, extent, nodes, ndim)
        step = -(-CONVERGENCE_BLOCK_NODES // nodes ** (ndim - 1))
        errs = []
        # interior rows 2 .. nodes - 3 in blocks; a block's own interior is its rows
        for first in range(2, nodes - 2, step):
            geom = graph_geometry(_with_halo(field, first, min(first + step, nodes - 2))[0])
            det_errs.append(geom.det_identity_error())
            errs.append(_interior_residual(geom, -ndim / s))
        rows.append((nodes, field.spacing, float(np.max(errs))))
    return rows, float(np.max(det_errs))


def bolza_domain_level(geom: GaussGeometry) -> np.ndarray:
    """Signed octagon level of the Gauss map at every node (>= 0 in the domain).

    ``geom`` is a GaussGeometry, the Gauss stage quotient_energy hands its
    level_fn, or a GraphGeometry; only its disk_coordinates() are read.
    """
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


def quotient_energy(field, level_fn) -> EnergyReport:
    """Integrate |K|^2 and the volume element over a filtered region.

    ``field`` is a HeightField or a SampledField.  ``level_fn`` maps a
    GaussGeometry (its .field, .grads, .volume_density and
    disk_coordinates()) to a signed node field whose >= 0 region selects the
    domain (``bolza_domain_level`` picks one Bolza fundamental domain through
    the Gauss map).  Returns E = int |K|^2 dmu, Vol = int dmu, the mu-weighted
    mean of H, and the coordinate area of the region.  Boundary cells get a
    linear cut; the integrand uses the cell-corner average.

    The cells are integrated in blocks of QUADRATURE_BLOCK_ROWS rows: each
    block reads its node rows plus a two-row halo, which the stencils reach,
    through the field's rows accessor (_with_halo), and runs in two stages.
    The Gauss stage, GaussGeometry on the whole block, is what ``level_fn``
    is called on, so ``level_fn`` is evaluated once per block and must be
    pointwise in the block's geometry and coordinates.  The curvature stage
    (_curvature, the cut fractions and the corner sums) is built only on the
    window of cell columns that holds every cell with a corner at level >= 0,
    plus the two-column halo the Hessian reaches; a block without such a cell
    has none.  The cut fractions and corner sums go into full-width buffers
    that are zero outside the window, so every np.sum adds the block's whole
    cell rows in the order a whole-width build adds them: cells outside the
    window have no corner inside and cut fraction 0, so wherever the
    whole-width curvature is finite the sums keep its bits.  The running
    totals take the blocks in order.
    SpacelikeError is raised when any block's interior is not uniformly
    spacelike, window or not; ValueError when the region reaches the frame
    cells (the two outer cell rings) anywhere, or is empty.
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
        # the block's cells have corners on node rows first .. stop
        block, lo = _with_halo(field, first, stop + 1)
        gauss = GaussGeometry(block)
        nodes = slice(first - lo, stop - lo + 1)
        level = np.asarray(level_fn(gauss), float)[nodes]
        # cell column c has its corners on node columns c and c + 1
        reached = np.any(level >= 0, axis=0)
        window = np.flatnonzero(reached[:-1] | reached[1:])
        if window.size == 0:
            continue
        left, right = int(window[0]), int(window[-1]) + 1
        frac = np.zeros((stop - first, cols))
        frac_window = frac[:, left:right]
        frac_window[...] = _cut_fraction(*corners(level[:, left:right + 1]))
        # cells whose corners are all interior nodes
        inner = np.zeros((stop - first, cols), dtype=bool)
        inner[max(2 - first, 0):max(cells - 2 - first, 0), 2:-2] = True
        touched = touched or bool(np.any((frac > 0) & ~inner))
        frac *= inner
        area += float(np.sum(frac))
        # the curvature stage on the window's corner columns left .. right and the halo
        stage_lo = max(left - 2, 0)
        stage = np.s_[:, stage_lo:min(right + 3, cols + 1)]
        mean_curvature, k_norm2 = _curvature(
            np.asarray(block.values, float)[stage], h, [g[stage] for g in gauss.grads],
            gauss.w2[stage], gauss.volume_density[stage])
        corner_nodes = (nodes, slice(left - stage_lo, right - stage_lo + 1))
        w = gauss.volume_density[nodes, left:right + 1]
        weighted = np.empty_like(w)
        cell = np.zeros_like(frac)
        cell_window = cell[:, left:right]

        def cell_sum(values):
            # 0.25 * (c0 + c1 + c2 + c3) * frac, formed in the cell buffer's window
            c = corners(values)
            total = np.add(c[0], c[1], out=cell_window)
            total += c[2]
            total += c[3]
            total *= 0.25
            total *= frac_window
            return float(np.sum(cell))

        volume += cell_sum(w)
        energy += cell_sum(np.multiply(k_norm2[corner_nodes], w, out=weighted))
        tau_weight += cell_sum(np.multiply(mean_curvature[corner_nodes], w, out=weighted))
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


def _newton_system(geom: GraphGeometry):
    """Sparse linearization J of phi -> H[phi] at interior nodes of geom.field.

    Frame nodes get identity rows (Dirichlet).  Row structure is the 9-point
    stencil obtained by differentiating H through the central differences of
    the gradient and Hessian entries.  The gradient, W^2 (held at the
    margin) and W are the geometry's own, from its Gauss stage; only the
    Hessian is built again (_hessian, the curvature stage's stencils), since
    the curvature stage spends its Hessian in place.
    """
    import scipy.sparse

    field = geom.field
    h = field.spacing
    m1, m2 = field.shape
    gx, gy = geom.grads
    hess = _hessian(np.asarray(field.values, float), geom.grads, h)
    w2, w = geom.w2, geom.volume_density
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


def _factorize(jac):
    """Symmetric-mode, no-pivot sparse LU of a Newton Jacobian.

    The Jacobian (9-point elliptic stencil, identity frame rows) is
    structurally symmetric, so SuperLU orders A^T + A by minimum degree and
    pivots on the diagonal only (no partial pivoting).
    """
    import scipy.sparse.linalg

    return scipy.sparse.linalg.splu(jac, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})


def _newton_step(jac, rhs: np.ndarray, lu) -> np.ndarray:
    """Solve J s = rhs with ``lu = _factorize(jac)``, checked by its residual.

    ``lu`` may have been factored for an earlier step (a chord step).
    Without pivoting a small pivot can grow the factors without bound, so
    the step is accepted only if ||J s - rhs||_2 <= NEWTON_STEP_RTOL *
    ||rhs||_2 for the factored J; otherwise NewtonStepError is raised.
    """
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
    """(geometry of the trial field, its interior residual), or None when the
    trial is not uniformly spacelike; the trial is the geometry's .field."""
    try:
        geom = graph_geometry(HeightField(field.values + step, field.spacing, field.origin))
    except SpacelikeError:
        return None
    return geom, _interior_residual(geom, tau)


def cmc_relax(field: HeightField, tau_target: float, tol: float = 1e-6,
              chord: ChordLU | None = None) -> RelaxResult:
    """Relax a spacelike graph toward constant mean curvature tau_target.

    Damped Newton with the frame held at the initial (barrier) data.  Each
    iterate is carried as its GraphGeometry (the iterate is its .field), and
    a Newton step's Jacobian is assembled from it (_newton_system).  The
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
    geom = graph_geometry(field)
    current_res = _interior_residual(geom, tau_target)
    steps = factorizations = 0
    while steps < LIMIT_MAX_ITERS and not current_res <= tol:
        steps += 1
        rhs = _newton_rhs(geom, tau_target)
        taken = None
        if chord.lu is not None:
            step = _newton_step(chord.jac, rhs, chord.lu).reshape(field.shape)
            taken = _trial_step(geom.field, step, tau_target)
            if taken is not None and not taken[1] <= CHORD_CONTRACTION * current_res:
                taken = None
        if taken is None:
            # free the kept factors first: two LUs alive at once raise the peak
            chord.jac = chord.lu = None
            jac = _newton_system(geom)
            chord.jac, chord.lu = jac, _factorize(jac)
            factorizations += 1
            step = _newton_step(chord.jac, rhs, chord.lu).reshape(field.shape)
            alpha = 1.0
            for _ in range(MAX_STEP_REJECTIONS):
                taken = _trial_step(geom.field, alpha * step, tau_target)
                if taken is not None and taken[1] < current_res:
                    break
                alpha *= 0.5
            else:
                break
        geom, current_res = taken
    return RelaxResult(geom.field, current_res, steps, factorizations)


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


def limit_row(lam: float, base_volume: float, report: EnergyReport, residual: float,
              steps: int, factorizations: int):
    """One LIMIT_COLUMNS row: the quotient integrals, the volume ratio to the
    zero-cocycle baseline, and the relaxation's residual and solver counts."""
    return (float(lam), report.tau_mean, report.volume, report.volume / base_volume,
            residual, steps, factorizations)


def _require_bolza(rep) -> None:
    """ValueError unless ``rep`` is over the Bolza presentation, whose octagon is the domain."""
    if not np.array_equal(rep.presentation.generators, holonomy.bolza_presentation().generators):
        raise ValueError("the limit experiment integrates over the Bolza octagon; "
                         "rep must be over holonomy.bolza_presentation()")


def _coboundary_rep(rep, size: float, word_length: int):
    """The pure-gauge control's representation: the coboundary of a base point
    along COBOUNDARY_DIRECTION, scaled so that the largest entry of its orbit
    translations (words up to ``word_length``) is ``size``."""
    pres = rep.presentation
    b_unit = np.array(COBOUNDARY_DIRECTION)
    unit = holonomy.HolonomyRep(pres, holonomy.coboundary_cocycle(pres, b_unit))
    amp = np.max([np.max(np.abs(iso.translation))
                  for iso in holonomy.orbit_isometries(unit, word_length)])
    return holonomy.HolonomyRep(pres, holonomy.coboundary_cocycle(pres, (size / amp) * b_unit))


def _relax_orbits(reps, extent: float, nodes: int, word_length: int, relax_tol: float):
    """(EnergyReport, residual, steps, factorizations) of each representation's
    orbit envelope, relaxed to tau = -2 (cmc_relax) and integrated over the
    Gauss-map preimage of the Bolza octagon, in order; no relaxed field is kept.

    Every orbit is built and range-checked on this thread before anything is
    relaxed.  The envelopes are then built in order, ahead of the
    relaxations, by the map of a one-worker ThreadPoolExecutor (SuperLU and
    numpy's ufuncs release the GIL); the queue holds one nodes^2 array per
    envelope built and not yet relaxed.  The worker runs _envelope_sum only,
    numpy alone, in a copy of the caller's context (so a caller's np.errstate
    holds there); every function a tracer may wrap runs on this thread.  Each
    envelope is the array orbit_envelope_field gives.  All relaxations share
    one fresh ChordLU, each starting from the LU the one before it left.  An
    error, in a relaxation or in the worker, cancels the envelopes not yet
    started; the executor's exit joins the worker before the exception
    leaves, and a worker's error is raised again here when its envelope is
    asked for.
    """
    chord = ChordLU()
    translations = [_envelope_translations(r, word_length) for r in reps]
    # imported here, as scipy is: no other scenario loads it
    from concurrent.futures import ThreadPoolExecutor

    run = contextvars.copy_context().run
    results = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        starts = pool.map(lambda t: run(_envelope_sum, t, extent, nodes), translations)
        try:
            for start in starts:
                relaxed = cmc_relax(start, -2.0, tol=relax_tol, chord=chord)
                results.append((quotient_energy(relaxed.field, bolza_domain_level),
                                relaxed.residual, relaxed.iterations, relaxed.factorizations))
        finally:
            # cancels the envelopes not yet started, so an error waits for
            # the running one alone before the executor's exit joins the worker
            starts.close()
    return results


def _limit_rows(rep, lambdas, control_sizes, extent: float, nodes: int, word_length: int,
                relax_tol: float) -> list:
    """The LIMIT_COLUMNS rows of one envelope queue, in its order: the zero
    cocycle bolza_rep(), ``rep`` scaled by lambda**-2 for each lambda, then the
    coboundary control of each size.

    Every ratio is to the baseline's volume.  The baseline's row stands at
    lambda = inf, the limit in which the scaled cocycle vanishes, with a
    ham_ratio of 1; a control's row stands at lambda = 1.
    """
    _require_bolza(rep)
    lambdas = tuple(lambdas)
    if not all(lam > 0 for lam in lambdas):
        raise ValueError("lambda values must be positive")
    reps = ([holonomy.bolza_rep()]
            + [holonomy.scale_structure(rep, float(lam) ** -2) for lam in lambdas]
            + [_coboundary_rep(rep, size, word_length) for size in control_sizes])
    results = _relax_orbits(reps, extent, nodes, word_length, relax_tol)
    base_volume = results[0][0].volume
    labels = (np.inf, *lambdas) + (1.0,) * len(control_sizes)
    return [limit_row(lam, base_volume, *result) for lam, result in zip(labels, results)]


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
    relax_tol marks a relaxation failure.  All relaxations share one
    ChordLU, so each starts from the LU the one before it left.  ``rep``
    must be over the Bolza presentation, whose octagon is the domain.

    Every lambda is checked, and every orbit is range-checked, before
    anything is relaxed; the envelopes are built ahead of the relaxations on
    a one-worker executor (see _relax_orbits).
    """
    base_row, *rows = _limit_rows(rep, lambdas, (), extent, nodes, word_length, relax_tol)
    return rows, base_row[2]


def coboundary_control(rep, base_volume: float, size: float, extent: float, nodes: int,
                       word_length: int, relax_tol: float):
    """The lambda = 1 LIMIT_COLUMNS row of the limit experiment's pure-gauge control.

    The coboundary of a base point along COBOUNDARY_DIRECTION, scaled to a
    largest orbit translation of ``size``, is relaxed from its orbit envelope
    on a fresh ChordLU and integrated through the limit experiment's
    pipeline (_relax_orbits, a queue of one).  It only moves the base point,
    so its ham_ratio to ``base_volume`` differs from 1 by quadrature noise alone.
    """
    _require_bolza(rep)
    (result,) = _relax_orbits([_coboundary_rep(rep, size, word_length)], extent, nodes,
                              word_length, relax_tol)
    return limit_row(1.0, base_volume, *result)


def limit_experiment_with_control(rep, lambdas, control_size: float, extent: float = 6.4,
                                  nodes: int = 321, word_length: int = 3,
                                  relax_tol: float = 1e-8):
    """(rows, baseline_row, control_row): limit_experiment, then
    coboundary_control of size ``control_size``, through one envelope queue.

    The rows are limit_experiment's.  The baseline row is the zero cocycle's,
    at lambda = inf: its volume is limit_experiment's baseline volume, and its
    residual shows whether the baseline relaxation converged.  The control's
    orbit is range-checked with the others, before the first relaxation, and
    its envelope is queued and relaxed last, from the LU the last lambda left.
    """
    base_row, *rows, control_row = _limit_rows(rep, lambdas, (control_size,), extent, nodes,
                                               word_length, relax_tol)
    return rows, base_row, control_row
