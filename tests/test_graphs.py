"""Spacelike-graph geometry tests: stencils, quadrature, relaxation, envelopes."""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from cmcflat import cli, graphs, holonomy
from cmcflat.graphs import HeightField


def test_height_field_validation():
    with pytest.raises(ValueError):
        HeightField(np.zeros((8, 8)), 0.1, (0.0,))  # origin rank mismatch
    with pytest.raises(ValueError):
        HeightField(np.zeros((8, 8)), -0.1, (0.0, 0.0))
    with pytest.raises(ValueError):
        HeightField(np.zeros((4, 8)), 0.1, (0.0, 0.0))  # too thin for stencils


def test_hyperboloid_mean_curvature_second_order():
    # phi = sqrt(1 + |x|^2) has H = -2 exactly (n = 2); central differences
    # converge at order 2
    errs = []
    for nodes in (41, 81, 161):
        geom = graphs.graph_geometry(graphs.hyperboloid_field(1.0, 1.5, nodes))
        errs.append(float(np.max(np.abs(geom.mean_curvature + 2.0)[geom.interior])))
    assert errs[0] == pytest.approx(2.922081591395953e-3, rel=1e-9)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 < o < 2.2 for o in orders)


def test_three_dimensional_hyperboloid():
    geom = graphs.graph_geometry(graphs.hyperboloid_field(1.0, 1.0, 21, ndim=3))
    err = float(np.max(np.abs(geom.mean_curvature + 3.0)[geom.interior]))
    assert err < 0.01
    assert geom.det_identity_error() < 1e-12


def test_det_identity_generic_field():
    f = graphs.sample_height_field(
        lambda x, y: 0.3 * np.sin(x) * np.cos(2.0 * y), 2.0, 65
    )
    geom = graphs.graph_geometry(f)
    assert geom.det_identity_error() < 1e-12


def _summed_curvature(values, h):
    """(grads, w2, H, |K|^2) of node values by the plain sum() formulas, in any
    dimension: with lap = sum_i phi_ii, u_i = sum_j phi_j phi_ij,
    t = sum_i phi_i u_i and |Hess|^2 = sum_ij phi_ij^2,

        H = -(lap + t/W^2)/W    |K|^2 = (|Hess|^2 + 2|u|^2/W^2 + (t/W^2)^2)/W^2."""
    n = values.ndim
    grads = [graphs._first_derivative(values, h, i) for i in range(n)]
    hess = graphs._hessian(values, grads, h)
    w2 = np.maximum(1.0 - sum(g * g for g in grads), graphs.SPACELIKE_MARGIN**2)
    lap = sum(hess[(i, i)] for i in range(n))
    u = [sum(grads[j] * hess[tuple(sorted((i, j)))] for j in range(n)) for i in range(n)]
    t = sum(grads[i] * u[i] for i in range(n))
    hnorm2 = sum((2.0 if i != j else 1.0) * hess[tuple(sorted((i, j)))] ** 2
                 for i in range(n) for j in range(i, n))
    k_norm2 = (hnorm2 + 2.0 * sum(ui * ui for ui in u) / w2 + (t / w2) ** 2) / w2
    return grads, w2, -(lap + t / w2) / np.sqrt(w2), k_norm2


def _tilted_field(ndim, nodes):
    weights = np.arange(1, ndim + 1) / (1.5 * ndim)

    def phi(*xs):
        tilt = sum(a * x for a, x in zip(weights, xs))
        return 0.3 * np.sin(tilt + 0.4) + 0.15 * np.cos(2.0 * xs[-1] - xs[0]) * xs[0]

    return graphs.sample_height_field(phi, 1.0, nodes, ndim)


def test_geometry_equals_the_summed_formulas():
    # the in-place accumulation must give the values of the plain sum()
    # formulas exactly, term for term, in every dimension
    for ndim, nodes in ((2, 33), (3, 13), (4, 9)):
        field = _tilted_field(ndim, nodes)
        geom = graphs.graph_geometry(field)
        grads, w2, mean_curvature, _ = _summed_curvature(np.asarray(field.values, float),
                                                         field.spacing)
        assert all(np.array_equal(a, b) for a, b in zip(geom.grads, grads))
        assert np.array_equal(geom.volume_density, np.sqrt(w2))
        assert np.array_equal(geom.mean_curvature, mean_curvature)
        assert np.ptp(geom.mean_curvature[geom.interior]) > 0.1  # the field is not a hyperboloid


def _quadrature_kernel(values, h):
    """(H, det S, |K|^2) as quotient_energy's curvature stage forms them."""
    grads = [graphs._first_derivative(values, h, i) for i in range(2)]
    w2 = np.maximum(1.0 - sum(g * g for g in grads), graphs.SPACELIKE_MARGIN**2)
    hess = graphs._hessian(values, grads, h)
    mean_curvature = graphs._curvature(hess, grads, w2, np.sqrt(w2))
    return (mean_curvature, *graphs._shape_det_and_k_norm2(hess, mean_curvature, w2))


def _non_umbilic_fields():
    return [_tilted_field(2, 33), _tilted_field(2, 201),
            graphs.sample_height_field(_bumped, 1.0, 201),
            graphs.sample_height_field(lambda x, y: 0.3 * x * y + 0.1 * np.sin(3.0 * y), 1.0, 201)]


def test_closed_form_k_norm2_equals_the_summed_formula():
    # |K|^2 = H^2 - 2 det S for n = 2 against the summed formula: measured at
    # most 5.9 ulps relative on these fields, interior nodes only
    eps = np.finfo(float).eps
    for field in _non_umbilic_fields():
        values = np.asarray(field.values, float)
        mean_curvature, _, k_norm2 = _quadrature_kernel(values, field.spacing)
        _, _, summed_h, summed_k_norm2 = _summed_curvature(values, field.spacing)
        inside = field.interior
        assert np.array_equal(mean_curvature, summed_h)
        gap = np.abs(k_norm2 - summed_k_norm2)[inside]
        assert np.all(gap <= 8.0 * eps * summed_k_norm2[inside])
        assert np.ptp(k_norm2[inside]) > 0.1  # not umbilic: |K|^2 is not H^2/2 + const


def test_traceless_part_is_nonnegative_pointwise():
    # H^2 - 4 det S = 2|K_0|^2 >= 0, the n = 2 AM-GM step of the bound, up to
    # the rounding of the two terms
    eps = np.finfo(float).eps
    for field in _non_umbilic_fields():
        mean_curvature, det, k_norm2 = _quadrature_kernel(np.asarray(field.values, float),
                                                          field.spacing)
        h2 = mean_curvature * mean_curvature
        excess = (h2 - 4.0 * det)[field.interior]
        assert np.all(excess >= -8.0 * eps * (h2 + 4.0 * np.abs(det))[field.interior])
        assert np.max(excess) > 0.01  # and positive somewhere: the fields are not umbilic


def test_node_weights_regroup_the_cell_corner_sums():
    # sum(weights * f) is the cell-corner sum over cells of frac * (fW)/4 at
    # the corners, regrouped by node; whole, cut and empty cells, odd boxes
    rng = np.random.default_rng(11)
    for shape in ((1, 1), (1, 7), (6, 1), (32, 57), (17, 300)):
        frac = rng.uniform(size=shape)
        frac[rng.uniform(size=shape) < 0.3] = 0.0
        frac[rng.uniform(size=shape) < 0.3] = 1.0
        w = rng.uniform(0.1, 1.0, size=(shape[0] + 1, shape[1] + 1))
        f = rng.normal(size=w.shape)
        weights = graphs._node_weights(frac, w)
        fw = f * w
        cells = (fw[:-1, :-1] + fw[1:, :-1] + fw[1:, 1:] + fw[:-1, 1:]) * 0.25 * frac
        assert np.sum(weights * f) == pytest.approx(np.sum(cells), rel=1e-14, abs=1e-14)
        assert np.sum(weights) == pytest.approx(np.sum((w[:-1, :-1] + w[1:, :-1] + w[1:, 1:]
                                                        + w[:-1, 1:]) * 0.25 * frac), rel=1e-14)


def _stencil_fields():
    """(values, spacing): random fields of 1 to 4 axes, with 5-node and odd
    axes, one with a NaN entry, and the read-only broadcast of a field that
    ignores an axis."""
    rng = np.random.default_rng(5)
    fields = [(rng.normal(size=shape), spacing)
              for shape, spacing in (((5,), 0.3), ((11,), 0.07), ((5, 5), 0.25),
                                     ((7, 13), 0.1), ((9, 5, 6), 0.2), ((5, 7, 5, 6), 0.5))]
    with_nan = rng.normal(size=(9, 7))
    with_nan[4, 3] = np.nan
    fields.append((with_nan, 0.15))
    tilt = graphs.sample_height_field(lambda x, y: x, 1.0, 17)
    assert not tilt.values.flags.writeable and 0 in tilt.values.strides
    fields.append((np.asarray(tilt.values, float), tilt.spacing))
    return fields


def test_first_derivative_is_numpys_gradient():
    # formed in place, it must give np.gradient's second-order-edge result
    # byte for byte, NaN propagation included
    for values, h in _stencil_fields():
        for axis in range(values.ndim):
            expected = np.gradient(values, h, axis=axis, edge_order=2)
            assert graphs._first_derivative(values, h, axis).tobytes() == expected.tobytes()


def test_second_derivative_is_the_compact_formula():
    # (lo - 2 mid + hi)/h^2 on the inner planes, each edge plane a copy of
    # its neighbor, byte for byte
    for values, h in _stencil_fields():
        for axis in range(values.ndim):
            moved = np.moveaxis(values, axis, 0)
            expected = np.empty_like(moved)
            expected[1:-1] = (moved[:-2] - 2.0 * moved[1:-1] + moved[2:]) / (h * h)
            expected[0], expected[-1] = expected[1], expected[-2]
            got = np.moveaxis(graphs._second_derivative(values, h, axis), axis, 0)
            assert np.ascontiguousarray(got).tobytes() == expected.tobytes()
    nan_field = _stencil_fields()[-2][0]
    assert np.isnan(graphs._second_derivative(nan_field, 0.15, 1)[4, 2:5]).all()


def _traced_peak(fn):
    """(result, peak bytes tracemalloc saw above what was traced at the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_hyperboloid_field_builds_one_grid_array():
    # measured 1.01 times the field's bytes (2.00 when |x|^2 + s^2 was a
    # second grid array); the bound leaves a quarter of the field as margin
    field, peak = _traced_peak(lambda: graphs.hyperboloid_field(1.0, 6.0, 1201))
    assert peak <= 1.25 * field.values.nbytes


def test_quadrature_memory_stays_below_the_field():
    # 32-row blocks whose kernels run in place, the curvature on each block's
    # domain window: measured 0.52 times the field's bytes (0.58 with the
    # curvature across whole blocks, 2.45 with 128-row blocks and whole-block
    # temporaries); the bound leaves about 30 % margin
    field = graphs.hyperboloid_field(1.0, 6.0, 1201)
    _, peak = _traced_peak(lambda: graphs.quotient_energy(field, graphs.bolza_domain_level))
    assert peak <= 0.75 * field.values.nbytes


def test_graph_check_energy_stage_stays_below_one_field():
    # the energy stage samples its hyperboloid block by block: measured 0.55
    # times one whole 1201^2 field's bytes, sampling included (1.58 when the
    # whole field was built first); the convergence sizes are negligible here
    _, peak = _traced_peak(lambda: cli.scenario_graph_check(refinement_nodes=(9, 11, 13),
                                                            energy_nodes=1201))
    assert peak <= 0.75 * 1201**2 * 8


def test_four_dimensional_convergence_memory():
    # blocks of two 41^3 planes and their halo: measured 101 MB (582 MB
    # with one whole-grid geometry per size); the bound leaves about 25 %
    _, peak = _traced_peak(lambda: graphs.curvature_convergence(1.0, 2.0, (11, 21, 41), 4))
    assert peak <= 128 * 2**20


def test_spacelike_guard():
    steep = graphs.sample_height_field(lambda x, y: 1.2 * x, 1.0, 33)
    with pytest.raises(graphs.SpacelikeError):
        graphs.graph_geometry(steep)


def test_nan_spacing_and_gradient_are_rejected():
    with pytest.raises(ValueError, match="spacing"):
        HeightField(np.zeros((8, 8)), np.nan, (0.0, 0.0))
    field = graphs.hyperboloid_field(1.0, 1.0, 17)
    for values in (np.full((17, 17), np.nan), np.where(np.eye(17, dtype=bool), np.nan,
                                                       field.values)):
        with pytest.raises(graphs.SpacelikeError):
            graphs.graph_geometry(HeightField(values, field.spacing, field.origin))


def test_filtered_quadrature_disk():
    # coordinate-disk region on the unit hyperboloid: area -> pi/4 and
    # volume -> 2 pi (sqrt(5)/2 - 1) as the grid refines (linear cuts, O(h^2))
    f = graphs.hyperboloid_field(1.0, 1.0, 101)

    def disk_level(g):
        x, y = g.field.meshgrid()
        return 0.25 - (x * x + y * y)

    rep = graphs.quotient_energy(f, disk_level)
    assert abs(rep.region_area - np.pi / 4.0) < 1e-3
    assert abs(rep.volume - 2.0 * np.pi * (np.sqrt(1.25) - 1.0)) < 1e-3
    assert rep.energy > 0
    assert rep.tau_mean == pytest.approx(-2.0, abs=1e-3)


def test_quadrature_shift_invariance():
    # a vertical translate is an isometry: same region, same integrals
    f = graphs.hyperboloid_field(1.0, 1.0, 101)

    def disk_level(g):
        x, y = g.field.meshgrid()
        return 0.25 - (x * x + y * y)

    rep = graphs.quotient_energy(f, disk_level)
    shifted = HeightField(f.values + 3.7, f.spacing, f.origin)
    rep_up = graphs.quotient_energy(shifted, disk_level)
    assert rep_up.volume == pytest.approx(rep.volume, abs=1e-13)
    assert rep_up.energy == pytest.approx(rep.energy, abs=1e-12)
    assert rep_up.region_area == pytest.approx(rep.region_area, abs=1e-13)


def test_filtered_region_guards():
    f = graphs.hyperboloid_field(1.0, 1.0, 33)
    with pytest.raises(ValueError):
        # region reaches the frame cells
        graphs.quotient_energy(f, lambda g: np.ones(g.field.shape))
    with pytest.raises(ValueError):
        # empty region
        graphs.quotient_energy(f, lambda g: -np.ones(g.field.shape))


def test_bolza_domain_level_consistency():
    geom = graphs.graph_geometry(graphs.hyperboloid_field(1.0, 1.0, 33))
    level = graphs.bolza_domain_level(geom)
    center = tuple(s // 2 for s in geom.field.shape)
    # Gauss map at the apex is the hyperboloid vertex -> disk origin
    assert level[center] == pytest.approx(float(holonomy.octagon_level(0.0, 0.0)))
    assert level[center] > 0


def test_sampled_field_matches_dense_grid():
    # sparse coordinate axes broadcast to the values of the full meshgrid
    f = graphs.hyperboloid_field(1.0, 6.0, 241)
    x, y = np.meshgrid(*(f.axis_coords(i) for i in range(2)), indexing="ij")
    assert np.array_equal(f.values, np.sqrt(1.0 + (0 + x * x + y * y)))
    # a function that ignores an axis still fills the whole grid
    tilted = graphs.sample_height_field(lambda x, y: 0.5 * x, 1.0, 33)
    assert tilted.shape == (33, 33)
    assert np.array_equal(tilted.values[:, 7], tilted.values[:, 0])


def _disk_level(center_x=0.0, radius2=0.25, center_y=0.0):
    def level(g):
        x, y = g.field.meshgrid()
        return radius2 - ((x - center_x) ** 2 + (y - center_y) ** 2)
    return level


def _relative_gap(a, b):
    return max(abs(getattr(a, k) - getattr(b, k)) / abs(getattr(b, k))
               for k in ("energy", "volume", "tau_mean", "region_area"))


def _one_block_energy(monkeypatch, f, level):
    # a block as tall as the field's cell rows: its geometry is the whole field's
    monkeypatch.setattr(graphs, "QUADRATURE_BLOCK_ROWS", f.shape[0] - 1)
    return graphs.quotient_energy(f, level)


def test_blocked_quadrature_matches_one_block(monkeypatch):
    # 7-row blocks leave a ragged last block (1 cell row of 99, 2 of 240)
    for f, level in ((graphs.hyperboloid_field(1.0, 1.0, 100), _disk_level()),
                     (graphs.hyperboloid_field(1.0, 6.0, 241), graphs.bolza_domain_level)):
        monkeypatch.setattr(graphs, "QUADRATURE_BLOCK_ROWS", 7)
        blocked = graphs.quotient_energy(f, level)
        whole = _one_block_energy(monkeypatch, f, level)
        assert _relative_gap(blocked, whole) <= 1e-13


def test_blocked_quadrature_guards_see_later_blocks(monkeypatch):
    # 32 cell rows in blocks of 7: the offending cells lie in later blocks only
    monkeypatch.setattr(graphs, "QUADRATURE_BLOCK_ROWS", 7)
    f = graphs.hyperboloid_field(1.0, 1.0, 33)

    def reaches_side_frame(g):
        # the frame columns y = 1 of node rows 16..19, all in the third block
        x, y = g.field.meshgrid()
        return np.maximum(_disk_level()(g), np.where(np.abs(x - 0.1) < 0.1, y - 0.95, -1.0))

    with pytest.raises(ValueError, match="touches the patch frame"):
        graphs.quotient_energy(f, reaches_side_frame)
    with pytest.raises(ValueError, match="empty"):
        graphs.quotient_energy(f, _disk_level(radius2=-1.0))

    steep = graphs.sample_height_field(
        lambda x, y: 0.5 * y + np.where(x > 0.6, 1.5 * (x - 0.6), 0.0), 1.0, 33)
    calls = []

    def counted(g):
        calls.append(g.field.shape)
        return _disk_level()(g)

    with pytest.raises(graphs.SpacelikeError):
        graphs.quotient_energy(steep, counted)
    assert len(calls) == 3  # raised by the fourth block's geometry

    # a region in later blocks only is not empty
    late = graphs.quotient_energy(f, _disk_level(0.6, 0.04))
    whole = _one_block_energy(monkeypatch, f, _disk_level(0.6, 0.04))
    assert _relative_gap(late, whole) <= 1e-13


def _hex(values):
    return [float(v).hex() for v in values]


def _report_bytes(report):
    return _hex(getattr(report, k) for k in ("energy", "volume", "tau_mean", "region_area"))


def test_sampled_field_rows_are_the_whole_fields():
    for ndim, nodes in ((2, 33), (3, 9)):
        sampled = graphs.sampled_hyperboloid(1.3, 2.0, nodes, ndim)
        whole = graphs.hyperboloid_field(1.3, 2.0, nodes, ndim)
        assert sampled.shape == whole.shape and sampled.spacing == whole.spacing
        for lo, hi in ((0, 5), (3, 9), (nodes - 5, nodes)):
            block, ref = sampled.rows(lo, hi), whole.rows(lo, hi)
            assert block.values.tobytes() == ref.values.tobytes()
            assert block.origin == ref.origin and block.spacing == ref.spacing


def test_sampled_quadrature_equals_the_whole_field():
    # 1201 nodes: 1200 cell rows, 37 blocks of 32 and a short last block of 16
    for nodes, extent, level in ((9, 1.0, _disk_level(radius2=0.16)),
                                 (101, 6.0, graphs.bolza_domain_level),
                                 (1201, 6.0, graphs.bolza_domain_level)):
        sampled = graphs.quotient_energy(graphs.sampled_hyperboloid(1.0, extent, nodes), level)
        whole = graphs.quotient_energy(graphs.hyperboloid_field(1.0, extent, nodes), level)
        assert _report_bytes(sampled) == _report_bytes(whole)


def _full_width_energy(field, level_fn):
    """quotient_energy's integrals by the cell-corner formula, with every block
    built across every column: the block's whole graph_geometry, the summed
    |K|^2 formula, and the cut fractions and cell sums on all of its cells.
    The frame and empty-region guards are left out."""
    h = field.spacing
    cells, cols = field.shape[0] - 1, field.shape[1] - 1

    def corners(a):
        return a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]

    area = volume = energy = tau_weight = 0.0
    for first in range(0, cells, graphs.QUADRATURE_BLOCK_ROWS):
        stop = min(first + graphs.QUADRATURE_BLOCK_ROWS, cells)
        block, lo = graphs._with_halo(field, first, stop + 1)
        geom = graphs.graph_geometry(block)
        k_norm2 = _summed_curvature(np.asarray(block.values, float), h)[3]
        nodes = slice(first - lo, stop - lo + 1)
        inner = np.zeros((stop - first, cols), dtype=bool)
        inner[max(2 - first, 0):max(cells - 2 - first, 0), 2:-2] = True
        level = np.asarray(level_fn(geom), float)[nodes]
        frac = graphs._cut_fraction(*corners(level)) * inner
        area += float(np.sum(frac))
        w = geom.volume_density[nodes]

        def cell_sum(values):
            c = corners(values)
            return float(np.sum((c[0] + c[1] + c[2] + c[3]) * 0.25 * frac))

        volume += cell_sum(w)
        energy += cell_sum(k_norm2[nodes] * w)
        tau_weight += cell_sum(geom.mean_curvature[nodes] * w)
    volume = h * h * volume
    return graphs.EnergyReport(h * h * energy, volume, h * h * tau_weight / volume, h * h * area)


def _single_node_level(x0, y0, h):
    def level(g):
        x, y = g.field.meshgrid()
        return np.where((np.abs(x - x0) < h / 2) & (np.abs(y - y0) < h / 2), 1.0, -1.0)
    return level


def test_windowed_quadrature_equals_the_full_width_blocks():
    # the curvature stage and the node weights cover a column window of each
    # block; the result must be that of blocks built across every column by
    # the cell-corner formula, up to the regrouped sums (measured at most
    # 2.9e-16 relative).  101 nodes over [-1, 1]: spacing 0.02, node columns 2
    # and 98 the first and last interior
    bolza = [(graphs.hyperboloid_field(1.0, 6.0, nodes), graphs.bolza_domain_level)
             for nodes in (101, 241, 1201)]
    bumped = graphs.sample_height_field(_bumped, 1.0, 101)

    def two_disks(g):
        return np.maximum(_disk_level(0.0, 0.04, -0.5)(g), _disk_level(0.0, 0.04, 0.5)(g))

    regions = [
        two_disks,  # one window spans both disks and the gap between them
        _disk_level(0.1, 0.0625, -0.7),  # reaches node column 3: the halo starts at column 0
        _disk_level(0.1, 0.0625, 0.7),  # reaches node column 97: the halo ends at column 100
        _single_node_level(-0.36, -0.2, bumped.spacing),  # node row 32, a block boundary
        _single_node_level(0.3, 0.5, bumped.spacing),
    ]
    for field, level in bolza + [(bumped, region) for region in regions]:
        assert _relative_gap(graphs.quotient_energy(field, level),
                             _full_width_energy(field, level)) <= 1e-14
    # the single node is the whole region: four cut cells of area h^2/8 each
    single = graphs.quotient_energy(bumped, regions[3])
    assert single.region_area == pytest.approx(0.5 * bumped.spacing**2, rel=1e-12)


def test_curvature_stage_covers_the_domain_window_only(monkeypatch):
    # at 1201^2 the Bolza domain spans about a third of a block's columns:
    # measured 0.42 times the grid's nodes given to _curvature, the window's
    # node rows (0.47 with the Hessian's halo rows, 1.15 when every block
    # built the stage across all columns, halo rows included)
    real = graphs._curvature
    sizes = []

    def counted(hess, *args):
        sizes.append(hess[(0, 0)].size)
        return real(hess, *args)

    monkeypatch.setattr(graphs, "_curvature", counted)
    graphs.quotient_energy(graphs.sampled_hyperboloid(1.0, 6.0, 1201), graphs.bolza_domain_level)
    assert 0 < sum(sizes) <= 0.55 * 1201**2


def test_windowed_quadrature_keeps_its_guards():
    # steep where no cell of the domain lies, on 100 cell rows in 4 blocks: in
    # the disk's block rows but outside its window (y > 0.6), and in the last
    # two blocks, which hold no domain cell (x > 0.6); the Gauss stage covers
    # every column of every block
    for slope in (lambda x, y: np.where(y > 0.6, 1.5 * (y - 0.6), 0.0),
                  lambda x, y: np.where(x > 0.6, 1.5 * (x - 0.6), 0.0)):
        steep = graphs.sample_height_field(lambda x, y: 0.3 * x + slope(x, y), 1.0, 101)
        with pytest.raises(graphs.SpacelikeError):
            graphs.quotient_energy(steep, _disk_level(-0.5, 0.04, -0.3))
    # a region on a side frame alone: its window is the frame's cell columns
    f = graphs.hyperboloid_field(1.0, 1.0, 33)
    for side in (-1.0, 1.0):
        def frame_only(g, side=side):
            x, y = g.field.meshgrid()
            return side * y - 0.95

        with pytest.raises(ValueError, match="touches the patch frame"):
            graphs.quotient_energy(f, frame_only)


def _disk_and_arm(arm):
    """The centred disk of radius 0.5 and the nodes where ``arm(x, y)`` holds."""
    def level(g):
        x, y = g.field.meshgrid()
        return np.maximum(_disk_level()(g), np.where(arm(x, y), 1.0, -1.0))
    return level


@pytest.mark.parametrize("arm", [
    # an arm along the middle rows to node column 31 (y = 0.9375): it reaches
    # cell columns 30 and 31, the last two frame columns, and no frame row
    lambda x, y: (np.abs(x) < 0.1) & (y > 0.0) & (y < 0.95),
    # to node column 30 only: cell column 30 is the one frame column reached
    lambda x, y: (np.abs(x) < 0.1) & (y > 0.0) & (y < 0.9),
    # the first two frame columns
    lambda x, y: (np.abs(x) < 0.1) & (y < 0.0) & (y > -0.95),
    # along the middle columns to node row 31: cell rows 30 and 31, the last
    # two frame rows, which lie in the ragged last block (cell rows 28..31)
    lambda x, y: (np.abs(y) < 0.1) & (x > 0.0) & (x < 0.95),
    # a corner node alone, so a corner frame cell is the one frame cell reached
    lambda x, y: (x > 0.95) & (y > 0.95),
    lambda x, y: (x > 0.95) & (y < -0.95),
    lambda x, y: (x < -0.95) & (y > 0.95),
    lambda x, y: (x < -0.95) & (y < -0.95),
])
def test_frame_guard_on_the_window(monkeypatch, arm):
    # 32 cell rows in blocks of 7, the last of them 4 rows; the frame mask is
    # built on the window of cell columns, so its frame columns are window
    # relative, and the window here runs from the disk into the frame
    monkeypatch.setattr(graphs, "QUADRATURE_BLOCK_ROWS", 7)
    f = graphs.hyperboloid_field(1.0, 1.0, 33)
    with pytest.raises(ValueError, match="touches the patch frame"):
        graphs.quotient_energy(f, _disk_and_arm(arm))


@pytest.mark.parametrize("arm", [
    # to node column 29 (y = 0.8125): the window's last cell column is 29,
    # one cell inside the frame
    lambda x, y: (np.abs(x) < 0.1) & (y > 0.0) & (y < 0.85),
    # to node column 3: the window's first cell column is 2
    lambda x, y: (np.abs(x) < 0.1) & (y < 0.0) & (y > -0.85),
    # to node row 29: cell row 29 of the ragged last block
    lambda x, y: (np.abs(y) < 0.1) & (x > 0.0) & (x < 0.85),
])
def test_frame_guard_passes_a_window_one_cell_inside_the_frame(monkeypatch, arm):
    monkeypatch.setattr(graphs, "QUADRATURE_BLOCK_ROWS", 7)
    f = graphs.hyperboloid_field(1.0, 1.0, 33)
    with_arm = graphs.quotient_energy(f, _disk_and_arm(arm))
    assert with_arm.region_area > graphs.quotient_energy(f, _disk_level()).region_area


def _whole_grid_convergence(s, extent, nodes_list, ndim):
    """curvature_convergence's rows and det_err from one whole-grid geometry per
    size, the n x n metric stack built on every node."""
    rows, det_errs = [], []
    for nodes in nodes_list:
        field = graphs.hyperboloid_field(s, extent, nodes, ndim)
        geom = graphs.graph_geometry(field)
        g = np.empty(field.shape + (ndim, ndim))
        for i in range(ndim):
            for j in range(ndim):
                g[..., i, j] = (1.0 if i == j else 0.0) - geom.grads[i] * geom.grads[j]
        det_err = np.abs(np.linalg.det(g) - geom.volume_density**2)[geom.interior]
        det_errs.append(float(np.max(det_err)))
        err = np.abs(geom.mean_curvature + ndim / s)[geom.interior]
        rows.append((nodes, field.spacing, float(np.max(err))))
    return rows, float(np.max(det_errs))


def test_blocked_convergence_equals_whole_grids(monkeypatch):
    # one-plane blocks, blocks with a short last one (700 nodes: 5 planes of
    # 13^2 over 9 interior rows), and the default, one block per size here
    for ndim, sizes in ((2, (9, 17, 33)), (3, (9, 13, 17)), (4, (9, 11, 13))):
        rows, det_err = _whole_grid_convergence(1.2, 1.5, sizes, ndim)
        expected = [_hex(row) for row in rows], det_err.hex()
        for block_nodes in (1, 700, graphs.CONVERGENCE_BLOCK_NODES):
            monkeypatch.setattr(graphs, "CONVERGENCE_BLOCK_NODES", block_nodes)
            got_rows, got_det = graphs.curvature_convergence(1.2, 1.5, sizes, ndim)
            assert ([_hex(row) for row in got_rows], got_det.hex()) == expected


def test_blocked_convergence_keeps_a_nan(monkeypatch):
    # a NaN in the mean curvature of the fifth of 29 one-plane blocks of the
    # finest size must reach its error and fail its order check; a running
    # maximum built on the built-in max would drop it
    monkeypatch.setattr(graphs, "CONVERGENCE_BLOCK_NODES", 1)
    real = graphs.graph_geometry
    finest = []

    def planted(field):
        geom = real(field)
        if field.ndim == 3 and field.shape[1] == 33:
            finest.append(field.origin[0])
            if len(finest) == 5:
                geom.mean_curvature[2, 8, 8] = np.nan
        return geom

    monkeypatch.setattr(graphs, "graph_geometry", planted)
    tables, checks = cli.scenario_graph_check(dim=3, refinement_nodes=(9, 17, 33),
                                              energy_nodes=241)
    assert len(finest) == 29
    conv = {name: rows for name, _, rows in tables}["graph_convergence.csv"]
    assert [np.isnan(row[2]) for row in conv] == [False, False, True]
    passed = {name: ok for name, _, _, _, ok in checks}
    assert passed["graph_convergence_order_0"] and not passed["graph_convergence_order_1"]


def _dense_cut_fraction(s0, s1, s2, s3):
    # every marching-squares case evaluated on every cell, one pass per case
    b0, b1, b2, b3 = s0 >= 0, s1 >= 0, s2 >= 0, s3 >= 0
    case = (b0.astype(int) + 2 * b1.astype(int) + 4 * b2.astype(int) + 8 * b3.astype(int))
    tb = graphs._edge_cross(s0, s1)
    tr = graphs._edge_cross(s1, s2)
    tt = graphs._edge_cross(s3, s2)
    tl = graphs._edge_cross(s0, s3)
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
    return frac, case


def test_cut_fraction_matches_dense_cases():
    rng = np.random.default_rng(11)
    levels = rng.normal(size=(4, 60, 50))
    levels[rng.random(levels.shape) < 0.2] = 0.0  # exact zeros count as inside
    expected, case = _dense_cut_fraction(*levels)
    assert np.array_equal(np.unique(case), np.arange(16))
    assert np.array_equal(graphs._cut_fraction(*levels), expected)


def _bumped(x, y):
    # the unit hyperboloid with a small bump: not CMC, but close to it
    r2 = x * x + y * y
    return np.sqrt(1.0 + r2) + 0.03 * np.exp(-2.0 * r2)


def test_cmc_relax_pullback():
    start = graphs.sample_height_field(_bumped, 1.5, 81)
    result = graphs.cmc_relax(start, -2.0, tol=1e-8)
    assert result.residual <= 1e-8
    assert result.iterations <= 10
    geom = graphs.graph_geometry(result.field)
    dev = np.abs(geom.mean_curvature + 2.0)[geom.interior]
    assert float(np.max(dev)) <= 1e-8


def test_cmc_relax_validation():
    f = graphs.hyperboloid_field(1.0, 1.0, 33)
    with pytest.raises(ValueError):
        graphs.cmc_relax(f, 2.0)
    with pytest.raises(ValueError):
        graphs.cmc_relax(graphs.hyperboloid_field(1.0, 1.0, 9, ndim=1), -2.0)
    # an LU carried from another grid cannot serve as a chord step
    chord = graphs.ChordLU()
    graphs.cmc_relax(f, -2.0, chord=chord)
    with pytest.raises(ValueError, match="carried LU is for 1089 unknowns"):
        graphs.cmc_relax(graphs.hyperboloid_field(1.0, 1.0, 41), -2.0, chord=chord)


def test_cmc_relax_stopping_rules(monkeypatch):
    # (iterations, residual <= tol, factorizations, field is start) at each of
    # the three exits: the tolerance met, a line search run out, the step limit
    start = graphs.sample_height_field(_bumped, 1.5, 33)

    def outcome(tol):
        result = graphs.cmc_relax(start, -2.0, tol=tol)
        return (result.iterations, result.residual <= tol, result.factorizations,
                result.field is start)

    assert outcome(1e3) == (0, True, 0, True)
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_trial_step", lambda *args: None)
        assert outcome(1e-6) == (1, False, 1, True)
    monkeypatch.setattr(graphs, "LIMIT_MAX_ITERS", 2)
    assert outcome(0.0)[:3] == (2, False, 1)


@pytest.mark.parametrize("case", ["limit-envelope", "hyperboloid"])
def test_newton_jacobian_matches_central_differences_of_h(case):
    # J delta against (H[phi + eps delta] - H[phi - eps delta])/(2 eps) on the
    # interior: J is the exact linearization of the discrete H, so the misfit
    # (relative to max |J delta|) falls at order 2 in eps.  delta is smooth
    # and zero on the frame.  eps stays small: the lambda = 1 envelope at 81^2
    # reaches |grad phi| = 0.9935, and eps = 4e-3 leaves the light cone.
    if case == "limit-envelope":
        field = _limit_start(81)
    else:
        field = graphs.hyperboloid_field(1.0, 2.0, 41)
    jac = graphs._newton_system(graphs.graph_geometry(field))
    inside = field.interior
    x, y = field.meshgrid()
    delta = np.zeros(field.shape)
    delta[inside] = (np.sin(1.3 * x + 0.4) * np.cos(0.7 * y))[inside]
    j_delta = (jac @ delta.ravel()).reshape(field.shape)[inside]

    def mean_curvature(eps):
        moved = HeightField(field.values + eps * delta, field.spacing, field.origin)
        return graphs.graph_geometry(moved).mean_curvature[inside]

    misfits = []
    for eps in (4e-5, 2e-5, 1e-5, 5e-6):
        central = (mean_curvature(eps) - mean_curvature(-eps)) / (2.0 * eps)
        misfits.append(np.max(np.abs(j_delta - central)) / np.max(np.abs(j_delta)))
    orders = np.log2(np.array(misfits[:-1]) / np.array(misfits[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.1), (misfits, orders)


def test_newton_step_matches_spsolve():
    # the no-pivot symmetric-mode LU against the partial-pivoting oracle on the
    # first Newton system of the lambda = 1 limit-experiment relaxation
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    start = graphs.orbit_envelope_field(rep, 6.4, 81)
    geom = graphs.graph_geometry(start)
    jac = graphs._newton_system(geom)
    rhs = graphs._newton_rhs(geom, -2.0)
    expected = scipy.sparse.linalg.spsolve(jac, rhs)
    step = graphs._newton_step(jac, rhs, graphs._factorize(jac))
    assert np.max(np.abs(step - expected)) <= 1e-9 * np.max(np.abs(expected))


def _limit_start(nodes, lam=1.0):
    # the orbit envelope of the limit experiment at lambda, on a coarse grid
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    return graphs.orbit_envelope_field(holonomy.scale_structure(rep, lam ** -2), 6.4, nodes)


def _relax(start, chord=None):
    return graphs.cmc_relax(start, -2.0, tol=1e-8, chord=chord)


def test_cmc_relax_chord_steps_match_full_newton():
    # reusing the LU as chord steps saves factorizations but must land on the
    # field that plain full-step Newton reaches
    start = _limit_start(81)
    result = graphs.cmc_relax(start, -2.0, tol=1e-8)
    assert result.residual <= 1e-8
    assert result.factorizations < result.iterations
    reference = start
    for _ in range(8):
        geom = graphs.graph_geometry(reference)
        jac = graphs._newton_system(geom)
        step = graphs._newton_step(jac, graphs._newton_rhs(geom, -2.0), graphs._factorize(jac))
        reference = HeightField(reference.values + step.reshape(reference.shape),
                                reference.spacing, reference.origin)
    assert graphs._interior_residual(graphs.graph_geometry(reference), -2.0) <= 1e-8
    diff = np.max(np.abs(result.field.values - reference.values))
    assert diff <= 1e-9 * np.max(np.abs(reference.values))


def test_cmc_relax_takes_only_contracting_chord_steps(monkeypatch):
    # a chord step is taken only if it at least halves the residual
    # (CHORD_CONTRACTION); a weaker one is refused and the Jacobian is
    # factored afresh
    events = []
    factorize, trial_step = graphs._factorize, graphs._trial_step

    def record_factorize(jac):
        events.append("factor")
        return factorize(jac)

    def record_trial(field, step, tau):
        taken = trial_step(field, step, tau)
        events.append(None if taken is None else taken[1])
        return taken

    monkeypatch.setattr(graphs, "_factorize", record_factorize)
    monkeypatch.setattr(graphs, "_trial_step", record_trial)
    start = _limit_start(81)
    result = graphs.cmc_relax(start, -2.0, tol=1e-8)
    assert result.residual <= 1e-8
    # replay: after a factorization the trials are the Newton line search
    # until one lowers the residual; any later trial is a chord trial, and it
    # was refused exactly when a factorization follows it
    res = graphs._interior_residual(graphs.graph_geometry(start), -2.0)
    newton, taken, refused = False, [], 0
    for k, event in enumerate(events):
        if event == "factor":
            newton = True
        elif newton:
            if event is not None and event < res:
                res, newton = event, False
        elif k + 1 < len(events) and events[k + 1] == "factor":
            refused += 1
        else:
            taken.append(event / res)
            res = event
    assert events.count("factor") == result.factorizations
    assert len(taken) == result.iterations - result.factorizations
    assert refused > 0
    assert max(taken) <= graphs.CHORD_CONTRACTION


def test_cmc_relax_carries_the_lu_across_relaxations():
    # the LU the lambda = 2 relaxation leaves behind serves the lambda = 4
    # relaxation as chord steps: no factorization, and the field of a cold start
    chord = graphs.ChordLU()
    first = _relax(_limit_start(81, 2.0), chord)
    assert first.residual <= 1e-8 and first.factorizations == 1
    kept = chord.lu
    start = _limit_start(81, 4.0)
    carried = _relax(start, chord)
    cold = _relax(start)
    assert carried.residual <= 1e-8
    # the carried LU opens the relaxation: every step is a chord solve
    assert carried.iterations >= 1
    assert carried.factorizations == 0 and chord.lu is kept
    assert cold.factorizations == 1
    diff = np.max(np.abs(carried.field.values - cold.field.values))
    assert diff <= 1e-9 * np.max(np.abs(cold.field.values))


def test_cmc_relax_refuses_a_carried_lu_that_does_not_contract(monkeypatch):
    # the LU of a far-off surface, the radius-3 hyperboloid, handed to the
    # lambda = 1 relaxation: its first chord trial leaves the light cone, so
    # it is refused and the relaxation runs as from a cold start; the kept LU
    # is dropped before every factorization, so no two LUs are ever alive at once
    start = _limit_start(81)
    cold = _relax(start)
    far = graphs._newton_system(graphs.graph_geometry(graphs.hyperboloid_field(3.0, 6.4, 81)))
    chord = graphs.ChordLU(far, graphs._factorize(far))
    events, held_at_factor = [], []
    factorize, trial_step = graphs._factorize, graphs._trial_step

    def record_factorize(jac):
        events.append("factor")
        held_at_factor.append((chord.jac, chord.lu))
        return factorize(jac)

    def record_trial(field, step, tau):
        taken = trial_step(field, step, tau)
        events.append(None if taken is None else taken[1])
        return taken

    monkeypatch.setattr(graphs, "_factorize", record_factorize)
    monkeypatch.setattr(graphs, "_trial_step", record_trial)
    carried = _relax(start, chord)
    assert events[:2] == [None, "factor"]
    assert carried.factorizations == cold.factorizations
    assert np.array_equal(carried.field.values, cold.field.values)
    assert len(held_at_factor) == carried.factorizations
    assert all(held == (None, None) for held in held_at_factor)


def test_newton_step_refuses_an_unstable_factorization():
    # diagonal pivots of 1e-20 grow the no-pivot factors by 1e20; the residual
    # check must raise rather than hand back a wrong step
    jac = scipy.sparse.csc_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]]))
    with pytest.raises(graphs.NewtonStepError, match="relative linear residual"):
        graphs._newton_step(jac, np.array([1.0, 1.0]), graphs._factorize(jac))


def _stacked_sheets(rep, extent, nodes):
    xs = -extent + (2.0 * extent / (nodes - 1)) * np.arange(nodes)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    translations = [iso.translation for iso in holonomy.orbit_isometries(rep, 3)]
    return np.stack([t[0] + np.sqrt(1.0 + (gx - t[1]) ** 2 + (gy - t[2]) ** 2)
                     for t in translations])


def test_envelope_matches_stacked_reference():
    # the envelope builds each sheet once instead of keeping them all; it must
    # equal, bit for bit, the soft minimum over the stacked sheets taken
    # relative to the first (identity) sheet and summed in orbit order
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.05))
    env = graphs.orbit_envelope_field(rep, 3.0, 81)
    sheets = _stacked_sheets(rep, 3.0, 81)
    assert np.unique(np.argmin(sheets, axis=0)).size > 1  # the cocycle separates the sheets
    ref = sheets[0]
    expected = ref - 0.08 * np.log(np.sum(np.exp(-(sheets - ref) / 0.08), axis=0))
    assert np.array_equal(env.values, expected)


def test_envelope_sum_adds_one_for_each_reference_row():
    # a row equal to the reference (first) row adds the 1.0 that exp(-0.0)
    # gives its sheet, so that sheet is not built; with reference rows
    # interleaved among distinct ones the envelope must equal, bit for bit,
    # a loop that builds every sheet
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.05))
    distinct = graphs._envelope_translations(rep, 1)
    rows = [distinct[0]]
    for t in distinct[1:]:
        rows += [t, distinct[0]]
    translations = np.array(rows + [distinct[0]] * 3)
    assert np.sum(np.all(translations == distinct[0], axis=1)) == len(distinct) + 3
    env = graphs._envelope_sum(translations, 3.0, 81)
    xs = -3.0 + (6.0 / 80) * np.arange(81)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")

    def sheet(t):
        return t[0] + np.sqrt(1.0 + (gx - t[1]) ** 2 + (gy - t[2]) ** 2)

    ref = sheet(translations[0])
    acc = np.ones_like(ref)
    for t in translations[1:]:
        acc = acc + np.exp(-(sheet(t) - ref) / 0.08)
    assert np.array_equal(env.values, ref - 0.08 * np.log(acc))


def test_envelope_matches_hard_minimum_form():
    # the soft minimum does not depend on its reference surface: taking it
    # relative to the hard minimum of the sheets changes only round-off
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.05))
    env = graphs.orbit_envelope_field(rep, 3.0, 81)
    sheets = _stacked_sheets(rep, 3.0, 81)
    hard_min = np.min(sheets, axis=0)
    expected = hard_min - 0.08 * np.log(np.sum(np.exp(-(sheets - hard_min) / 0.08), axis=0))
    assert np.max(np.abs(env.values - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_envelope_refuses_sheets_beyond_the_exponent_bound():
    # at cocycle scale 0.2 the orbit sheets lie up to ~123 from the identity
    # sheet, over 1500 smoothing widths: exp of the one-pass sum would
    # overflow, so the envelope refuses before building a sheet
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.2))
    with pytest.raises(graphs.EnvelopeRangeError, match="ENVELOPE_MAX_EXPONENT = 600"):
        graphs.orbit_envelope_field(rep, 3.0, 9)


def test_quadrature_and_envelopes_refuse_other_dimensions():
    # the octagon filter is a 2-D construction (the orbit envelopes are too,
    # and a HolonomyRep holds the 2-D Bolza group alone)
    with pytest.raises(ValueError, match="n = 2 patches"):
        graphs.quotient_energy(graphs.hyperboloid_field(1.0, 2.0, 9, ndim=3),
                               graphs.bolza_domain_level)


def test_envelope_zero_cocycle_is_shifted_hyperboloid():
    # with zero cocycle all orbit sheets coincide, so the soft minimum is the
    # hyperboloid minus smoothing*log(#sheets); 457 elements at word length 3
    env = graphs.orbit_envelope_field(holonomy.bolza_rep(), 3.0, 81, word_length=3)
    hyp = graphs.hyperboloid_field(1.0, 3.0, 81)
    expected = hyp.values - 0.08 * np.log(457.0)
    assert np.max(np.abs(env.values - expected)) < 1e-12
    # the shift is an isometry: same curvature up to ulp noise amplified by
    # the second-difference stencil (~eps/h^2)
    ge = graphs.graph_geometry(env)
    gh = graphs.graph_geometry(hyp)
    assert np.max(np.abs(ge.mean_curvature - gh.mean_curvature)) < 1e-10


def test_limit_experiment_small_grid():
    # deformation ham_ratio approaches 1 as the cocycle is scaled away;
    # values frozen from a 161-node run (the acceptance suite runs 321)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    rows, base = graphs.limit_experiment(rep, (1.0, 2.0), extent=6.4, nodes=161)
    assert base == pytest.approx(12.551802406094048, abs=1e-9)
    assert len(rows) == 2
    assert len(rows[0]) == len(graphs.LIMIT_COLUMNS)
    devs = [abs(row[3] - 1.0) for row in rows]
    assert devs[1] < devs[0] < 1e-2
    assert devs[1] < 1e-4
    for row in rows:
        assert abs(row[1] + 2.0) < 1e-6  # tau_mean pinned by the relaxation
        assert row[4] <= 1e-8


def test_limit_experiment_equals_the_sequential_pipeline():
    # the envelopes built ahead on a worker thread must leave every row, the
    # control's too, bit for bit as a sequential loop gives it: envelope,
    # relaxation on one shared ChordLU, quotient energy, in the order
    # baseline (its row at lambda = inf), each lambda, then the coboundary control
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    lambdas = (1.0, 2.0, 4.0, 8.0)
    rows, base, control = graphs.limit_experiment_with_control(rep, lambdas, 0.15, nodes=81)
    reps = ([holonomy.bolza_rep()] + [holonomy.scale_structure(rep, lam ** -2) for lam in lambdas]
            + [graphs._coboundary_rep(0.15, 3)])
    chord = graphs.ChordLU()
    sequential = []
    for r in reps:
        relaxed = graphs.cmc_relax(graphs.orbit_envelope_field(r, 6.4, 81), -2.0, tol=1e-8,
                                   chord=chord)
        sequential.append((graphs.quotient_energy(relaxed.field, graphs.bolza_domain_level),
                           relaxed))
    base_volume = sequential[0][0].volume
    expected = [(lam, report.tau_mean, report.volume, report.volume / base_volume,
                 relaxed.residual, relaxed.iterations, relaxed.factorizations)
                for lam, (report, relaxed) in zip((np.inf,) + lambdas + (1.0,), sequential)]
    assert [base] + rows + [control] == expected
    assert control[-1] == 0  # the carried LU took the control, unfactored

    # coboundary_control alone, a queue of one, relaxes on a fresh ChordLU
    alone = graphs.coboundary_control(rep, base[2], 0.15, 6.4, 81, 3, 1e-8)
    relaxed = graphs.cmc_relax(graphs.orbit_envelope_field(reps[-1], 6.4, 81), -2.0, tol=1e-8,
                               chord=graphs.ChordLU())
    report = graphs.quotient_energy(relaxed.field, graphs.bolza_domain_level)
    assert alone == graphs.limit_row(1.0, base[2], report, relaxed.residual,
                                     relaxed.iterations, relaxed.factorizations)
    assert alone[-1] == 1


def test_limit_experiment_with_control_equals_the_split_run():
    # limit_experiment then coboundary_control gives the rows and baseline
    # volume bit for bit; the split control relaxes on a fresh ChordLU, so it factors
    # once and reaches the shared queue's control row within the tolerance
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    lambdas = (1.0, 2.0, 4.0, 8.0)
    rows, base, control = graphs.limit_experiment_with_control(rep, lambdas, 0.15, nodes=81)
    split_rows, split_base = graphs.limit_experiment(rep, lambdas, nodes=81)
    split_control = graphs.coboundary_control(rep, split_base, 0.15, 6.4, 81, 3, 1e-8)
    assert (rows, base[2]) == (split_rows, split_base)
    assert (control[0], control[-1], split_control[-1]) == (1.0, 0, 1)
    assert control[4] <= 1e-8 and split_control[4] <= 1e-8
    assert abs(control[1] - split_control[1]) < 1e-7
    assert control[2:4] == pytest.approx(split_control[2:4], rel=1e-7, abs=0.0)


def test_limit_experiment_factors_once(monkeypatch):
    # the zero-cocycle baseline's LU carries every later relaxation, the
    # coboundary control's too, as chord steps: one factorization in all, and
    # every relaxation converges with steps to spare
    factors, relaxed = [], []
    factorize, relax = graphs._factorize, graphs.cmc_relax

    def counted_factorize(jac):
        factors.append(None)
        return factorize(jac)

    def recorded_relax(*args, **kwargs):
        relaxed.append(relax(*args, **kwargs))
        return relaxed[-1]

    monkeypatch.setattr(graphs, "_factorize", counted_factorize)
    monkeypatch.setattr(graphs, "cmc_relax", recorded_relax)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    graphs.limit_experiment_with_control(rep, (1.0, 2.0, 4.0, 8.0), 0.15, nodes=81)
    assert len(relaxed) == 6
    assert len(factors) == 1 and relaxed[0].factorizations == 1
    assert all(r.residual <= 1e-8 for r in relaxed)
    assert max(r.iterations for r in relaxed) <= graphs.LIMIT_MAX_ITERS - 5


def test_limit_experiment_fails_before_the_first_relaxation(monkeypatch):
    # a bad lambda and an orbit beyond the envelope's exponent bound are both
    # found before the baseline is relaxed
    calls = []
    relax = graphs.cmc_relax

    def counted(*args, **kwargs):
        calls.append(None)
        return relax(*args, **kwargs)

    monkeypatch.setattr(graphs, "cmc_relax", counted)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    with pytest.raises(ValueError, match="lambda values must be positive"):
        graphs.limit_experiment(rep, (1.0, -1.0), nodes=41)
    assert calls == []
    far = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.2))
    with pytest.raises(graphs.EnvelopeRangeError, match="ENVELOPE_MAX_EXPONENT = 600"):
        graphs.limit_experiment(far, (1.0, 2.0), nodes=41)
    # the control's orbit, last in the queue, is range-checked with the others
    with pytest.raises(graphs.EnvelopeRangeError, match="ENVELOPE_MAX_EXPONENT = 600"):
        graphs.limit_experiment_with_control(rep, (1.0, 2.0), 100.0, nodes=41)
    assert calls == []


def test_limit_experiment_keeps_traced_calls_on_the_calling_thread(monkeypatch):
    # a span tracer keeps one stack for all threads, so every function it may
    # wrap must run on the caller's thread; only the envelope sums leave it,
    # the control's too, queued with the lambdas or alone
    threads: dict = {}

    def record(module, name):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            threads.setdefault(name, []).append(threading.get_ident())
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    for name in ("graph_geometry", "cmc_relax", "quotient_energy", "orbit_envelope_field",
                 "_envelope_sum"):
        record(graphs, name)
    for name in ("orbit_isometries", "octagon_level"):
        record(holonomy, name)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    main = threading.get_ident()
    graphs.limit_experiment(rep, (1.0, 2.0), nodes=41)
    summed_on = threads.pop("_envelope_sum")
    assert len(summed_on) == 3 and main not in summed_on
    assert {t for ids in threads.values() for t in ids} == {main}
    assert set(threads) == {"graph_geometry", "cmc_relax", "quotient_energy",
                            "orbit_isometries", "octagon_level"}

    threads.clear()
    graphs.limit_experiment_with_control(rep, (1.0, 2.0, 4.0, 8.0), 0.15, nodes=41)
    summed_on = threads.pop("_envelope_sum")
    assert len(summed_on) == 6 and main not in summed_on
    assert {t for ids in threads.values() for t in ids} == {main}
    # the control's unit orbit and its own, then the baseline's and four lambdas'
    assert len(threads["orbit_isometries"]) == 7
    assert len(threads["cmc_relax"]) == 6
    assert "orbit_envelope_field" not in threads

    threads.clear()
    graphs.coboundary_control(rep, 4.0 * np.pi, 0.15, 6.4, 41, 3, 1e-8)
    summed_on = threads.pop("_envelope_sum")
    assert len(summed_on) == 1 and main not in summed_on
    assert {t for ids in threads.values() for t in ids} == {main}
    # the control's unit orbit and its own
    assert len(threads["orbit_isometries"]) == 2
    assert len(threads["cmc_relax"]) == 1 and "quotient_energy" in threads
    assert "orbit_envelope_field" not in threads


def test_limit_experiment_raises_a_relaxation_error_unchanged(monkeypatch):
    before = threading.active_count()
    planted = graphs.NewtonStepError("planted in the second relaxation")
    calls = []
    relax = graphs.cmc_relax

    def failing_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise planted
        return relax(*args, **kwargs)

    monkeypatch.setattr(graphs, "cmc_relax", failing_second)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    with pytest.raises(graphs.NewtonStepError) as raised:
        graphs.limit_experiment(rep, (1.0, 2.0, 4.0), nodes=41)
    assert raised.value is planted
    assert len(calls) == 2
    assert threading.active_count() == before


def test_limit_experiment_relaxation_error_cancels_the_queued_envelopes(monkeypatch):
    # an error in the baseline's relaxation leaves without waiting for the
    # envelopes queued behind it: only the one the worker has started runs on
    before = threading.active_count()
    planted = graphs.NewtonStepError("planted in the first relaxation")
    sums = []
    envelope_sum = graphs._envelope_sum

    def counted(*args):
        sums.append(None)
        return envelope_sum(*args)

    def failing(*args, **kwargs):
        raise planted

    monkeypatch.setattr(graphs, "_envelope_sum", counted)
    monkeypatch.setattr(graphs, "cmc_relax", failing)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    with pytest.raises(graphs.NewtonStepError) as raised:
        graphs.limit_experiment(rep, (1.0, 2.0, 4.0, 8.0), nodes=161)
    assert raised.value is planted
    assert 1 <= len(sums) <= 2
    assert threading.active_count() == before


def test_limit_experiment_raises_a_worker_error_unchanged(monkeypatch):
    # the third envelope sum (lambda = 2) fails on the worker while the
    # lambda = 1 envelope is relaxed; the error reaches the caller when that
    # envelope is asked for, after two relaxations and with the worker joined
    before = threading.active_count()
    planted = RuntimeError("planted in the third envelope sum")
    sums, relaxations = [], []
    envelope_sum, relax = graphs._envelope_sum, graphs.cmc_relax

    def failing_third(*args):
        sums.append(None)
        if len(sums) == 3:
            raise planted
        return envelope_sum(*args)

    def counted(*args, **kwargs):
        relaxations.append(None)
        return relax(*args, **kwargs)

    monkeypatch.setattr(graphs, "_envelope_sum", failing_third)
    monkeypatch.setattr(graphs, "cmc_relax", counted)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    with pytest.raises(RuntimeError) as raised:
        graphs.limit_experiment(rep, (1.0, 2.0, 4.0), nodes=41)
    assert raised.value is planted
    assert len(relaxations) == 2
    assert threading.active_count() == before


def test_limit_experiment_raises_a_control_envelope_error_unchanged(monkeypatch):
    # the coboundary control's envelope sum, the sixth behind the baseline and
    # four lambdas or the only one when the control runs alone, fails on the
    # worker; the error reaches the caller when the control's envelope is asked
    # for, after every envelope ahead of it is relaxed, with the worker joined
    before = threading.active_count()
    planted = RuntimeError("planted in the control's envelope sum")
    sums, relaxations = [], []
    envelope_sum, relax = graphs._envelope_sum, graphs.cmc_relax
    control_sum = 6

    def failing_control(*args):
        sums.append(None)
        if len(sums) == control_sum:
            raise planted
        return envelope_sum(*args)

    def counted(*args, **kwargs):
        relaxations.append(None)
        return relax(*args, **kwargs)

    monkeypatch.setattr(graphs, "_envelope_sum", failing_control)
    monkeypatch.setattr(graphs, "cmc_relax", counted)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    with pytest.raises(RuntimeError) as raised:
        graphs.limit_experiment_with_control(rep, (1.0, 2.0, 4.0, 8.0), 0.15, nodes=41)
    assert raised.value is planted
    assert len(sums) == 6
    assert len(relaxations) == 5
    assert threading.active_count() == before

    sums.clear()
    relaxations.clear()
    control_sum = 1
    with pytest.raises(RuntimeError) as raised:
        graphs.coboundary_control(rep, 4.0 * np.pi, 0.15, 6.4, 41, 3, 1e-8)
    assert raised.value is planted
    assert len(sums) == 1
    assert relaxations == []
    assert threading.active_count() == before


def test_limit_experiment_worker_keeps_the_callers_errstate(monkeypatch):
    # the envelope sums run in a copy of the caller's context, so a caller's
    # np.errstate holds there and a floating-point error reaches the caller
    before = threading.active_count()
    envelope_sum = graphs._envelope_sum

    def dividing_by_zero(*args):
        np.log(0.0)
        return envelope_sum(*args)

    monkeypatch.setattr(graphs, "_envelope_sum", dividing_by_zero)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    for run in (lambda: graphs.limit_experiment(rep, (1.0, 2.0), nodes=41),
                lambda: graphs.coboundary_control(rep, 4.0 * np.pi, 0.15, 6.4, 41, 3, 1e-8)):
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            run()
        assert threading.active_count() == before
