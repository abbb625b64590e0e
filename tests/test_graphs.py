"""Spacelike-graph geometry tests: stencils, quadrature, relaxation, envelopes."""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from cmcflat import graphs, holonomy
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


def test_geometry_equals_the_summed_formulas():
    # the in-place accumulation must give the values of the plain sum()
    # formulas exactly, term for term, in every dimension
    for ndim, nodes in ((2, 33), (3, 13), (4, 9)):
        weights = np.arange(1, ndim + 1) / (1.5 * ndim)

        def phi(*xs, weights=weights):
            tilt = sum(a * x for a, x in zip(weights, xs))
            return 0.3 * np.sin(tilt + 0.4) + 0.15 * np.cos(2.0 * xs[-1] - xs[0]) * xs[0]

        field = graphs.sample_height_field(phi, 1.0, nodes, ndim)
        geom = graphs.graph_geometry(field)
        grads, hess = graphs._derivatives(np.asarray(field.values, float), field.spacing)
        n = ndim
        w2 = np.maximum(1.0 - sum(g * g for g in grads), graphs.SPACELIKE_MARGIN**2)
        lap = sum(hess[(i, i)] for i in range(n))
        u = [sum(grads[j] * hess[tuple(sorted((i, j)))] for j in range(n)) for i in range(n)]
        t = sum(grads[i] * u[i] for i in range(n))
        hnorm2 = sum((2.0 if i != j else 1.0) * hess[tuple(sorted((i, j)))] ** 2
                     for i in range(n) for j in range(i, n))
        k_norm2 = (hnorm2 + 2.0 * sum(ui * ui for ui in u) / w2 + (t / w2) ** 2) / w2
        assert all(np.array_equal(a, b) for a, b in zip(geom.grads, grads))
        assert np.array_equal(geom.volume_density, np.sqrt(w2))
        assert np.array_equal(geom.mean_curvature, -(lap + t / w2) / np.sqrt(w2))
        assert np.array_equal(geom.k_norm2, k_norm2)
        assert np.ptp(geom.k_norm2[geom.interior]) > 0.1  # the field is not a hyperboloid


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
    # 32-row blocks whose kernels run in place: measured 0.58 times the
    # field's bytes (2.45 with 128-row blocks and whole-block temporaries);
    # the bound leaves about 30 % margin
    field = graphs.hyperboloid_field(1.0, 6.0, 1201)
    _, peak = _traced_peak(lambda: graphs.quotient_energy(field, graphs.bolza_domain_level))
    assert peak <= 0.75 * field.values.nbytes


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


def _disk_level(center_x=0.0, radius2=0.25):
    def level(g):
        x, y = g.field.meshgrid()
        return radius2 - ((x - center_x) ** 2 + y * y)
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
    assert result.converged
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
    # (iterations, converged, factorizations, field is start) at each of the
    # three exits: the tolerance met, a line search run out, the step limit
    start = graphs.sample_height_field(_bumped, 1.5, 33)

    def outcome(result):
        return result.iterations, result.converged, result.factorizations, result.field is start

    assert outcome(graphs.cmc_relax(start, -2.0, tol=1e3)) == (0, True, 0, True)
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_trial_step", lambda *args: None)
        assert outcome(graphs.cmc_relax(start, -2.0)) == (1, False, 1, True)
    monkeypatch.setattr(graphs, "LIMIT_MAX_ITERS", 2)
    assert outcome(graphs.cmc_relax(start, -2.0, tol=0.0))[:3] == (2, False, 1)


def test_newton_step_matches_spsolve():
    # the no-pivot symmetric-mode LU against the partial-pivoting oracle on the
    # first Newton system of the lambda = 1 limit-experiment relaxation
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    start = graphs.orbit_envelope_field(rep, 6.4, 81)
    jac = graphs._newton_system(start)
    rhs = graphs._newton_rhs(graphs.graph_geometry(start), -2.0)
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
    assert result.converged and result.residual <= 1e-8
    assert result.factorizations < result.iterations
    reference = start
    for _ in range(8):
        geom = graphs.graph_geometry(reference)
        jac = graphs._newton_system(reference)
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
        events.append(None if taken is None else taken[2])
        return taken

    monkeypatch.setattr(graphs, "_factorize", record_factorize)
    monkeypatch.setattr(graphs, "_trial_step", record_trial)
    start = _limit_start(81)
    result = graphs.cmc_relax(start, -2.0, tol=1e-8)
    assert result.converged
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


def test_every_superlu_call_follows_a_heap_release(monkeypatch):
    # the peak RSS of limit-experiment is reproducible only when SuperLU never
    # lands in freed, still-resident heap holes: each factorization and each
    # solve, chord or Newton, comes right after a release
    events = []
    splu = scipy.sparse.linalg.splu

    class RecordedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            events.append("solve")
            return self.lu.solve(rhs)

    def record_splu(*args, **kwargs):
        events.append("factor")
        return RecordedLU(splu(*args, **kwargs))

    monkeypatch.setattr(graphs, "_release_free_heap", lambda: events.append("release"))
    monkeypatch.setattr(scipy.sparse.linalg, "splu", record_splu)
    chord = graphs.ChordLU()
    result = _relax(_limit_start(81), chord)
    assert result.converged
    assert events.count("factor") == result.factorizations
    assert events.count("solve") > result.factorizations
    assert all(events[k - 1] == "release" for k, event in enumerate(events)
               if event != "release")
    # a second relaxation opens with a chord solve by the carried LU, which
    # must follow a release as well
    events.clear()
    carried = _relax(_limit_start(81, 2.0), chord)
    assert carried.converged
    assert events[:2] == ["release", "solve"]
    assert events.count("factor") == carried.factorizations
    assert all(events[k - 1] == "release" for k, event in enumerate(events)
               if event != "release")


def test_cmc_relax_carries_the_lu_across_relaxations():
    # the LU the lambda = 2 relaxation leaves behind serves the lambda = 4
    # relaxation as chord steps: no factorization, and the field of a cold start
    chord = graphs.ChordLU()
    first = _relax(_limit_start(81, 2.0), chord)
    assert first.converged and first.factorizations == 1
    kept = chord.lu
    start = _limit_start(81, 4.0)
    carried = _relax(start, chord)
    cold = _relax(start)
    assert carried.converged and carried.residual <= 1e-8
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
    far = graphs._newton_system(graphs.hyperboloid_field(3.0, 6.4, 81))
    chord = graphs.ChordLU(far, graphs._factorize(far))
    events, held_at_factor = [], []
    factorize, trial_step = graphs._factorize, graphs._trial_step

    def record_factorize(jac):
        events.append("factor")
        held_at_factor.append((chord.jac, chord.lu))
        return factorize(jac)

    def record_trial(field, step, tau):
        taken = trial_step(field, step, tau)
        events.append(None if taken is None else taken[2])
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
    # the envelopes built one ahead on a worker thread must leave every row
    # bit for bit as a sequential loop gives it: envelope, relaxation with one
    # shared LU, quotient energy, in the order baseline, lambda = 1, 2
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    lambdas = (1.0, 2.0)
    rows, base = graphs.limit_experiment(rep, lambdas, extent=6.4, nodes=161)
    zero = holonomy.HolonomyRep(
        rep.presentation, tuple(np.zeros(3) for _ in range(rep.presentation.n_generators)))
    chord = graphs.ChordLU()
    sequential = []
    for r in [zero] + [holonomy.scale_structure(rep, lam ** -2) for lam in lambdas]:
        relaxed = graphs.cmc_relax(graphs.orbit_envelope_field(r, 6.4, 161), -2.0, tol=1e-8,
                                   chord=chord)
        sequential.append((graphs.quotient_energy(relaxed.field, graphs.bolza_domain_level),
                           relaxed))
    assert base == sequential[0][0].volume
    expected = [(lam, report.tau_mean, report.volume, report.volume / base, relaxed.residual,
                 relaxed.iterations, relaxed.factorizations)
                for lam, (report, relaxed) in zip(lambdas, sequential[1:])]
    assert rows == expected


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
    chord = graphs.ChordLU()
    _, base = graphs.limit_experiment(rep, (1.0, 2.0, 4.0, 8.0), nodes=81, chord=chord)
    graphs.coboundary_control(rep, base, 0.15, 6.4, 81, 3, 1e-8, chord)
    assert len(relaxed) == 6
    assert len(factors) == 1 and relaxed[0].factorizations == 1
    assert all(r.converged and r.residual <= 1e-8 for r in relaxed)
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
    assert calls == []


def test_limit_experiment_keeps_traced_calls_on_the_calling_thread(monkeypatch):
    # a span tracer keeps one stack for all threads, so every function it may
    # wrap must run on the caller's thread; only the envelope sums leave it
    threads: dict = {}

    def record(module, name):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    for name in ("graph_geometry", "cmc_relax", "quotient_energy", "orbit_envelope_field",
                 "_envelope_sum"):
        record(graphs, name)
    for name in ("orbit_isometries", "octagon_level"):
        record(holonomy, name)
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    graphs.limit_experiment(rep, (1.0, 2.0), nodes=41)
    main = threading.get_ident()
    summed_on = threads.pop("_envelope_sum")
    assert set().union(*threads.values()) == {main}
    assert set(threads) == {"graph_geometry", "cmc_relax", "quotient_energy",
                            "orbit_isometries", "octagon_level"}
    assert main not in summed_on


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

    def failing(*args):
        raise planted

    monkeypatch.setattr(graphs, "_envelope_sum", counted)
    monkeypatch.setattr(graphs, "_relax_and_integrate", failing)
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
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        graphs.limit_experiment(rep, (1.0, 2.0), nodes=41)
    assert threading.active_count() == before
