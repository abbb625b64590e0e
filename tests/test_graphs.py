"""Spacelike-graph geometry tests: stencils, quadrature, relaxation, envelopes."""

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


def test_spacelike_guard():
    steep = graphs.sample_height_field(lambda x, y: 1.2 * x, 1.0, 33)
    with pytest.raises(graphs.SpacelikeError):
        graphs.graph_geometry(steep)


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
    assert level[center] == pytest.approx(float(holonomy.octagon_level(np.zeros(2))))
    assert level[center] > 0


def test_cmc_relax_pullback():
    def bumped(x, y):
        r2 = x * x + y * y
        return np.sqrt(1.0 + r2) + 0.03 * np.exp(-2.0 * r2)

    start = graphs.sample_height_field(bumped, 1.5, 81)
    result = graphs.cmc_relax(start, -2.0, tol=1e-8, max_iters=30)
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


def test_newton_step_matches_spsolve():
    # the no-pivot symmetric-mode LU against the partial-pivoting oracle on the
    # first Newton system of the lambda = 1 limit-experiment relaxation
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    start = graphs.orbit_envelope_field(rep, 6.4, 81)
    jac = graphs._newton_system(start)
    rhs = graphs._newton_rhs(graphs.graph_geometry(start), -2.0)
    expected = scipy.sparse.linalg.spsolve(jac, rhs)
    step = graphs._newton_step(jac, rhs)
    assert np.max(np.abs(step - expected)) <= 1e-9 * np.max(np.abs(expected))


def _limit_start(nodes):
    # the lambda = 1 orbit envelope of the limit experiment, on a coarse grid
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    return graphs.orbit_envelope_field(rep, 6.4, nodes)


def test_cmc_relax_chord_steps_match_full_newton():
    # reusing the LU as chord steps saves factorizations but must land on the
    # field that plain full-step Newton reaches
    start = _limit_start(81)
    result = graphs.cmc_relax(start, -2.0, tol=1e-8, max_iters=graphs.LIMIT_MAX_ITERS)
    assert result.converged and result.residual <= 1e-8
    assert result.factorizations < result.iterations
    reference = start
    for _ in range(8):
        geom = graphs.graph_geometry(reference)
        step = graphs._newton_step(graphs._newton_system(reference),
                                   graphs._newton_rhs(geom, -2.0))
        reference = HeightField(reference.values + step.reshape(reference.shape),
                                reference.spacing, reference.origin)
    assert graphs._interior_residual(graphs.graph_geometry(reference), -2.0) <= 1e-8
    diff = np.max(np.abs(result.field.values - reference.values))
    assert diff <= 1e-9 * np.max(np.abs(reference.values))


def test_cmc_relax_takes_only_contracting_chord_steps(monkeypatch):
    # a chord step is taken only if it shrinks the residual tenfold; a weaker
    # one is refused and the Jacobian is factored afresh
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
    result = graphs.cmc_relax(start, -2.0, tol=1e-8, max_iters=graphs.LIMIT_MAX_ITERS)
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
    assert max(taken) <= 0.1


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
    result = graphs.cmc_relax(_limit_start(81), -2.0, tol=1e-8,
                              max_iters=graphs.LIMIT_MAX_ITERS)
    assert result.converged
    assert events.count("factor") == result.factorizations
    assert events.count("solve") > result.factorizations
    assert all(events[k - 1] == "release" for k, event in enumerate(events)
               if event != "release")


def test_newton_step_refuses_an_unstable_factorization():
    # diagonal pivots of 1e-20 grow the no-pivot factors by 1e20; the residual
    # check must raise rather than hand back a wrong step
    jac = scipy.sparse.csc_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]]))
    with pytest.raises(graphs.NewtonStepError, match="relative linear residual"):
        graphs._newton_step(jac, np.array([1.0, 1.0]))


def test_envelope_matches_stacked_reference():
    # the envelope builds each sheet twice instead of keeping them all; it must
    # equal, bit for bit, the soft minimum over the stacked sheets
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.05))
    env = graphs.orbit_envelope_field(rep, 3.0, 81)
    xs = -3.0 + env.spacing * np.arange(81)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    translations = [iso.translation for iso in holonomy.orbit_isometries(rep, 3)]
    sheets = np.stack([t[0] + np.sqrt(1.0 + (gx - t[1]) ** 2 + (gy - t[2]) ** 2)
                       for t in translations])
    assert np.unique(np.argmin(sheets, axis=0)).size > 1  # the cocycle separates the sheets
    hard_min = np.min(sheets, axis=0)
    expected = hard_min - 0.08 * np.log(np.sum(np.exp(-(sheets - hard_min) / 0.08), axis=0))
    assert np.array_equal(env.values, expected)


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
