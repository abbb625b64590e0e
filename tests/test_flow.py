import numpy as np
import pytest

from cmcflat import flow, models


def cone_state(n=3, tau=-2.0, volume=1.0):
    return flow.state_from_slice(models.slice_at_tau(models.ConeModel(n, volume), tau))


def kasner_state(tau=-2.0):
    return flow.state_from_slice(models.slice_at_tau(models.KasnerModel(3, 1.0, 1.0), tau))


def test_state_from_slice_reproduces_volume_and_trace():
    st = cone_state()
    assert abs(flow.volume_of(st.geometry, st.scales) - 3.375) < 1e-14
    assert np.max(np.abs(st.trace_k() - st.tau)) < 1e-14
    # umbilic slice: no trace-free part
    assert np.max(np.abs(st.khat_norm2())) < 1e-28


def test_homogeneous_lapse_closed_forms():
    # N = 1/|K|^2 pointwise: cone saturates the upper bound n/tau^2,
    # the product model sits at (n-1)/tau^2
    st = cone_state()
    lapse = flow.solve_lapse(st)
    assert np.max(np.abs(lapse - 0.75)) == 0.0
    assert flow.lapse_residual(st, lapse) < 1e-14
    stk = kasner_state()
    assert np.max(np.abs(flow.solve_lapse(stk) - 0.5)) == 0.0


def test_grid_lapse_residual_and_constancy():
    slc = models.slice_at_tau(models.KasnerModel(3, 1.0, 1.0), -2.0)
    st = flow.grid_state_from_slice(slc, 128, 1.0)
    lapse = flow.solve_lapse(st)
    assert flow.lapse_residual(st, lapse) < 1e-10
    # homogeneous data on the grid must stay homogeneous
    assert np.max(np.abs(lapse - 0.5)) < 1e-12


def test_grid_state_serves_the_lapse_solve_only():
    # a GridLapseProblem carries no geometry or CMC time, so the evolution
    # and the constraint residuals fail on it instead of returning it
    slc = models.slice_at_tau(models.KasnerModel(3, 1.0, 1.0), -2.0)
    prob = flow.grid_state_from_slice(slc, 128, 1.0)
    for dtau in (0.01, 0.0):
        with pytest.raises(AttributeError):
            flow.flow_step(prob, dtau)
    with pytest.raises(AttributeError):
        flow.run_flow(prob, -1.0, 4)
    with pytest.raises(AttributeError):
        flow.flat_constraint_residual(prob)
    lapse = flow.solve_lapse(prob)
    assert flow.lapse_residual(prob, lapse) < 1e-10


def _manufactured_lapse_error(m, length=2.0 * np.pi):
    # hyperbolic block of dim 2 (scale A0) times the flat circle (scale c);
    # N is prescribed and |K|^2 = (1 + ΔN)/N makes it the exact solution
    w = 2.0 * np.pi / length
    r = np.arange(m) * (length / m)
    a0, da0 = 1.0 + 0.3 * np.sin(w * r), 0.3 * w * np.cos(w * r)
    c, dc = 1.5 + 0.4 * np.cos(w * r), -0.4 * w * np.sin(w * r)
    lapse = 0.5 + 0.02 * np.sin(2.0 * w * r)
    dn = 0.04 * w * np.cos(2.0 * w * r)
    d2n = -0.08 * w * w * np.sin(2.0 * w * r)
    lap = d2n / c + (dn / c) * (-dc / (2.0 * c) + 2.0 * da0 / (2.0 * a0))
    k2 = (1.0 + lap) / lapse
    assert np.min(k2) > 0.0
    kcov = np.stack([a0 * np.sqrt(k2 / 2.0), np.zeros(m)])
    prob = flow.GridLapseProblem((2, 1), 1, length / m, np.stack([a0, c]), kcov)
    assert np.max(np.abs(prob.k_norm2() - k2)) < 1e-13
    return float(np.max(np.abs(flow.solve_lapse(prob) - lapse)))


def test_grid_lapse_converges_to_manufactured_solution():
    errors = [_manufactured_lapse_error(m) for m in (32, 64, 128, 256)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.2), orders


def test_lapse_identity_on_model_slices():
    lhs, rhs = flow.lapse_identity_check(kasner_state())
    assert abs(lhs - rhs) < 1e-12
    lhs, rhs = flow.lapse_identity_check(cone_state())
    assert abs(lhs - rhs) < 1e-12


def test_constraints_vanish_on_model_slices():
    for st in (cone_state(2), cone_state(3), cone_state(4), kasner_state()):
        gauss, codazzi = flow.flat_constraint_residual(st)
        assert gauss < 1e-13
        assert codazzi < 1e-13


def test_tau_grid_modes():
    grid = flow.tau_grid(-10.0, -0.1, 100)
    assert grid[0] == -10.0
    assert abs(grid[-1] + 0.1) < 1e-14
    assert np.all(np.diff(grid) > 0)
    # log spacing: uniform steps in log|tau|
    ratios = grid[1:] / grid[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12
    with pytest.raises(ValueError):
        flow.tau_grid(-1.0, 1.0, 10)


def test_flow_step_keeps_mean_curvature_pinned():
    st = cone_state()
    stepped = flow.flow_step(st, 0.01)
    assert abs(stepped.tau - (st.tau + 0.01)) < 1e-15
    assert np.max(np.abs(stepped.trace_k() - stepped.tau)) < 1e-11


def test_flow_step_halves_a_step_that_adds_drift():
    # on the n = 3 cone at tau = -10 a raw step of 0.5 adds ~2e-6 of drift;
    # the default tolerance retries it as nested half steps until the added
    # drift is below 1e-9
    st = cone_state(3, -10.0)
    raw = flow.flow_step(st, 0.5, drift_tol=np.inf)
    assert abs(raw.trace_k() - raw.tau) > 1e-6
    repaired = flow.flow_step(st, 0.5)
    assert repaired.tau == -9.5
    assert abs(repaired.trace_k() - repaired.tau) < 1e-9
    # eight nested halvings cannot bring a step of 8 under a 1e-12 tolerance
    with pytest.raises(RuntimeError, match="persists at minimal step size"):
        flow.flow_step(st, 8.0, drift_tol=1e-12)


def test_cone_flow_keeps_rescaled_volume():
    tr = flow.run_flow(cone_state(3, -2.0), -0.5, 2000)
    drift = np.max(np.abs(tr.column("ham") / 27.0 - 1.0))
    assert drift < 1e-11
    assert np.max(tr.column("gauss_residual")) < 1e-12
    assert np.max(tr.column("codazzi_residual")) < 1e-12


def test_kasner_flow_matches_closed_form():
    model = models.KasnerModel(3, 1.0, 1.0)
    st = flow.state_from_slice(models.slice_at_tau(model, -5.0))
    tr = flow.run_flow(st, -0.5, 1000)
    closed = np.array([models.ham_closed_form(model, t) for t in tr.column("tau")])
    assert np.max(np.abs(tr.column("ham") / closed - 1.0)) < 5e-9
    report = flow.ham_monotonicity_check(tr)
    assert report.ok
    assert report.n_increases == 0
    assert report.max_identity_mismatch < 1e-8


def test_lapse_bounds_hold_along_flow():
    tr = flow.run_flow(kasner_state(-6.0), -0.3, 500)
    tau = tr.column("tau")
    assert np.all(tr.column("lapse_min") >= 1.0 / tau**2 - 1e-13)
    assert np.all(tr.column("lapse_max") <= 3.0 / tau**2 + 1e-13)


def test_gauss_residual_richardson_ratio():
    # raw RK4 order: disable the drift re-stepping so halving the step
    # divides the constraint error by ~16
    def worst(steps):
        st = kasner_state(-10.0)
        tr = flow.run_flow(st, -0.1, steps, drift_tol=np.inf)
        return float(np.max(tr.column("gauss_residual")))

    ratio = worst(200) / worst(400)
    assert 12.0 < ratio < 20.0


def test_trace_columns_and_lengths():
    # N steps integrate over N intervals and record N+1 grid rows
    tr = flow.run_flow(cone_state(2, -1.0), -0.5, 50)
    assert len(tr) == 51
    assert tr.data.shape == (51, len(flow.TRACE_COLUMNS))
    assert tr.column("tau")[0] == -1.0


def test_geometry_validation():
    with pytest.raises(ValueError):
        flow.BlockGeometry((1,), ("hyperbolic",), 1.0)  # hyperbolic factor too thin
    with pytest.raises(ValueError):
        flow.BlockGeometry((3, 2), ("hyperbolic", "hyperbolic"), 1.0)  # total dim 5
    kasner = models.slice_at_tau(models.KasnerModel(3, 1.0, 1.0), -2.0)
    with pytest.raises(ValueError, match="8 points"):
        flow.grid_state_from_slice(kasner, 4, 1.0)
    with pytest.raises(ValueError, match="circle_length"):
        flow.grid_state_from_slice(kasner, 128, 0.0)
    with pytest.raises(ValueError, match="flat one-dimensional block"):
        # the cone slice has no flat one-dimensional block to carry the grid
        flow.grid_state_from_slice(models.slice_at_tau(models.ConeModel(3), -2.0), 128, 1.0)
