import dataclasses
import math

import numpy as np
import pytest

from cmcflat import flow, models


def cone_state(n=3, tau=-2.0, volume=1.0):
    return flow.state_from_slice(models.slice_at_tau(models.ConeModel(n, volume), tau))


def kasner_state(tau=-2.0):
    return flow.state_from_slice(models.slice_at_tau(models.KasnerModel(3, 1.0, 1.0), tau))


def test_state_from_slice_reproduces_volume_and_trace():
    st = cone_state()
    assert abs(flow.volume_of(st) - 3.375) < 1e-14
    assert np.max(np.abs(st.trace_k - st.tau)) < 1e-14
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
    # a GridLapseProblem carries no CMC time or volume factor, so the evolution
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
    prob = flow.GridLapseProblem((2, 1), length / m, np.stack([a0, c]), kcov)
    assert np.max(np.abs(prob.k_norm2 - k2)) < 1e-13
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
        assert flow.flat_constraint_residual(st) < 1e-13


def test_tau_grid_modes():
    grid = flow.tau_grid(-10.0, -0.1, 100)
    # Python floats, with both ends the given times exactly
    assert len(grid) == 101 and all(type(t) is float for t in grid)
    assert (grid[0], grid[-1]) == (-10.0, -0.1)
    assert np.all(np.diff(grid) > 0)
    # log spacing: uniform steps in log|tau|
    ratios = np.array(grid[1:]) / np.array(grid[:-1])
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12
    assert flow.tau_grid(-2.0, -1.0, 0) == [-2.0]
    assert flow.tau_grid(-2.0, -2.0, 5) == [-2.0]
    with pytest.raises(ValueError):
        flow.tau_grid(-1.0, 1.0, 10)
    with pytest.raises(ValueError, match="nonnegative"):
        flow.tau_grid(-1.0, -0.5, -1)


def test_flow_step_keeps_mean_curvature_pinned():
    st = cone_state()
    stepped = flow.flow_step(st, 0.01)
    assert abs(stepped.tau - (st.tau + 0.01)) < 1e-15
    assert np.max(np.abs(stepped.trace_k - stepped.tau)) < 1e-11


def test_flow_step_halves_a_step_that_adds_drift():
    # on the n = 3 cone at tau = -10 a raw step of 0.5 adds ~2e-6 of drift;
    # the default tolerance retries it as nested half steps until the added
    # drift is below 1e-9
    st = cone_state(3, -10.0)
    raw = flow.flow_step(st, 0.5, drift_tol=np.inf)
    assert abs(raw.trace_k - raw.tau) > 1e-6
    repaired = flow.flow_step(st, 0.5)
    assert repaired.tau == -9.5
    assert abs(repaired.trace_k - repaired.tau) < 1e-9
    # eight nested halvings cannot bring a step of 8 under a 1e-12 tolerance
    with pytest.raises(RuntimeError, match="persists at minimal step size"):
        flow.flow_step(st, 8.0, drift_tol=1e-12)


# Reference RK4 on tuples, with the per-stage arithmetic of the FlowState-based
# stepper that the scalar kernel replaced; flow_step must match it bit for
# bit, halvings and signed zeros included.


def _ref_mixed(scales, kcov):
    return tuple(k / a for a, k in zip(scales, kcov))


def _ref_rhs(dims, scales, kcov):
    lapse = 1.0 / sum(d * (p * p) for d, p in zip(dims, _ref_mixed(scales, kcov)))
    return (tuple(-2.0 * lapse * k for k in kcov),
            tuple(-lapse * k * k / a for a, k in zip(scales, kcov)))


def _ref_advance(fields, h, rates):
    return tuple(tuple(x + h * r for x, r in zip(xs, rs)) for xs, rs in zip(fields, rates))


def _ref_trace(dims, fields):
    return sum(d * p for d, p in zip(dims, _ref_mixed(*fields)))


def _ref_step(dims, tau, fields, dtau, drift_tol=flow.DRIFT_TOL, depth=8):
    r1 = _ref_rhs(dims, *fields)
    r2 = _ref_rhs(dims, *_ref_advance(fields, 0.5 * dtau, r1))
    r3 = _ref_rhs(dims, *_ref_advance(fields, 0.5 * dtau, r2))
    r4 = _ref_rhs(dims, *_ref_advance(fields, dtau, r3))
    rates = tuple(tuple(q1 + 2.0 * q2 + 2.0 * q3 + q4 for q1, q2, q3, q4 in zip(*qs))
                  for qs in zip(r1, r2, r3, r4))
    new = _ref_advance(fields, dtau / 6.0, rates)
    drift_before = abs(_ref_trace(dims, fields) - tau)
    drift_after = abs(_ref_trace(dims, new) - (tau + dtau))
    if drift_after - drift_before > drift_tol:
        assert depth > 0
        mid_tau, mid = _ref_step(dims, tau, fields, 0.5 * dtau, drift_tol, depth - 1)
        return _ref_step(dims, mid_tau, mid, 0.5 * dtau, drift_tol, depth - 1)
    return tau + dtau, new


def moving_circle_state():
    """Kasner-shaped data off the model, at tau = -10 with tr K = tau: the
    circle has K != 0 and moves, where every model keeps it static.  Not
    vacuum data (its Gauss residual is 16), and most steps of 0.1..10 halve."""
    return flow.FlowState((2, 1), 1.17, -10.0, (0.04, 1.7), (-0.16, -3.4))


def _bits(*values):
    """The bit patterns of floats, so that 0.0 and -0.0 (equal under ==) differ."""
    return [x.hex() for x in values]


def _assert_matches_ref(st, tau, fields):
    assert _bits(st.tau, *st.scales, *st.kcov) == _bits(tau, *fields[0], *fields[1])


def test_flow_step_matches_the_reference_rk4_bit_for_bit():
    models_at = [models.ConeModel(n) for n in (2, 3, 4)] + [models.KasnerModel(n) for n in (3, 4)]
    starts = [flow.state_from_slice(models.slice_at_tau(m, -10.0)) for m in models_at]
    forward = flow.tau_grid(-10.0, -0.1, 200)
    for st in starts + [moving_circle_state()]:
        dims, tau, fields = st.dims, st.tau, (st.scales, st.kcov)
        for t0, t1 in zip(forward[:-1], forward[1:]):
            dtau = float(t1 - t0)
            st = flow.flow_step(st, dtau)
            tau, fields = _ref_step(dims, tau, fields, dtau)
            _assert_matches_ref(st, tau, fields)
    # backward steps (dtau < 0) on the Kasner product: the zero rates of the
    # static circle change sign with the step
    backward = flow.tau_grid(-0.5, -5.0, 100)
    for n in (3, 4):
        st = flow.state_from_slice(models.slice_at_tau(models.KasnerModel(n), -0.5))
        dims, tau, fields = st.dims, st.tau, (st.scales, st.kcov)
        for t0, t1 in zip(backward[:-1], backward[1:]):
            st = flow.flow_step(st, t1 - t0)
            tau, fields = _ref_step(dims, tau, fields, t1 - t0)
            _assert_matches_ref(st, tau, fields)
    # the halving case: a raw step of 0.5 on the n = 3 cone adds drift, and so
    # does a raw step of 1.0 on the Kasner product, which takes nested halvings
    kasner_at_5 = [flow.state_from_slice(models.slice_at_tau(models.KasnerModel(n), -5.0))
                   for n in (3, 4)]
    for st, dtau in ((cone_state(3, -10.0), 0.5), (kasner_at_5[0], 1.0), (kasner_at_5[1], 1.0)):
        raw = flow.flow_step(st, dtau, drift_tol=np.inf)
        assert abs(raw.trace_k - raw.tau) - abs(st.trace_k - st.tau) > flow.DRIFT_TOL
        repaired = flow.flow_step(st, dtau)
        ref = _ref_step(st.dims, st.tau, (st.scales, st.kcov), dtau)
        _assert_matches_ref(repaired, *ref)
    # a NaN scale in the circle is refused where the state is built, and a
    # NaN K value there makes |K|^2 NaN, which every path must refuse
    st = kasner_state()
    with pytest.raises(ValueError, match="finite and positive"):
        flow.FlowState(st.dims, st.volume_factor, st.tau, (st.scales[0], float("nan")), st.kcov)
    bad = flow.FlowState(st.dims, st.volume_factor, st.tau, st.scales, (st.kcov[0], float("nan")))
    for call in (lambda: flow.solve_lapse(bad), lambda: flow.flow_step(bad, 0.01),
                 lambda: flow.run_flow(bad, -1.0, 4)):
        with pytest.raises(flow.DegenerateLapseError, match=r"\|K\|\^2 > 1e-12, got nan"):
            call()


def test_run_flow_builds_no_flow_state_per_step(monkeypatch):
    # the kernel steps named floats and builds the rows from them; only the
    # state that flow_step returns is a FlowState
    built, post_init = [], flow.FlowState.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(flow.FlowState, "__post_init__", counting)
    for model in (models.ConeModel(3), models.KasnerModel(3)):
        st = flow.state_from_slice(models.slice_at_tau(model, -10.0))
        built.clear()
        trace = flow.run_flow(st, -0.1, 200)
        assert (len(trace), len(built)) == (201, 0)
        flow.flow_step(st, 0.01)
        assert len(built) == 1


# volumes other than 1, so that the volume factor takes part in the rounding
_FLOW_MODELS = ([models.ConeModel(n, 0.7) for n in (2, 3, 4)]
                + [models.KasnerModel(n, 1.3, 0.9) for n in (3, 4)])


@pytest.mark.parametrize("model", _FLOW_MODELS + [None],
                         ids=lambda m: f"{type(m).__name__}{m.dim}" if m else "MovingCircle")
def test_run_flow_rows_match_rows_rebuilt_from_each_state(model):
    # the trace row shares one volume density between the volume and
    # ∫ N|K̂|² dμ; it must be the row the public integrals give, bit for bit
    if model is None:
        st = moving_circle_state()
    else:
        st = flow.state_from_slice(models.slice_at_tau(model, -10.0))
    trace = flow.run_flow(st, -0.1, 200)
    grid = flow.tau_grid(-10.0, -0.1, 200)
    rows = []
    for i, t1 in enumerate(grid):
        if i:
            st = flow.flow_step(st, t1 - grid[i - 1])
        lapse = flow.solve_lapse(st)
        vol = flow.volume_of(st)
        rows.append((st.tau, vol, abs(st.tau) ** st.dim * vol,
                     flow.integrate_scalar(st, lapse * st.khat_norm2()),
                     flow.flat_constraint_residual(st), lapse, lapse))
    assert np.array(trace.data).tobytes() == np.array(rows).tobytes()


def test_flow_state_is_frozen_and_keeps_its_derived_values():
    st = kasner_state()
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.tau = -1.0
    mixed = tuple(k / a for a, k in zip(st.scales, st.kcov))
    assert st.mixed_k == mixed
    assert st.trace_k == sum(d * p for d, p in zip(st.dims, mixed))
    assert st.k_norm2 == sum(d * (p * p) for d, p in zip(st.dims, mixed))


def test_nan_scale_fails_the_lapse_and_the_step():
    # a NaN scale is refused where the state is built; a NaN K value makes
    # |K|^2 NaN, which no comparison with the degeneracy threshold may let
    # through, and the kernel's own lapse refuses a NaN |K|^2 too
    st = cone_state(3, -2.0)
    with pytest.raises(ValueError, match="finite and positive"):
        flow.FlowState(st.dims, st.volume_factor, st.tau, (float("nan"),), st.kcov)
    with pytest.raises(flow.DegenerateLapseError, match=r"\|K\|\^2 > 1e-12, got nan"):
        flow._homogeneous_lapse(float("nan"))
    bad = flow.FlowState(st.dims, st.volume_factor, st.tau, st.scales, (float("nan"),))
    with pytest.raises(flow.DegenerateLapseError, match=r"\|K\|\^2"):
        flow.solve_lapse(bad)
    with pytest.raises(flow.DegenerateLapseError, match=r"\|K\|\^2"):
        flow.flow_step(bad, 0.01)
    with pytest.raises(flow.DegenerateLapseError, match=r"\|K\|\^2"):
        flow.run_flow(bad, -1.0, 4)


def test_grid_lapse_failures_raise():
    # |K|^2 vanishing on the whole grid makes -Δ + |K|^2 singular
    m = 8
    still = flow.GridLapseProblem((2, 1), 1.0, np.ones((2, m)), np.zeros((2, m)))
    with pytest.raises(flow.DegenerateLapseError, match="singular"):
        flow.solve_lapse(still)
    # a steep ramp of the 2-D block's scale along the circle makes the
    # first-derivative coefficient outweigh the second, so the discrete
    # operator is no M-matrix; with |K|^2 at one node only, the lapse goes negative
    kcov = np.zeros((2, m))
    kcov[1, 0] = 1.0
    scales = np.stack([np.exp(np.arange(m, dtype=float)), np.ones(m)])
    steep = flow.GridLapseProblem((2, 1), 1.0, scales, kcov)
    with pytest.raises(flow.DegenerateLapseError, match="non-positive lapse"):
        flow.solve_lapse(steep)


def test_grid_lapse_refuses_nan_and_infinite_input():
    # a NaN circle length would give an all-NaN lapse, and an infinite one an
    # infinite spacing, whose Laplacian vanishes so that the lapse reads 1/|K|^2
    kasner = models.slice_at_tau(models.KasnerModel(3, 1.0, 1.0), -2.0)
    for length in (np.nan, np.inf):
        with pytest.raises(ValueError, match="circle_length"):
            flow.grid_state_from_slice(kasner, 16, length)
    # a NaN scale is refused where the problem is built, and a NaN K value
    # makes |K|^2 NaN at its node
    prob = flow.grid_state_from_slice(kasner, 16, 1.0)
    for block in (0, 1):
        scales, kcov = prob.scales.copy(), prob.kcov.copy()
        scales[block, 3] = kcov[block, 3] = np.nan
        with pytest.raises(ValueError, match="finite and positive"):
            dataclasses.replace(prob, scales=scales)
        with pytest.raises(flow.DegenerateLapseError, match="NaN"):
            flow.solve_lapse(dataclasses.replace(prob, kcov=kcov))
    # a NaN spacing is refused where the problem is built
    with pytest.raises(ValueError, match="spacing"):
        dataclasses.replace(prob, spacing=np.nan)


def test_step_to_a_non_positive_scale_raises():
    # a backward step of 1.8 from tau = -2 on the n = 3 cone overshoots the
    # apex: RK4 lands on a negative metric scale
    st = cone_state(3, -2.0)
    with pytest.raises(RuntimeError, match="non-positive or NaN"):
        flow.flow_step(st, -1.8, drift_tol=np.inf)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_step_through_a_zero_stage_scale_raises(n):
    # a backward step of 2 from tau = -2 puts RK4 stage 4 exactly on the
    # apex, scale 0, where the rates divide by the scale
    with pytest.raises(RuntimeError, match="scale became zero"):
        flow.flow_step(cone_state(n, -2.0), -2.0, drift_tol=np.inf)


def test_nan_times_and_volumes_are_rejected():
    for start, end in ((np.nan, -1.0), (-2.0, np.nan)):
        with pytest.raises(ValueError, match="negative"):
            flow.tau_grid(start, end, 4)
    slc = models.slice_at_tau(models.ConeModel(3), -2.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="volume_factor"):
            flow.state_from_slice(dataclasses.replace(slc, volume_factor=bad))


def test_cone_flow_keeps_rescaled_volume():
    tr = flow.run_flow(cone_state(3, -2.0), -0.5, 2000)
    drift = np.max(np.abs(tr.column("ham") / 27.0 - 1.0))
    assert drift < 1e-11
    assert np.max(tr.column("gauss_residual")) < 1e-12


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


def _loop_identity_mismatch(trace):
    # reference: the three-point derivative identity record by record
    tau, ham = trace.column("tau"), trace.column("ham")
    nk2, n = trace.column("n_khat2_integral"), trace.ndim
    worst = 0.0
    for i in range(1, len(tau) - 1):
        h1, h2 = tau[i] - tau[i - 1], tau[i + 1] - tau[i]
        deriv = (-h2 / (h1 * (h1 + h2)) * ham[i - 1] + (h2 - h1) / (h1 * h2) * ham[i]
                 + h1 / (h2 * (h1 + h2)) * ham[i + 1])
        rhs = -n * abs(tau[i]) ** (n - 1) * nk2[i]
        worst = max(worst, abs(deriv - rhs) / max(1.0, abs(deriv), abs(rhs)))
    return worst


def test_monotonicity_mismatch_matches_the_loop_reference():
    # the same arithmetic per record, so the vectorized maximum is bit-identical
    for ndim in (3, 4):
        model = models.KasnerModel(ndim, 1.0, 1.0)
        tr = flow.run_flow(flow.state_from_slice(models.slice_at_tau(model, -5.0)), -0.5, 300)
        for rows in (1, 2, 3, len(tr)):
            part = flow.HamTrace(tr.ndim, tr.data[:rows])
            report = flow.ham_monotonicity_check(part)
            assert report.max_identity_mismatch == _loop_identity_mismatch(part)


def _with_nan(trace, row, column):
    """A copy of ``trace`` with a NaN in one cell."""
    data = list(trace.data)
    cells = list(data[row])
    cells[flow.TRACE_COLUMNS.index(column)] = float("nan")
    data[row] = tuple(cells)
    return flow.HamTrace(trace.ndim, data)


def test_nan_in_the_trace_fails_the_monotonicity_check():
    # a NaN after finite mismatches must not be dropped by the running max
    tr = flow.run_flow(kasner_state(-2.0), -1.0, 20)
    assert flow.ham_monotonicity_check(tr).ok
    report = flow.ham_monotonicity_check(_with_nan(tr, 5, "n_khat2_integral"))
    assert not report.ok
    assert np.isnan(report.max_identity_mismatch)


@pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
def test_nan_in_the_first_or_last_row_fails_the_monotonicity_check(row):
    # the built-in max keeps a NaN in first place and drops it in last place;
    # the check must fail on a NaN Ham at either end of the trace
    tr = flow.run_flow(kasner_state(-2.0), -1.0, 20)
    report = flow.ham_monotonicity_check(_with_nan(tr, row, "ham"))
    assert not report.ok
    assert np.isnan(report.max_identity_mismatch)


def test_max_or_nan_keeps_a_nan_anywhere():
    nan = float("nan")
    for values in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, nan], (v for v in [3.0, nan])):
        assert math.isnan(flow.max_or_nan(values))
    assert flow.max_or_nan([1.0, 3.0, 2.0]) == 3.0
    # 0.0 is the floor: a clipped violation, and the value of no values
    assert flow.max_or_nan([-1.0, -2.0]) == 0.0
    assert flow.max_or_nan([]) == 0.0


def test_nan_scale_gives_a_nan_gauss_residual():
    # a NaN scale in either block is refused where the state is built; a NaN
    # K value in either block reaches every block's residual through tr K
    st = kasner_state()
    assert len(st.scales) == 2
    for scales in ((st.scales[0], float("nan")), (float("nan"), st.scales[1])):
        with pytest.raises(ValueError, match="finite and positive"):
            flow.FlowState(st.dims, st.volume_factor, st.tau, scales, st.kcov)
    for kcov in ((st.kcov[0], float("nan")), (float("nan"), st.kcov[1])):
        bad = flow.FlowState(st.dims, st.volume_factor, st.tau, st.scales, kcov)
        assert np.isnan(flow.flat_constraint_residual(bad))


def test_non_positive_and_infinite_scales_are_refused_where_the_state_is_built():
    # a negative scale would make volume_of complex, and the grid lapse
    # would solve with a negative scale at a node without complaint
    for bad in (-1.0, 0.0, -0.0, float("inf"), float("-inf")):
        for scales in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                flow.FlowState((3, 1), 1.0, -2.0, scales, (0.5, -0.5))
    kasner = models.slice_at_tau(models.KasnerModel(3, 1.0, 1.0), -2.0)
    prob = flow.grid_state_from_slice(kasner, 16, 1.0)
    for scale in (-1.0, 0.0, np.inf):
        for block in (0, 1):
            scales = prob.scales.copy()
            scales[block, 5] = scale
            with pytest.raises(ValueError, match="finite and positive at every node"):
                dataclasses.replace(prob, scales=scales)


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
    # rows of Python floats; column() gives one as a numpy array
    assert len(tr.data) == 51
    assert all(len(row) == len(flow.TRACE_COLUMNS) for row in tr.data)
    assert all(type(x) is float for row in tr.data for x in row)
    assert tr.column("tau")[0] == -1.0
    assert tr.column("ham").tolist() == tr.floats("ham") == [row[2] for row in tr.data]


def _grid_problem(dims=(2, 1), spacing=0.125, m=16, scales=None, kcov=None):
    # a hand-built lapse problem, homogeneous along the circle by default
    scales = np.ones((2, m)) if scales is None else scales
    kcov = np.full((2, m), -0.5) if kcov is None else kcov
    return flow.GridLapseProblem(dims, spacing, scales, kcov)


def _flow_state(dims, volume_factor=1.0):
    return flow.FlowState(dims, volume_factor, -2.0, (1.0,) * len(dims), (-0.5,) * len(dims))


def test_geometry_validation():
    # FlowState and GridLapseProblem apply one block rule
    for build in (_flow_state, _grid_problem):
        with pytest.raises(ValueError, match="one hyperbolic block"):
            build((1,))  # hyperbolic factor too thin
        with pytest.raises(ValueError, match="total spatial dimension"):
            build((4, 1))
    for volume_factor in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="volume_factor"):
            _flow_state((2, 1), volume_factor)
    kasner = models.slice_at_tau(models.KasnerModel(3, 1.0, 1.0), -2.0)
    # a state that drops the circle's fields would step the hyperbolic block alone
    st = flow.state_from_slice(kasner)
    for scales, kcov in ((st.scales[:1], st.kcov[:1]), (st.scales, st.kcov[:1]),
                         (st.scales * 2, st.kcov * 2)):
        with pytest.raises(ValueError, match="one entry per block"):
            flow.FlowState(st.dims, st.volume_factor, st.tau, scales, kcov)
    # a K eigenvalue without a scale is refused, not dropped
    extra = dataclasses.replace(kasner, k_eigenvalues=kasner.k_eigenvalues + (0.0,))
    with pytest.raises(ValueError, match="longer"):
        flow.state_from_slice(extra)
    with pytest.raises(ValueError, match="longer"):
        flow.grid_state_from_slice(extra, 16, 1.0)
    # the grid path reaches these through GridLapseProblem's own checks
    with pytest.raises(ValueError, match="m >= 8 grid points"):
        flow.grid_state_from_slice(kasner, 4, 1.0)
    with pytest.raises(ValueError, match="circle_length"):
        flow.grid_state_from_slice(kasner, 128, 0.0)
    with pytest.raises(ValueError, match="flat one-dimensional block"):
        # the cone slice has no flat one-dimensional block to carry the grid
        flow.grid_state_from_slice(models.slice_at_tau(models.ConeModel(3), -2.0), 128, 1.0)


@pytest.mark.parametrize("dims", [(1, 2), (2, 2), (3, 0), (2, 1, 1)],
                         ids=["flat-first", "flat-of-dim-2", "flat-of-dim-0", "three-blocks"])
def test_geometry_accepts_the_two_model_shapes_only(dims):
    # the kernel steps one hyperbolic block and one optional flat circle;
    # every other shape, of a valid total dimension, is refused up front,
    # by the homogeneous state and the grid problem alike
    for build in (_flow_state, _grid_problem):
        with pytest.raises(ValueError, match="one hyperbolic block, optionally followed by "
                                             "one flat block of dimension 1"):
            build(dims)


def test_hand_built_grid_lapse_problem_is_checked():
    # a grid problem checks its own fields: an infinite spacing would drop the
    # Laplacian and solve to 1/|K|^2, and dims (1, 2) would make the
    # two-dimensional block the circle
    prob = _grid_problem()
    assert flow.lapse_residual(prob, flow.solve_lapse(prob)) < 1e-12
    for spacing in (np.inf, np.nan, 0.0, -0.125):
        with pytest.raises(ValueError, match="spacing"):
            _grid_problem(spacing=spacing)
    for dims, message in (((1, 2), "one hyperbolic block"), ((2,), "flat one-dimensional block"),
                          ((2, 1, 1), "one hyperbolic block")):
        with pytest.raises(ValueError, match=message):
            _grid_problem(dims)
    for bad in (np.ones((1, 16)), np.ones((3, 16)), np.ones(16), np.ones((2, 15)),
                np.ones((2, 4, 4))):
        with pytest.raises(ValueError, match=r"shape \(2, m\)"):
            _grid_problem(scales=bad)
        with pytest.raises(ValueError, match=r"shape \(2, m\)"):
            _grid_problem(kcov=bad)
    with pytest.raises(ValueError, match="m >= 8 grid points"):
        _grid_problem(m=7)


def test_slice_with_the_circle_first_is_refused():
    # block order is the encoding: a slice whose circle comes first is no
    # model shape, on the homogeneous path and on the grid path alike
    circle_first = models.SliceData((1, 2), (1.0, 4.0), (0.0, -0.5), -1.0, 1.0)
    with pytest.raises(ValueError, match="one hyperbolic block"):
        flow.state_from_slice(circle_first)
    with pytest.raises(ValueError, match="one hyperbolic block"):
        flow.grid_state_from_slice(circle_first, 16, 1.0)
