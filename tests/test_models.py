import numpy as np
import pytest

from cmcflat import flow, models


def _rescaled_volume(slc):
    # |tau|^n Vol of a slice, through the flow state it starts
    state = flow.state_from_slice(slc)
    return abs(state.tau) ** state.geometry.dim * flow.volume_of(state.geometry, state.scales)


def test_cone_slice_trace_and_rescaled_volume():
    # the cone slice at rho = s has tau = -n/s and |tau|^n Vol = n^n V exactly
    for n, expect in ((2, 4.0), (3, 27.0), (4, 256.0)):
        model = models.ConeModel(n, 1.0)
        for s in (0.3, 1.0, 5.0):
            slc = models.cone_slice(model, s)
            assert slc.tau == -n / s
            assert abs(_rescaled_volume(slc) - expect) < 1e-12 * expect
            assert slc.dims == (n,)
            (k_eigenvalue,) = slc.k_eigenvalues
            assert abs(k_eigenvalue - slc.tau / n) < 1e-15


def test_cone_rescaled_volume_scales_with_base_volume():
    slc = models.slice_at_tau(models.ConeModel(3, 2.5), -1.7)
    assert abs(_rescaled_volume(slc) - 27.0 * 2.5) < 1e-12 * 67.5


def test_kasner_slice_structure():
    model = models.KasnerModel(3, 1.0, 1.0)
    slc = models.slice_at_tau(model, -2.0)
    # the hyperbolic block first, then the circle
    assert slc.dims == (2, 1)
    hyp_k, circle_k = slc.k_eigenvalues
    # the flat direction does not expand: its k eigenvalue vanishes
    assert circle_k == 0.0
    assert abs(hyp_k - slc.tau / 2.0) < 1e-15


def test_kasner_closed_form_frozen_value():
    # (n-1)^(n-1) |tau| V R with n=3, tau=-2, V=R=1 gives 8
    model = models.KasnerModel(3, 1.0, 1.0)
    assert abs(models.ham_closed_form(model, -2.0) - 8.0) < 1e-14
    slc = models.slice_at_tau(model, -2.0)
    assert abs(_rescaled_volume(slc) - 8.0) < 1e-13


def test_ham_closed_form_matches_slices_along_tau():
    cone = models.ConeModel(4, 0.7)
    kasner = models.KasnerModel(4, 1.3, 2.0)
    for tau in (-10.0, -3.0, -0.25):
        for model in (cone, kasner):
            slc = models.slice_at_tau(model, tau)
            closed = models.ham_closed_form(model, tau)
            assert abs(_rescaled_volume(slc) - closed) < 1e-12 * abs(closed)


def test_slice_rejects_nonnegative_tau():
    with pytest.raises(ValueError):
        models.slice_at_tau(models.ConeModel(3, 1.0), 0.5)
    with pytest.raises(ValueError):
        models.cone_slice(models.ConeModel(3, 1.0), -1.0)


def test_unknown_models_are_refused():
    for fn in (models.slice_at_tau, models.ham_closed_form):
        with pytest.raises(TypeError, match="unsupported model object"):
            fn(object(), -1.0)


def test_model_dimension_bounds():
    with pytest.raises(ValueError):
        models.ConeModel(1, 1.0)
    with pytest.raises(ValueError):
        models.ConeModel(5, 1.0)
    with pytest.raises(ValueError):
        models.KasnerModel(2, 1.0, 1.0)  # needs a hyperbolic factor of dim >= 2


def test_nan_inputs_are_rejected():
    nan, inf = float("nan"), float("inf")
    for build in (lambda: models.ConeModel(3, nan),
                  lambda: models.ConeModel(3, inf),
                  lambda: models.KasnerModel(3, nan, 1.0),
                  lambda: models.KasnerModel(3, inf, 1.0),
                  lambda: models.KasnerModel(3, 1.0, nan),
                  lambda: models.KasnerModel(3, 1.0, inf),
                  lambda: models.slice_at_tau(models.ConeModel(3), nan),
                  lambda: models.cone_slice(models.ConeModel(3), nan),
                  lambda: models.kasner_slice(models.KasnerModel(3), nan),
                  lambda: models.ham_closed_form(models.KasnerModel(3), nan)):
        with pytest.raises(ValueError):
            build()


def test_riccati_closed_form_on_diagonal_oracle():
    # kappa -> kappa / (1 - t kappa): by hand for diag(-1, -2) at t = 0.5
    k0 = np.diag([-1.0, -2.0])
    out = models.riccati_propagate(k0, 0.5)
    assert np.max(np.abs(out - np.diag([-1.0 / 1.5, -1.0]))) < 1e-15


def test_riccati_semigroup_property():
    rng = np.random.default_rng(17)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        k0 = -(a @ a.T) - 0.05 * np.eye(n)
        s, t = 0.7, 0.9
        two = models.riccati_propagate(models.riccati_propagate(k0, s), t)
        one = models.riccati_propagate(k0, s + t)
        assert np.max(np.abs(two - one)) < 1e-10


def test_riccati_focal_crossing_raises():
    k0 = np.diag([0.5, -1.0])
    foc = models.focal_times(k0)
    assert np.allclose(foc, [-1.0, 2.0])
    models.riccati_propagate(k0, 1.9)  # inside the window
    with pytest.raises(ValueError):
        models.riccati_propagate(k0, 2.0)
    with pytest.raises(ValueError):
        models.riccati_propagate(k0, 2.5)
    with pytest.raises(ValueError, match="steps"):
        models.riccati_integrate(k0, 1.0, steps=0)


def test_riccati_numeric_integration_matches_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(4):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        k0 = -(a @ a.T) - 0.1 * np.eye(n)
        t = float(rng.uniform(0.5, 2.0))
        num = models.riccati_integrate(k0, t, steps=1500)
        exact = models.riccati_propagate(k0, t)
        assert np.max(np.abs(num - exact)) < 1e-10


def test_riccati_integrate_converges_at_fourth_order():
    k0 = np.diag([-1.0, -3.0])
    exact = models.riccati_propagate(k0, 1.0)
    e_coarse = np.max(np.abs(models.riccati_integrate(k0, 1.0, steps=8) - exact))
    e_fine = np.max(np.abs(models.riccati_integrate(k0, 1.0, steps=16) - exact))
    assert 10.0 < e_coarse / e_fine < 24.0


def test_riccati_integrate_stacks_times_bit_for_bit():
    # one loop over stacked times, and over stacked trials and times, must
    # reproduce each single-matrix, scalar-time call exactly
    rng = np.random.default_rng(5)
    times = (0.3, 0.9, 1.5)
    for d in (2, 3, 4):
        k0s = []
        for _ in range(3):
            a = rng.normal(size=(d, d))
            k0s.append(-(a @ a.T) - 0.1 * np.eye(d))
        stacked = models.riccati_integrate(k0s[0], times, steps=400)
        assert stacked.shape == (3, d, d)
        trials = models.riccati_integrate(np.stack(k0s)[:, None], times, steps=400)
        assert trials.shape == (3, 3, d, d)
        assert np.array_equal(trials[0], stacked)
        for k0, per_time in zip(k0s, trials):
            for t, numeric in zip(times, per_time):
                single = models.riccati_integrate(k0, t, steps=400)
                assert single.shape == (d, d)
                assert np.array_equal(numeric, single)


def test_riccati_trials_match_one_call_per_trial():
    # the stacked trials give the rows of one riccati_integrate call per
    # trial and time, bit for bit, in trial order
    times = (0.3, 0.9, 1.5)
    rows, k0s = models.riccati_trials(2024, 5, times, 300)
    assert [row[:3] for row in rows] == [(i, 2 + i % 3, t) for i in range(5) for t in times]
    for (_, _, t, integration_err, _), k0 in zip(rows, [k for k in k0s for _ in times]):
        exact = models.riccati_propagate(k0, t)
        numeric = models.riccati_integrate(k0, t, steps=300)
        assert integration_err == float(np.max(np.abs(numeric - exact)))


def test_focal_times_ignore_zero_eigenvalues():
    k0 = np.diag([0.0, -2.0])
    foc = models.focal_times(k0)
    assert foc.shape == (1,)
    assert abs(foc[0] + 0.5) < 1e-14
