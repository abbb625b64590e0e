import numpy as np
import pytest

from cmcflat import minkowski as mk


def test_metric_signature():
    for n in (2, 3, 4):
        eta = mk.minkowski_metric(n)
        assert eta.shape == (n + 1, n + 1)
        vals = np.diag(eta)
        assert vals[0] == -1.0
        assert np.all(vals[1:] == 1.0)
        assert np.all(eta == np.diag(vals))


def test_boost_and_rotation_are_lorentz():
    for n in (2, 3, 4):
        axis = np.zeros(n)
        axis[0] = 1.0
        b = mk.make_boost(axis, 0.8)
        assert b.shape == (n + 1, n + 1)
        assert mk.lorentz_defect(b) < 1e-12
        assert b[0, 0] > 0  # orthochronous
    r = mk.make_rotation(2, 0, 1, np.pi / 3)
    assert mk.lorentz_defect(r) < 1e-12
    # rotation fixes the time axis
    e0 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(r @ e0, e0)


def test_boost_moves_time_axis_by_rapidity():
    b = mk.make_boost(np.array([1.0, 0.0]), 1.25)
    e0 = np.array([1.0, 0.0, 0.0])
    out = b @ e0
    assert np.allclose(out, [np.cosh(1.25), np.sinh(1.25), 0.0])


def test_boost_composition_adds_rapidity():
    d = np.array([0.0, 1.0, 0.0])
    assert np.allclose(mk.make_boost(d, 0.4) @ mk.make_boost(d, 0.9),
                       mk.make_boost(d, 1.3))


def test_isometry_compose_inverse_roundtrip():
    rng = np.random.default_rng(3)
    n = 3
    iso = mk.MinkIsometry(mk.make_boost(rng.normal(size=n), 0.9), rng.normal(size=n + 1))
    other = mk.MinkIsometry(mk.make_boost(rng.normal(size=n), 0.4), rng.normal(size=n + 1))
    x = rng.normal(size=n + 1)
    assert np.allclose(iso.compose(other).apply(x), iso.apply(other.apply(x)))
    ident = mk.MinkIsometry.identity(n)
    assert np.allclose(ident.apply(x), x)


def test_hyperboloid_lift_is_unit_timelike():
    rng = np.random.default_rng(11)
    u = rng.uniform(-2.0, 2.0, size=(40, 3))
    p = mk.hyperboloid_lift(u)
    norms = np.einsum("ij,jk,ik->i", p, mk.minkowski_metric(3), p)
    assert np.max(np.abs(norms + 1.0)) < 1e-12
    assert np.all(p[:, 0] >= 1.0)


def test_degenerate_boost_direction_rejected():
    with pytest.raises(ValueError):
        mk.make_boost(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        mk.make_rotation(2, 1, 1, 0.5)
    with pytest.raises(ValueError, match="out of range"):
        mk.make_rotation(2, 0, 2, 0.5)
    assert mk.lorentz_defect(np.diag([1.0, 2.0, 1.0])) > 1e-12
