"""Conformal-method tests: homogeneous roots, barriers and the rescaled-volume bound."""

import numpy as np
import pytest

from cmcflat import lichnerowicz as lich
from cmcflat.lichnerowicz import ConformalBackground, TTData


def test_reference_factor_closed_form():
    # (n^2/tau^2)^((n-2)/4): picked so the sigma=0 equation is satisfied exactly
    assert lich.reference_factor(3, -3.0) == 1.0
    assert lich.reference_factor(4, -2.0) == 2.0
    assert abs(lich.reference_factor(3, -2.0) - (9.0 / 4.0) ** 0.25) < 1e-15


def test_sigma_zero_solutions_are_exact():
    for n, tau in [(3, -3.0), (3, -1.7), (4, -2.0), (4, -4.2)]:
        bg = ConformalBackground(n)
        sol = lich.solve_lichnerowicz(bg, TTData(0.0), tau)
        ref = lich.reference_factor(n, tau)
        assert abs(float(sol.u) - ref) <= 1e-12 * ref
        assert sol.residual_norm <= 1e-12


def test_homogeneous_oracle_n3():
    # n=3, tau=-3, |sigma|^2=12: constant solutions satisfy
    #   -6u + 6u^5 - 12u^-7 = 0  <=>  v^3 - v^2 - 2 = 0 with v = u^4,
    # so the root is known independently of the Newton solver.
    roots = np.roots([1.0, -1.0, 0.0, -2.0])
    v = float(np.real(roots[np.isreal(roots)][0]))
    u_oracle = v**0.25
    assert abs(u_oracle - 1.1411222721155854) < 1e-14

    bg = ConformalBackground(3)
    sol = lich.solve_lichnerowicz(bg, TTData(12.0), -3.0)
    assert abs(float(sol.u) - u_oracle) < 1e-12


def test_newton_history_decreases():
    bg = ConformalBackground(4)
    sol = lich.solve_lichnerowicz(bg, TTData(30.0), -1.5)
    hist = np.asarray(sol.residual_history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) < 0)
    assert hist[-1] == sol.residual_norm


def _newton_step(u, n, s2, tau):
    # the Newton step of the constant-u equation, from its derivative in closed form
    b, p, m = lich._exponents(n)
    res = lich.lichnerowicz_residual(u, ConformalBackground(n), TTData(s2), tau)
    return -res / (-n * (n - 1) + b * tau * tau * p * u ** (p - 1) + m * s2 * u ** (-m - 1))


def test_plain_newton_converges_over_a_wide_grid():
    # 2 x 46 x 31 = 2,852 cases; |sigma|^2 up to 1e12 puts the root far above
    # the seed, where an absolute residual of 1e-12 is below rounding, so the
    # solve ends on a step of at most 4 eps u instead
    eps = np.finfo(float).eps
    sigmas = [0.0] + np.geomspace(1e-10, 1e12, 45).tolist()
    taus = (-np.geomspace(1e-3, 1e3, 31)).tolist()
    for n in (3, 4):
        bg = ConformalBackground(n)
        for tau in taus:
            ref = lich.reference_factor(n, tau)
            for s2 in sigmas:
                sol = lich.solve_lichnerowicz(bg, TTData(s2), tau)
                assert sol.u >= ref, (n, tau, s2)
                assert len(sol.residual_history) <= lich.MAX_NEWTON_ITERATIONS + 1
                assert sol.residual_history[-1] == sol.residual_norm
                assert (sol.residual_norm <= lich.TOL_HOMOGENEOUS
                        or abs(_newton_step(sol.u, n, s2, tau)) <= 4.0 * eps * sol.u), (n, tau, s2)


def test_large_sigma_ends_on_the_step_rule():
    # at |sigma|^2 = 1e6, tau = -4 the residual near the root rounds to a few
    # 1e-12, above the absolute tolerance; the solve stops on the step rule
    # with u the root to rounding, where the sweep used to fail
    sol = lich.solve_lichnerowicz(ConformalBackground(3), TTData(1e6), -4.0)
    assert sol.residual_norm > lich.TOL_HOMOGENEOUS
    assert abs(_newton_step(sol.u, 3, 1e6, -4.0)) <= 4.0 * np.finfo(float).eps * sol.u
    # F changes sign within 1e-14 of u, relative
    lo, hi = (lich.lichnerowicz_residual(sol.u * f, ConformalBackground(3), TTData(1e6), -4.0)
              for f in (1.0 - 1e-14, 1.0 + 1e-14))
    assert lo < 0.0 < hi


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(lich, "MAX_NEWTON_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 iterations"):
        lich.solve_lichnerowicz(ConformalBackground(3), TTData(12.0), -3.0)


def test_barrier_and_volume_bound():
    # the sigma=0 constant is a lower barrier, and the rescaled volume is
    # bounded below by n^n * Vol for every (tau, sigma) pair
    for n in (3, 4):
        bg = ConformalBackground(n, volume=1.3)
        floor = n**n * bg.volume
        for tau in (-0.8, -2.0, -5.0):
            for s2 in (0.0, 1.0, 8.0):
                sol = lich.solve_lichnerowicz(bg, TTData(s2), tau)
                ref = lich.reference_factor(n, tau)
                assert float(sol.u) >= ref * (1.0 - 1e-12)
                ham = lich.conformal_ham(sol, bg)
                assert ham >= floor * (1.0 - 1e-12)


def test_conformal_ham_sigma_zero_is_floor():
    # u = (n^2/tau^2)^((n-2)/4) makes |tau|^n * u^(2n/(n-2)) * V = n^n V
    for n, vol in [(3, 1.0), (3, 2.5), (4, 0.7)]:
        bg = ConformalBackground(n, volume=vol)
        sol = lich.solve_lichnerowicz(bg, TTData(0.0), -1.9)
        assert abs(lich.conformal_ham(sol, bg) - n**n * vol) <= 1e-12 * n**n * vol


def test_integrate_normalization():
    bg = ConformalBackground(3, volume=2.0)
    assert lich.integrate(bg, 1.0) == 2.0
    assert lich.integrate(bg, 7.5) == 15.0


def test_sweep_rows_and_columns():
    bg = ConformalBackground(3, volume=1.0)
    rows = lich.sweep_constant_sigma(bg, (-1.0, -2.0), (0.0, 4.0))
    assert len(rows) == 4
    assert len(rows[0]) == len(lich.SWEEP_COLUMNS)
    for tau, s2, u_min, u_max, ham, bound in rows:
        assert bound == 27.0
        assert ham >= bound * (1.0 - 1e-12)
        assert u_min == u_max  # homogeneous background
        if s2 == 0.0:
            assert abs(u_min - lich.reference_factor(3, tau)) <= 1e-12 * u_min


def test_nan_volume_is_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="volume"):
            ConformalBackground(3, volume=bad)


def test_input_validation():
    with pytest.raises(ValueError):
        ConformalBackground(2)
    with pytest.raises(ValueError):
        ConformalBackground(5)
    with pytest.raises(ValueError):
        ConformalBackground(3, volume=0.0)
    for bad in (-1.0, np.nan, np.inf, np.ones(8)):
        with pytest.raises(ValueError):
            TTData(bad)
    assert type(TTData(np.float64(2.0)).sigma_sq) is float
    bg = ConformalBackground(3)
    for u, tau in ((1.0, 2.0), (1.0, np.nan), (-1.0, -2.0), (np.nan, -2.0)):
        with pytest.raises(ValueError):  # tau must be < 0, u must be > 0
            lich.lichnerowicz_residual(u, bg, TTData(0.0), tau)
