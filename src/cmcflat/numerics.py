"""Shared kernels on a uniform periodic 1-D grid.

The second difference and the periodic tridiagonal solve serve both the
grid lapse problem of ``flow`` and the conformal equation of ``lichnerowicz``.
The banded solve imports scipy.linalg only when it is called, so the
homogeneous scenarios, which never reach a grid, do not load scipy.
"""

from __future__ import annotations

import numpy as np


def periodic_second_difference(f: np.ndarray, h: float) -> np.ndarray:
    """(f[j+1] - 2 f[j] + f[j-1]) / h², indices mod the grid size."""
    return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / (h * h)


def solve_periodic_tridiag(lower, main, upper, rhs):
    """Solve a periodic tridiagonal system by rank-one correction.

    ``lower[j]`` couples row j to j-1, ``upper[j]`` to j+1 (indices mod m);
    the two corner entries are folded into a Sherman-Morrison update of a
    plain banded solve.
    """
    from scipy.linalg import solve_banded

    m = main.size
    corner_ul = lower[0]  # entry (0, m-1)
    corner_lr = upper[-1]  # entry (m-1, 0)
    gamma = -main[0]
    main_adj = main.copy()
    main_adj[0] -= gamma
    main_adj[-1] -= corner_ul * corner_lr / gamma
    ab = np.zeros((3, m))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = main_adj
    ab[2, :-1] = lower[1:]
    u = np.zeros(m)
    u[0] = gamma
    u[-1] = corner_lr
    v = np.zeros(m)
    v[0] = 1.0
    v[-1] = corner_ul / gamma
    y = solve_banded((1, 1), ab, rhs)
    q = solve_banded((1, 1), ab, u)
    return y - q * (np.dot(v, y) / (1.0 + np.dot(v, q)))
