"""Minkowski space primitives: metric, Lorentz maps, affine isometries.

Conventions
-----------
* signature (-, +, ..., +); ``eta = diag(-1, 1, ..., 1)``
* vectors are numpy arrays of length n+1; index 0 is the time coordinate
* a Lorentz map is an (n+1)x(n+1) matrix A with ``A^T eta A = eta``
* an affine isometry acts as ``x -> A x + t``;  composition therefore obeys
  the translation rule ``t_{fg} = t_f + A_f t_g``

The unit hyperboloid ``H^n = { x : <x,x> = -1, x_0 > 0 }`` is the model of
hyperbolic n-space used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def minkowski_metric(ndim: int) -> np.ndarray:
    """diag(-1, 1, ..., 1) acting on ndim spatial + 1 time coordinates."""
    eta = np.eye(ndim + 1)
    eta[0, 0] = -1.0
    return eta


def lorentz_defect(a: np.ndarray) -> float:
    """max-norm of A^T eta A - eta; zero exactly on the Lorentz group."""
    a = np.asarray(a, dtype=float)
    eta = minkowski_metric(a.shape[0] - 1)
    return float(np.max(np.abs(a.T @ eta @ a - eta)))


def make_boost(direction, rapidity: float) -> np.ndarray:
    """Lorentz boost with the given rapidity along a spatial direction.

    ``direction`` is a spatial n-vector (normalized internally); the boost
    acts in the plane spanned by the time axis and the direction, and fixes
    the orthogonal spatial complement.  Rapidity equals hyperbolic distance
    translated along the corresponding geodesic of H^n.  cosh and sinh are
    libm's, from ``math``, so the boost does not change with numpy's SIMD
    dispatch.
    """
    d = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(d)
    if nrm == 0.0:
        raise ValueError("boost direction must be a nonzero spatial vector")
    d = d / nrm
    n = d.size
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    a = np.eye(n + 1)
    a[0, 0] = ch
    a[0, 1:] = sh * d
    a[1:, 0] = sh * d
    a[1:, 1:] += (ch - 1.0) * np.outer(d, d)
    return a


def make_rotation(ndim: int, axis1: int, axis2: int, angle: float) -> np.ndarray:
    """Spatial rotation by ``angle`` in the plane of two spatial axes.

    Axes are indices into the spatial part (0-based, so axis 0 is the first
    spatial coordinate).  The time axis is fixed.  cos and sin are libm's,
    from ``math``, as in make_boost.
    """
    if axis1 == axis2:
        raise ValueError("rotation plane needs two distinct spatial axes")
    if not (0 <= axis1 < ndim and 0 <= axis2 < ndim):
        raise ValueError("rotation axes out of range")
    i, j = axis1 + 1, axis2 + 1
    c, s = math.cos(angle), math.sin(angle)
    a = np.eye(ndim + 1)
    a[i, i] = c
    a[j, j] = c
    a[i, j] = -s
    a[j, i] = s
    return a


@dataclass(frozen=True, eq=False)
class MinkIsometry:
    """Affine isometry x -> linear @ x + translation with Lorentz linear part."""

    linear: np.ndarray
    translation: np.ndarray

    def apply(self, x) -> np.ndarray:
        return self.linear @ np.asarray(x, dtype=float) + self.translation

    def compose(self, other: "MinkIsometry") -> "MinkIsometry":
        """self after other; translations pick up the linear twist of self."""
        return MinkIsometry(
            self.linear @ other.linear,
            self.translation + self.linear @ other.translation,
        )

    @staticmethod
    def identity(ndim: int) -> "MinkIsometry":
        return MinkIsometry(np.eye(ndim + 1), np.zeros(ndim + 1))


def hyperboloid_lift(u) -> np.ndarray:
    """Spatial n-vector(s) -> the point (sqrt(1+|u|^2), u) on the unit hyperboloid.

    Vectorized over leading axes: input (..., n) gives output (..., n+1).
    """
    u = np.asarray(u, dtype=float)
    t = np.sqrt(1.0 + np.sum(u * u, axis=-1, keepdims=True))
    return np.concatenate([t, u], axis=-1)
