"""Model flat spacetimes and their CMC slice data in block-reduced form.

Two families are covered, both written as cones/products over closed
hyperbolic manifolds:

* the Lorentz cone  -dρ² + ρ² g₀  over a hyperbolic n-manifold: the slice
  ρ = s has mean curvature trace τ = -n/s and every rescaled volume
  |τ|ⁿ Vol equals nⁿ · base_volume exactly;
* the Kasner-like product  -dρ² + ρ² h + dz²  over a hyperbolic
  (n-1)-manifold times a circle: the slice ρ = const has τ = -(n-1)/ρ and
  rescaled volume (n-1)^{n-1} |τ| · Vol(Σ) · circle_length, which decreases
  to zero in the expanding direction τ ↗ 0.

Slice data lists, in block order, each block's dimension, metric scale a²
and mixed second-fundamental-form eigenvalue p.  Block order is the whole
encoding: block 0 is the hyperbolic block, and a Kasner slice adds block 1,
the flat circle of dimension 1.  The models and slices are Python floats;
only the Riccati functions use numpy, and import it where they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SliceData:
    """CMC slice of a model spacetime in block-reduced form: per block, in
    block order, its dimension, the factor on its unit metric (hyperbolic of
    curvature -1 for block 0, flat for block 1) and its mixed K eigenvalue."""

    dims: tuple
    scales: tuple
    k_eigenvalues: tuple
    tau: float
    volume_factor: float  # unit-scale volume of the cross-section (with circle length)


def _check_dim(n: int) -> None:
    if not 2 <= n <= 4:
        raise ValueError(f"dim (spatial dimension) must satisfy 2 <= dim <= 4, got {n}")


@dataclass(frozen=True)
class ConeModel:
    """Lorentz cone over a closed hyperbolic n-manifold of given volume."""

    dim: int
    base_volume: float = 1.0

    def __post_init__(self):
        _check_dim(self.dim)
        if not 0 < self.base_volume < math.inf:
            raise ValueError("base_volume must be finite and positive")


@dataclass(frozen=True)
class KasnerModel:
    """Product of a hyperbolic cone over Σ^{n-1} with a flat circle."""

    dim: int
    sigma_volume: float = 1.0
    circle_length: float = 1.0

    def __post_init__(self):
        _check_dim(self.dim)
        if self.dim < 3:
            raise ValueError("dim must be 3 or 4 (a hyperbolic factor of dim >= 2)")
        if not (0 < self.sigma_volume < math.inf and 0 < self.circle_length < math.inf):
            raise ValueError("sigma_volume and circle_length must be finite and positive")
        if not 0 < self.sigma_volume * self.circle_length < math.inf:
            raise ValueError("sigma_volume * circle_length must be finite and positive")


def cone_slice(model: ConeModel, s: float) -> SliceData:
    """Slice ρ = s of the cone: metric s² g₀, K eigenvalue -1/s, τ = -n/s."""
    if not s > 0:
        raise ValueError("slice parameter s must be positive")
    n = model.dim
    return SliceData((n,), (s * s,), (-1.0 / s,), -n / s, model.base_volume)


def kasner_slice(model: KasnerModel, rho: float) -> SliceData:
    """Slice ρ = const of the product model: τ = -(n-1)/ρ, flat factor static."""
    if not rho > 0:
        raise ValueError("slice parameter rho must be positive")
    n = model.dim
    return SliceData((n - 1, 1), (rho * rho, 1.0), (-1.0 / rho, 0.0), -(n - 1) / rho,
                     model.sigma_volume * model.circle_length)


def slice_at_tau(model, tau: float) -> SliceData:
    """Slice of either model at prescribed CMC time τ < 0."""
    if not tau < 0:
        raise ValueError("CMC time must be negative (expanding direction is tau -> 0-)")
    if isinstance(model, ConeModel):
        return cone_slice(model, model.dim / (-tau))
    if isinstance(model, KasnerModel):
        return kasner_slice(model, (model.dim - 1) / (-tau))
    raise TypeError(f"unsupported model {type(model).__name__}")


def ham_closed_form(model, tau: float) -> float:
    """Closed form of the rescaled volume |τ|ⁿ Vol(slice at τ).

    Cone: nⁿ · base_volume, independent of τ.  Product model:
    (n-1)^{n-1} |τ| · sigma_volume · circle_length.
    """
    if not tau < 0:
        raise ValueError("CMC time must be negative")
    if isinstance(model, ConeModel):
        return float(model.dim**model.dim) * model.base_volume
    if isinstance(model, KasnerModel):
        n = model.dim
        return float((n - 1) ** (n - 1)) * abs(tau) * model.sigma_volume * model.circle_length
    raise TypeError(f"unsupported model {type(model).__name__}")


# ---------------------------------------------------------------------------
# Riccati propagation of shape operators along normal geodesics
# ---------------------------------------------------------------------------


def riccati_propagate(k0, t: float) -> np.ndarray:
    """Propagate a symmetric shape operator by ∂ₜK = K².

    Closed form K(t) = (K(0)⁻¹ - t·Id)⁻¹ evaluated through the
    eigendecomposition κ ↦ κ/(1 - tκ), which also covers singular K(0)
    (zero eigenvalues stay zero).  Valid strictly before the first focal
    time; crossing one raises ValueError.
    """
    import numpy as np

    k0 = np.asarray(k0, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (k0 + k0.T))
    denom = 1.0 - t * vals
    if np.any(denom <= 0.0):
        raise ValueError("propagation time reaches or crosses a focal time")
    return (vecs * (vals / denom)) @ vecs.T


def focal_times(k0) -> np.ndarray:
    """Focal times 1/κ for the nonzero eigenvalues κ of the shape operator."""
    import numpy as np

    k0 = np.asarray(k0, dtype=float)
    vals = np.linalg.eigvalsh(0.5 * (k0 + k0.T))
    cutoff = 1e-14 * max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    nonzero = vals[np.abs(vals) > cutoff]
    return np.sort(1.0 / nonzero)


def riccati_integrate(k0, t, steps: int = 2000) -> np.ndarray:
    """Integrate ∂ₜK = K² numerically with fixed-step RK4.

    Direct ODE solution of the same initial value problem that
    riccati_propagate answers in closed form; the two should agree to
    O(steps⁻⁴) away from focal times.  ``k0`` is one (d, d) matrix or a
    stack of them, shape (..., d, d), and ``t`` is one time or an array of
    them: every time takes ``steps`` steps of its own length, all in one
    loop over the matrices of ``k0`` and ``t`` broadcast together, shape
    ``np.broadcast_shapes(k0.shape[:-2], np.shape(t)) + (d, d)``.  So a
    (d, d) ``k0`` and a sequence of times give one matrix per time, and a
    (m, 1, d, d) stack gives an (m, len(t), d, d) result.  A stacked product
    multiplies each matrix as the 2-D product does, so every slice equals
    the single-matrix, scalar-``t`` result bit for bit.
    """
    import numpy as np

    if steps < 1:
        raise ValueError("steps must be positive")
    k0 = np.asarray(k0, dtype=float)
    h = np.asarray(t, dtype=float)[..., None, None] / steps
    k = np.array(np.broadcast_to(k0, np.broadcast_shapes(k0.shape, h.shape)))
    for _ in range(steps):
        f1 = k @ k
        k2 = k + 0.5 * h * f1
        f2 = k2 @ k2
        k3 = k + 0.5 * h * f2
        f3 = k3 @ k3
        k4 = k + h * f3
        f4 = k4 @ k4
        k = k + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return k


def riccati_trials(seed: int, trials: int, t_values, steps: int):
    """Riccati closed form against RK4 and against itself on random K(0).

    Trial i draws a negative-definite K(0) = -(A Aᵀ) - 0.1·Id of size 2 + i mod 3
    from one generator seeded with ``seed``.  Returns (rows, k0s): a row
    (trial, dim, t, integration_err, semigroup_err) per t in ``t_values``,
    the largest entries of |RK4 - K(t)| and |K(0.4t) propagated by 0.6t - K(t)|.
    The trials of one size share one stacked riccati_integrate loop over all
    their times, so at most three loops run, whatever the number of trials.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    k0s = []
    for trial in range(trials):
        dim = 2 + trial % 3
        a = rng.normal(size=(dim, dim))
        k0s.append(-(a @ a.T) - 0.1 * np.eye(dim))
    numerics = {}
    for first in range(min(3, trials)):
        same_size = range(first, trials, 3)
        stack = np.stack([k0s[trial] for trial in same_size])[:, None]
        numerics.update(zip(same_size, riccati_integrate(stack, t_values, steps=steps)))
    rows = []
    for trial, k0 in enumerate(k0s):
        dim = k0.shape[0]
        for t, numeric in zip(t_values, numerics[trial]):
            exact = riccati_propagate(k0, t)
            two_leg = riccati_propagate(riccati_propagate(k0, 0.4 * t), 0.6 * t)
            rows.append((trial, dim, t, float(np.max(np.abs(numeric - exact))),
                         float(np.max(np.abs(two_leg - exact)))))
    return rows, k0s
