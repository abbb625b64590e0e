"""Surface-group holonomy: octagon generators, translation cocycles, deformations.

The linear holonomy used throughout is the genus-2 group generated by eight
hyperbolic translations of the hyperbolic plane pairing opposite sides of the
regular octagon with vertex angle pi/4 (all vertices identified, total angle
2*pi, quotient area 4*pi by Gauss-Bonnet).  Generator k translates along the
geodesic through the origin at angle k*pi/4 by the doubled inradius; opposite
generators are mutual inverses and the side pairing forces the single surface
relation  g1 g2^-1 g3 g4^-1 g1^-1 g2 g3^-1 g4 = e.  This is the only group:
its generators are built once, at import (BOLZA_GENERATORS, with the words
BOLZA_RELATORS), and a HolonomyRep holds a cocycle over it and nothing else,
so no code here has to check which group it was handed.

The octagon's eight geodesic sides lie on circles orthogonal to the unit
circle of the Poincare disk.  Their centres are built from ``math`` scalars
as (dist, 0), (diag, diag) with diag = dist * sqrt(1/2), and the exact
reflections of these two, so the centres are D8-symmetric to the bit
(numpy's cos and sin of k*pi/4 are so only to an ulp).  octagon_level folds
each point into one sector of that dihedral group (Katok, Fuchsian Groups,
ch. 4) and measures two side circles, not eight; its level equals the
eight-circle minimum over those centres bit for bit.

Affine deformations are described by a translation cocycle: one translation
vector per generator, extended to arbitrary words via

    t(alpha beta) = t(alpha) + f(alpha) t(beta)

where f is the linear holonomy; ``MinkIsometry.compose`` is the one place
that rule is written.  Coboundaries t(g) = b - f(g) b correspond to
moving the base point and deform nothing geometrically.

The Bolza cocycles used here translate each generator along the unit
spacelike vector n_k it fixes: t_k = w_k n_k, with w_{k+4} = w_k.  Since
n_{k+4} = -n_k the pair relators hold for any weights; the octagon relator
holds exactly when w_0 + w_1 + w_2 + w_3 = 0 (measured: its translation is
that sum times one fixed vector).  Each generator is a symmetric matrix
fixing n_k, so (b - g_k b) . n_k = 0 for every b: such a cocycle is
Euclidean orthogonal to every coboundary, hence not gauge, and w_k is its
Margulis invariant <t_k, n_k> on generator k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .minkowski import (
    MinkIsometry,
    hyperboloid_lift,
    make_boost,
    make_rotation,
    minkowski_metric,
)

#: octagon side-pairing relation in signed 1-based generator indices
BOLZA_RELATOR = (1, -2, 3, -4, -1, 2, -3, 4)
#: relator words: the four opposite pairs and the octagon side-pairing relation
BOLZA_RELATORS = ((1, 5), (2, 6), (3, 7), (4, 8), BOLZA_RELATOR)
#: residual allowed when a relator word is evaluated numerically
RELATOR_TOL = 1e-9
#: decimals kept when orbit elements are deduplicated: entries that agree to
#: this many decimals (up to a rounding boundary) are one group element
ELEMENT_KEY_DECIMALS = 9
#: Simpson panels of octagon_area over one of the sixteen symmetric sectors
OCTAGON_AREA_PANELS = 128
#: points octagon_level takes at a time: its three scratch arrays, 128 kB
#: each, stay in cache
OCTAGON_LEVEL_CHUNK = 16384


def generator(index: int) -> np.ndarray:
    """Matrix of a signed 1-based Bolza generator index (negative index means inverse).

    Index 0 and indices of magnitude beyond 8 raise IndexError.
    """
    if not 1 <= abs(index) <= len(BOLZA_GENERATORS):
        raise IndexError(f"generator index {index}: expected a nonzero index "
                         f"of magnitude at most {len(BOLZA_GENERATORS)}")
    g = BOLZA_GENERATORS[abs(index) - 1]
    if index < 0:
        eta = minkowski_metric(2)
        g = eta @ g.T @ eta
    return g


@dataclass(frozen=True, eq=False)
class HolonomyRep:
    """Affine holonomy over the Bolza group: its translation cocycle, a tuple
    of one translation vector of shape (3,) per generator."""

    translations: tuple

    def __post_init__(self):
        if len(self.translations) != len(BOLZA_GENERATORS) or \
                any(np.shape(t) != (3,) for t in self.translations):
            raise ValueError("a Bolza cocycle is 8 translation vectors of shape (3,), got "
                             f"{[np.shape(t) for t in self.translations]}")


def evaluate_word(word) -> np.ndarray:
    """Multiply out a word of signed generator indices."""
    out = np.eye(3)
    for index in word:
        out = out @ generator(index)
    return out


def _letter(rep: HolonomyRep, index: int) -> MinkIsometry:
    """Affine holonomy of one signed generator; the inverse of (g, t) is
    (g^-1, -g^-1 t)."""
    g = generator(index)
    if index > 0:
        return MinkIsometry(g, rep.translations[index - 1])
    return MinkIsometry(g, -(g @ rep.translations[-index - 1]))


def extend_cocycle(rep: HolonomyRep, word) -> np.ndarray:
    """Translation part of the affine holonomy of a word: the composition
    of its letters' affine holonomies."""
    iso = MinkIsometry.identity(2)
    for index in word:
        iso = iso.compose(_letter(rep, index))
    return iso.translation


def coboundary_cocycle(base_point) -> tuple:
    """Cocycle t(g) = b - f(g) b; trivial in cohomology for any base point b."""
    b = np.asarray(base_point, dtype=float)
    return tuple(b - g @ b for g in BOLZA_GENERATORS)


def scale_structure(rep: HolonomyRep, factor: float) -> HolonomyRep:
    """Rescale the affine structure: translations scale, linear parts do not.

    Conjugating the developing map by x -> factor*x multiplies every cocycle
    translation by ``factor`` and leaves the linear holonomy unchanged.
    """
    return HolonomyRep(tuple(factor * t for t in rep.translations))


# ---------------------------------------------------------------------------
# octagon geometry
# ---------------------------------------------------------------------------


def octagon_inradius() -> float:
    """Hyperbolic distance from the octagon center to each side.

    Closed form of the vertex-angle condition: the regular octagon with
    interior angle pi/4 has cosh(r) sin(pi/8) = cos(pi/8), so
    r = arccosh(cot(pi/8)).  The scalar functions of this module and of
    ``minkowski`` come from ``math``, libm's, not from numpy's ufuncs: numpy's
    AVX-512 arccosh gives this radius one ulp more than math.acosh, which
    would make every Bolza generator depend on the host's SIMD extensions.
    """
    return math.acosh(1.0 / math.tan(math.pi / 8))


def octagon_circumradius() -> float:
    """Hyperbolic distance from the octagon center to each vertex."""
    return math.acosh(1.0 / math.tan(math.pi / 8) ** 2)


def bolza_translation_length() -> float:
    """Common translation length of the side-pairing generators (twice the inradius)."""
    return 2.0 * octagon_inradius()


def _bolza_generators() -> tuple:
    """Generator k (0-based) translates along the geodesic at angle k*pi/4."""
    ell = bolza_translation_length()
    gens = []
    for k in range(8):
        rot = make_rotation(2, 0, 1, k * math.pi / 4)
        gens.append(rot @ make_boost([1.0, 0.0], ell) @ rot.T)
    return tuple(gens)


#: the eight side-pairing translations of the regular pi/4 octagon, built once
BOLZA_GENERATORS = _bolza_generators()


def bolza_rep(translations: tuple | None = None) -> HolonomyRep:
    """The Bolza group with a cocycle, the zero cocycle by default."""
    if translations is None:
        translations = tuple(np.zeros(3) for _ in BOLZA_GENERATORS)
    return HolonomyRep(translations)


def _side_circle_data():
    """(dist, radius) of the eight geodesic side circles in the Poincare disk:
    the Euclidean distance of each center from the origin, and the radius."""
    rho0 = math.tanh(0.5 * octagon_inradius())
    return (1.0 + rho0 * rho0) / (2.0 * rho0), (1.0 - rho0 * rho0) / (2.0 * rho0)


def octagon_level(x, y) -> np.ndarray:
    """Signed level of the Poincare-disk points (x, y) against the octagon boundary.

    Min over the eight side circles of (distance to circle center - circle
    radius), elementwise over the coordinate arrays ``x`` and ``y``: >= 0
    exactly on the octagon (inside lies outside every side circle), with the
    boundary as zero set, so it serves as a cut function in quadrature.

    The octagon's dihedral symmetry folds each point to the sector
    0 <= min(|x|, |y|) <= max(|x|, |y|), where only two side circles can be
    nearest: the one centred at (dist, 0) and the one at (diag, diag), with
    diag = dist * sqrt(1/2) from ``math``.  The eight centres are those two
    and their exact reflections (0, dist), (-diag, diag), ..., and a
    reflection of the point changes no rounded squared distance, only which
    centre it belongs to.  Wherever |x| + |y| <= 2 dist, which holds on the
    whole unit disk, each of the six circles the fold drops has squared
    distance terms no smaller than one of the two it keeps, and every
    subtraction, square and sum is correctly rounded, hence monotone; sqrt
    and the shift by the radius are monotone too, so they are applied once,
    to the least squared distance.  The result is the eight-circle
    min(sqrt(d^2) - radius) over those centres bit for bit (the tests check
    it beyond the disk too), and it is D8-symmetric bit for bit; a NaN
    coordinate gives NaN.  No transcendental numpy ufunc is called, so no
    SIMD dispatch enters.

    Every step is elementwise, so the points are taken OCTAGON_LEVEL_CHUNK
    at a time, in place on the result and on three scratch arrays of that
    length, allocated once per call: fresh block-sized scratch arrays cost
    about as much as the arithmetic (measured on 2401^2 nodes: 0.10 s of
    level against 0.06 s reused).
    """
    dist, radius = _side_circle_data()
    diag = dist * math.sqrt(0.5)
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    out = np.empty(x.shape)
    x, y, level_all = x.ravel(), y.ravel(), out.reshape(-1)
    size = min(OCTAGON_LEVEL_CHUNK, level_all.size)
    scratch_all = np.empty((3, size))
    for lo in range(0, level_all.size, OCTAGON_LEVEL_CHUNK):
        hi = min(lo + OCTAGON_LEVEL_CHUNK, level_all.size)
        big, small, scratch = scratch_all[:, :hi - lo]
        level = level_all[lo:hi]
        # the fold: big = max(|x|, |y|), small = min(|x|, |y|)
        np.abs(x[lo:hi], out=scratch)
        np.abs(y[lo:hi], out=level)
        np.maximum(scratch, level, out=big)
        np.minimum(scratch, level, out=small)
        # squared distance to the diagonal circle's centre (diag, diag)
        np.square(np.subtract(big, diag, out=level), out=level)
        level += np.square(np.subtract(small, diag, out=scratch), out=scratch)
        # squared distance to the axis circle's centre (dist, 0)
        np.square(np.subtract(big, dist, out=big), out=big)
        big += np.square(small, out=small)
        np.minimum(level, big, out=level)
        np.sqrt(level, out=level)
        level -= radius
    return out


def octagon_boundary_radius(angle) -> np.ndarray:
    """Euclidean disk radius of the octagon boundary along a ray at ``angle``."""
    phi = np.abs(np.mod(np.asarray(angle, dtype=float) + np.pi / 8, np.pi / 4) - np.pi / 8)
    dist, _ = _side_circle_data()
    # nearest intersection of the ray with the side circle (orthogonal to the unit circle)
    return dist * np.cos(phi) - np.sqrt((dist * np.cos(phi)) ** 2 - 1.0)


def octagon_area() -> float:
    """Hyperbolic area of the octagon by quadrature (Gauss-Bonnet value: 4*pi).

    The radial integral of the disk area element 4 r/(1-r^2)^2 is done in
    closed form; the angular integral uses composite Simpson over one of the
    sixteen symmetric sectors, in OCTAGON_AREA_PANELS panels.
    """
    phi = np.linspace(0.0, np.pi / 8, 2 * OCTAGON_AREA_PANELS + 1)
    rho = octagon_boundary_radius(phi)
    integrand = 2.0 / (1.0 - rho * rho) - 2.0
    h = phi[1] - phi[0]
    weights = np.ones_like(phi)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(16.0 * (h / 3.0) * np.dot(weights, integrand))


def bolza_nontrivial_cocycle(scale: float = 1.0) -> tuple:
    """The cocycle t_k = scale * w_k * n_k along the fixed vectors, with
    w = (1, -1/3, -1/3, -1/3, 1, -1/3, -1/3, -1/3).

    n_k = (0, -sin(k pi/4), cos(k pi/4)) is the normal of generator k's
    axis.  The weights define the cocycle; they are not a setting.  The
    module docstring says why it is a cocycle and not gauge.  Measured:

    * The relator residual is 3.8e-12 at scale 1 and 7.7e-15 at 0.002;
      with all four weights 1, so that they do not sum to zero, it is 102.
    * Orthogonal to the coboundaries: |B^T v| <= 2e-16 |v|, with B the
      stacked I - g_k.  Its Margulis invariant on g_0 is ``scale``.
    * Why these weights: "generator 0 alone, along n_0", projected by least
      squares onto the cocycles and then off the coboundaries, is this
      closed form to 1.4e-12.

    sin and cos come from ``math``, so no SIMD dispatch or LAPACK enters.
    """
    weights = (1.0, -1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0) * 2
    return tuple(scale * w * np.array([0.0, -math.sin(k * math.pi / 4), math.cos(k * math.pi / 4)])
                 for k, w in enumerate(weights))


def orbit_isometries(rep: HolonomyRep, max_word_length: int = 3):
    """Deduplicated affine holonomies of all words up to a given length.

    Breadth-first over reduced words (no immediate backtracking), keeping the
    first representative of each group element; deterministic ordering.  The
    words are spelt in the eight generators alone, and generator k's inverse
    is generator k + 4 (1-based, mod 8), so a word never continues with
    ``(word[-1] + 3) % 8 + 1``.
    """
    seen = {}
    frontier = [((), MinkIsometry.identity(2))]
    seen[_element_key(frontier[0][1])] = frontier[0][1]
    letters = [_letter(rep, i) for i in range(1, 9)]
    for _ in range(max_word_length):
        nxt = []
        for word, iso in frontier:
            for index, letter in enumerate(letters, start=1):
                if word and index == (word[-1] + 3) % 8 + 1:
                    continue
                new = iso.compose(letter)
                key = _element_key(new)
                if key not in seen:
                    seen[key] = new
                    nxt.append((word + (index,), new))
        frontier = nxt
    return list(seen.values())


def _element_key(iso: MinkIsometry):
    entries = np.concatenate([iso.linear.ravel(), iso.translation])
    return tuple(np.round(entries, ELEMENT_KEY_DECIMALS))


def bolza_suite(seed: int, words: int, word_length: int) -> list:
    """The Bolza group's checked quantities as seven (quantity, value) rows.

    Relator residual; octagon area, inradius and circumradius; cocycle-rule
    error on ``words`` random words of ``word_length`` letters; relator
    translation of a random coboundary; Gauss-map equivariance error
    |A p - lift(A p)| on 64 random hyperboloid points p, whose unit normal
    is p.  Draws come from one generator seeded with ``seed``; each error is
    an np.max over all measurements, so one NaN makes it NaN.
    """
    relator_res = np.max([np.max(np.abs(evaluate_word(rel) - np.eye(3)))
                          for rel in BOLZA_RELATORS])

    rng = np.random.default_rng(seed)
    deformed = HolonomyRep(tuple(rng.normal(scale=0.25, size=3) for _ in BOLZA_GENERATORS))
    cocycle_errs = []
    for _ in range(words):
        letters = rng.integers(1, len(BOLZA_GENERATORS) + 1, size=word_length)
        word = [int(i) for i in letters * rng.choice((-1, 1), size=word_length)]
        split = int(rng.integers(1, word_length))
        alpha, beta = word[:split], word[split:]
        lhs = extend_cocycle(deformed, word)
        rhs = extend_cocycle(deformed, alpha) + \
            evaluate_word(alpha) @ extend_cocycle(deformed, beta)
        cocycle_errs.append(np.max(np.abs(lhs - rhs)))

    cob = HolonomyRep(coboundary_cocycle(rng.normal(size=3)))
    coboundary_res = np.max([np.max(np.abs(extend_cocycle(cob, rel))) for rel in BOLZA_RELATORS])

    lifted = hyperboloid_lift(rng.uniform(-0.8, 0.8, size=(64, 2)))
    mapped = [lifted @ gen.T for gen in BOLZA_GENERATORS]
    equiv_err = np.max([np.max(np.abs(m - hyperboloid_lift(m[:, 1:]))) for m in mapped])

    return [
        ("relator_residual", float(relator_res)),
        ("octagon_area", octagon_area()),
        ("octagon_inradius", octagon_inradius()),
        ("octagon_circumradius", octagon_circumradius()),
        ("cocycle_rule_err", float(np.max(cocycle_errs))),
        ("coboundary_relator_residual", float(coboundary_res)),
        ("gauss_equivariance_err", float(equiv_err)),
    ]
