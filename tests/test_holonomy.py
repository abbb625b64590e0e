import math

import numpy as np
import pytest

from cmcflat import holonomy as h
from cmcflat import minkowski as mk

SQRT2 = np.sqrt(2.0)


def test_translation_length_closed_form():
    # side-pairing boosts translate by l with cosh(l/2) = 1 + sqrt(2)
    ell = h.bolza_translation_length()
    assert abs(np.cosh(ell / 2.0) - (1.0 + SQRT2)) < 1e-15
    assert abs(ell - 3.0571418389619964) < 1e-15


def test_generators_are_lorentz_and_orthochronous():
    assert len(h.BOLZA_GENERATORS) == 8
    for g in h.BOLZA_GENERATORS:
        assert g.shape == (3, 3)
        assert mk.lorentz_defect(g) < 1e-13
        assert g[0, 0] > 0  # orthochronous


def test_relators_evaluate_to_identity():
    assert len(h.BOLZA_RELATORS) == 5
    worst = max(
        float(np.max(np.abs(h.evaluate_word(rel) - np.eye(3))))
        for rel in h.BOLZA_RELATORS
    )
    assert worst < 1e-9


def test_octagon_radii_closed_forms():
    # circumradius: cosh(R) = cot^2(pi/8) = 3 + 2 sqrt(2)
    assert abs(h.octagon_circumradius() - np.arccosh(3.0 + 2.0 * SQRT2)) < 1e-12
    assert abs(h.octagon_inradius() - 1.5285709194809982) < 1e-12
    assert h.octagon_inradius() < h.octagon_circumradius()


def test_octagon_inradius_solves_the_vertex_angle_condition():
    # the closed form must satisfy cosh(r) sin(pi/8) = cos(pi/8), the
    # condition it is derived from, to a few ulp of cos(pi/8)
    r = h.octagon_inradius()
    defect = np.cosh(r) * np.sin(np.pi / 8) - np.cos(np.pi / 8)
    assert abs(defect) <= 4 * np.spacing(np.cos(np.pi / 8))


def test_octagon_area_is_gauss_bonnet_value():
    # regular right-angled octagon: area = (8-2)pi - 8*(pi/4) = 4pi
    assert abs(h.octagon_area() - 4.0 * np.pi) < 1e-6


def test_octagon_boundary_radius_extremes():
    ang = np.linspace(0.0, 2.0 * np.pi, 1441)
    r = h.octagon_boundary_radius(ang)
    assert abs(float(np.min(r)) - np.tanh(h.octagon_inradius() / 2.0)) < 1e-12
    assert abs(float(np.max(r)) - np.tanh(h.octagon_circumradius() / 2.0)) < 1e-12


def test_octagon_level_and_membership():
    assert h.octagon_level(0.0, 0.0) >= 0
    assert h.octagon_level(0.95, 0.0) < 0
    # level at the center equals the euclidean disk inradius
    assert abs(h.octagon_level(0.0, 0.0) - np.tanh(h.octagon_inradius() / 2.0)) < 1e-12
    # points marginally beyond a side are rejected
    rin = np.tanh(h.octagon_inradius() / 2.0)
    assert h.octagon_level(rin + 1e-6, 0.0) < 0


def _side_circle_centers():
    """The eight side-circle centres, exactly D8-symmetric: (dist, 0),
    (diag, diag) with diag = dist * sqrt(1/2), and their reflections."""
    dist, _ = h._side_circle_data()
    diag = dist * math.sqrt(0.5)
    return np.array([(dist, 0.0), (diag, diag), (0.0, dist), (-diag, diag),
                     (-dist, 0.0), (-diag, -diag), (0.0, -dist), (diag, -diag)])


def test_octagon_level_components_match_stacked_points():
    # the per-component distances reproduce the stacked (pts - c) form bit for bit
    rng = np.random.default_rng(5)
    r, a = np.sqrt(rng.random((40, 30))), rng.uniform(0.0, 2.0 * np.pi, (40, 30))
    pts = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
    _, radius = h._side_circle_data()
    expected = np.min([np.sqrt(np.sum((pts - c) ** 2, axis=-1)) - radius
                       for c in _side_circle_centers()], axis=0)
    assert np.array_equal(h.octagon_level(pts[..., 0], pts[..., 1]), expected)


def test_octagon_level_equals_the_eight_circle_minimum(monkeypatch):
    # the fold to one sector and one sqrt of the least squared distance give,
    # bit for bit, the least of the eight sqrt(squared distance) - radius:
    # inside and outside the disk, on the side circles where the level is
    # near zero, on the axes and diagonals, near the origin and at it
    rng = np.random.default_rng(11)
    _, radius = h._side_circle_data()
    centers = _side_circle_centers()
    r, a = np.sqrt(rng.random(2000)), rng.uniform(0.0, 2.0 * np.pi, 2000)
    far = rng.uniform(1.0, 3.0, 2000)
    side = rng.uniform(0.0, 2.0 * np.pi, (8, 250))
    t = rng.uniform(-3.0, 3.0, 500)
    tiny = rng.normal(size=(2, 500)) * 10.0 ** rng.uniform(-300.0, -1.0, 500)
    x = np.concatenate([r * np.cos(a), far * np.cos(a),
                        (centers[:, :1] + radius * np.cos(side)).ravel(),
                        t, np.zeros(500), t, t, tiny[0], [0.0, -0.0]])
    y = np.concatenate([r * np.sin(a), far * np.sin(a),
                        (centers[:, 1:] + radius * np.sin(side)).ravel(),
                        np.zeros(500), t, t, -t, tiny[1], [0.0, 0.0]])
    expected = np.min([np.sqrt((x - cx) ** 2 + (y - cy) ** 2) - radius for cx, cy in centers],
                      axis=0)
    level = h.octagon_level(x, y)
    assert level.tobytes() == expected.tobytes()
    assert np.min(np.abs(level)) < 1e-15  # some points land on a side circle
    # broadcast coordinates and scalars take the same path
    assert h.octagon_level(x[:40, None], y[None, :40]).tobytes() == np.min(
        [np.sqrt((x[:40, None] - cx) ** 2 + (y[None, :40] - cy) ** 2) - radius
         for cx, cy in centers], axis=0).tobytes()
    assert float(h.octagon_level(0.3, -0.2)) == float(
        min(np.sqrt((0.3 - cx) ** 2 + (-0.2 - cy) ** 2) - radius for cx, cy in centers))
    # in chunks, the last one ragged, and chunks shorter than a broadcast row
    whole = h.octagon_level(x[:40, None], y[None, :40])
    monkeypatch.setattr(h, "OCTAGON_LEVEL_CHUNK", 33)
    assert h.octagon_level(x, y).tobytes() == level.tobytes()
    assert h.octagon_level(x[:40, None], y[None, :40]).tobytes() == whole.tobytes()


def test_octagon_level_is_d8_symmetric_bit_for_bit():
    # the octagon's reflections in the diagonal and in both axes generate
    # its dihedral group, and each leaves the level's bits unchanged
    rng = np.random.default_rng(17)
    r, a = np.sqrt(rng.random(20000)), rng.uniform(0.0, 2.0 * np.pi, 20000)
    x, y = r * np.cos(a), r * np.sin(a)
    level = h.octagon_level(x, y).tobytes()
    assert h.octagon_level(y, x).tobytes() == level
    assert h.octagon_level(-x, y).tobytes() == level
    assert h.octagon_level(x, -y).tobytes() == level


def test_octagon_level_of_a_nan_coordinate_is_nan():
    assert np.isnan(h.octagon_level(np.nan, 0.2))
    assert np.isnan(h.octagon_level(0.2, np.nan))
    level = h.octagon_level(np.array([0.1, np.nan, 0.3])[:, None], np.array([np.nan, 0.2]))
    assert level.shape == (3, 2)
    assert np.array_equal(np.isnan(level), [[True, False], [True, True], [True, False]])


def test_cocycle_rule_on_random_words():
    rng = np.random.default_rng(5)
    rep = h.HolonomyRep(tuple(rng.normal(scale=0.2, size=3) for _ in range(8)))
    for _ in range(25):
        length = int(rng.integers(2, 6))
        word = [int(s) * int(i) for s, i in zip(rng.choice((-1, 1), size=length),
                                                rng.integers(1, 9, size=length))]
        split = int(rng.integers(1, length))
        lhs = h.extend_cocycle(rep, word)
        rhs = h.extend_cocycle(rep, word[:split]) + \
            h.evaluate_word(word[:split]) @ h.extend_cocycle(rep, word[split:])
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_coboundary_closed_form_and_relator_vanishing():
    rng = np.random.default_rng(8)
    b = rng.normal(size=3)
    cob = h.coboundary_cocycle(b)
    rep = h.HolonomyRep(cob)
    # t(w) = b - f(w) b for every word
    for word in ([1], [2, -3], [4, 4, -1, 6]):
        f = h.evaluate_word(word)
        assert np.max(np.abs(h.extend_cocycle(rep, word) - (b - f @ b))) < 1e-10
    worst = max(float(np.max(np.abs(h.extend_cocycle(rep, rel)))) for rel in h.BOLZA_RELATORS)
    assert worst < 1e-9


def _relator_map():
    """Stacked relator translations of the 24 unit cocycles, as columns: the
    cocycle rule linearized through extend_cocycle."""
    cols = []
    for unit in np.eye(24):
        rep = h.HolonomyRep(tuple(unit[3 * k:3 * k + 3] for k in range(8)))
        cols.append(np.concatenate([h.extend_cocycle(rep, rel) for rel in h.BOLZA_RELATORS]))
    return np.column_stack(cols)


def _coboundary_map():
    """B = vstack(I - g_k): base point b -> stacked coboundary translations."""
    return np.vstack([np.eye(3) - g for g in h.BOLZA_GENERATORS])


def _relator_residual(cocycle):
    rep = h.HolonomyRep(cocycle)
    return max(float(np.max(np.abs(h.extend_cocycle(rep, rel)))) for rel in h.BOLZA_RELATORS)


def test_cocycle_space_dimensions():
    # 24 unknowns, relator map of rank 15: a 9-dimensional cocycle space,
    # holding the 3-dimensional coboundary image
    relator_map = _relator_map()
    cob = _coboundary_map()
    assert np.linalg.matrix_rank(relator_map) == 15
    assert np.linalg.matrix_rank(cob) == 3
    assert np.max(np.abs(relator_map @ cob)) <= 1e-9


def test_nontrivial_cocycle_is_valid_and_not_gauge():
    weights = (1.0, -1 / 3, -1 / 3, -1 / 3, 1.0, -1 / 3, -1 / 3, -1 / 3)
    normals = [np.array([0.0, -np.sin(k * np.pi / 4), np.cos(k * np.pi / 4)]) for k in range(8)]
    for scale in (1.0, 0.2):
        coc = h.bolza_nontrivial_cocycle(scale)
        # each translation lies along the vector its generator fixes, and its
        # Margulis invariant is scale * w_k
        for g, t, n, w in zip(h.BOLZA_GENERATORS, coc, normals, weights):
            assert np.max(np.abs(g @ t - t)) <= 1e-12
            assert abs(t @ n - scale * w) <= 1e-15
        assert _relator_residual(coc) <= 1e-9
        # Euclidean orthogonal to every coboundary, so not gauge
        vec = np.concatenate(coc)
        assert np.linalg.norm(_coboundary_map().T @ vec) <= 1e-14 * np.linalg.norm(vec)
    # the weights' zero sum is a real constraint: equal weights break the relator
    assert _relator_residual(tuple(normals)) > 1.0
    first, second = h.bolza_nontrivial_cocycle(0.2), h.bolza_nontrivial_cocycle(0.2)
    assert np.concatenate(first).tobytes() == np.concatenate(second).tobytes()
    assert np.array([0.0, -0.0, 0.2]).tobytes() == first[0].tobytes()


def test_scale_structure_scales_translations_only():
    rep = h.bolza_rep(h.bolza_nontrivial_cocycle(0.4))
    scaled = h.scale_structure(rep, 0.25)
    # the linear parts are the group's own: every letter keeps its matrix
    for index in (*range(1, 9), *range(-8, 0)):
        assert np.array_equal(h._letter(rep, index).linear, h._letter(scaled, index).linear)
    for ta, tb in zip(rep.translations, scaled.translations):
        assert np.max(np.abs(tb - 0.25 * ta)) < 1e-15


def test_orbit_counts_by_word_length():
    rep = h.bolza_rep()
    # the default cocycle is zero: one zero translation per generator
    assert len(rep.translations) == 8
    assert all(np.array_equal(t, np.zeros(3)) for t in rep.translations)
    assert len(h.orbit_isometries(rep, 1)) == 9
    assert len(h.orbit_isometries(rep, 2)) == 65
    assert len(h.orbit_isometries(rep, 3)) == 457
    # identity is always present
    isos = h.orbit_isometries(rep, 1)
    best = min(float(np.max(np.abs(i.linear - np.eye(3)))) for i in isos)
    assert best == 0.0


def test_element_key_tolerance():
    # the nudged entry 0.2 sits far from every rounding boundary it could cross
    iso = mk.MinkIsometry(h.generator(1), np.array([0.1, 0.2, 0.3]))

    def nudged(delta):
        return mk.MinkIsometry(iso.linear, iso.translation + np.array([0.0, delta, 0.0]))

    assert h._element_key(nudged(1e-12)) == h._element_key(iso)
    assert h._element_key(nudged(1e-6)) != h._element_key(iso)


def test_word_evaluation_respects_inverses():
    w = h.evaluate_word([2, -2])
    assert np.max(np.abs(w - np.eye(3))) < 1e-13
    # index 0 would read generators[-1]; only 1..8 and their negatives name letters
    rep = h.bolza_rep()
    for bad in (0, 9, -9):
        with pytest.raises(IndexError, match=f"generator index {bad}"):
            h.evaluate_word([bad])
        with pytest.raises(IndexError, match=f"generator index {bad}"):
            h.extend_cocycle(rep, [bad])


def test_holonomy_rep_refuses_a_cocycle_of_the_wrong_shape():
    # a Bolza cocycle is one (3,) translation per generator; a seven-vector
    # cocycle would leave generator 8 without one, and a (2,) vector is no
    # Minkowski translation
    zeros = tuple(np.zeros(3) for _ in range(8))
    with pytest.raises(ValueError, match="8 translation vectors of shape"):
        h.HolonomyRep(zeros[:7])
    with pytest.raises(ValueError, match="8 translation vectors of shape"):
        h.HolonomyRep(zeros[:7] + (np.zeros(2),))
    with pytest.raises(ValueError, match="8 translation vectors of shape"):
        h.bolza_rep(zeros + (np.zeros(3),))
    assert h.HolonomyRep(zeros).translations is zeros


def test_orbit_pruning_is_the_opposite_generator():
    # generator k + 4 (1-based, mod 8) is generator k's inverse, the pairing
    # orbit_isometries prunes backtracking by
    for k in range(1, 9):
        assert np.max(np.abs(h.generator((k + 3) % 8 + 1) - h.generator(-k))) <= 1e-14
