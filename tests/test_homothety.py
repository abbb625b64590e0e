"""Homothety covariance of the graph pipeline, bit for bit.

A homothety x -> c x of Minkowski space maps the graph of phi to the graph
of c phi(x / c), and a slice of constant mean curvature tau to one of
tau / c: the volume scales by c^2, the coordinate area by c^2, and the
curvature integral E = int |K|^2 dmu does not change.  With c = 2^k every
float operation that holds no absolute constant commutes with the scaling
exactly, so the relaxation of the scaled start, with tau and tol divided by
c, and its quotient integration must give the unscaled run's numbers times
powers of c, bit for bit, with the same step and factorization counts.  An
absolute constant added to H, a residual or a guard breaks that.
"""

import pytest

from cmcflat import graphs, holonomy
from cmcflat.graphs import HeightField

TAU = -2.0
TOL = 1e-8


def _relax_and_integrate(start: HeightField, c: float):
    """Relax ``start`` to tau / c at tol / c on a fresh ChordLU, and integrate it
    over the Gauss-map preimage of the Bolza octagon."""
    relaxed = graphs.cmc_relax(start, TAU / c, tol=TOL / c, chord=graphs.ChordLU())
    return relaxed, graphs.quotient_energy(relaxed.field, graphs.bolza_domain_level)


@pytest.fixture(scope="module")
def base_run():
    # the lambda = 1 envelope of the limit experiment, on 81^2 nodes
    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(0.002))
    start = graphs.orbit_envelope_field(rep, 6.4, 81)
    relaxed, report = _relax_and_integrate(start, 1.0)
    # not vacuous: the run relaxes, converges and integrates a nonempty region
    assert relaxed.iterations > 0 and relaxed.factorizations > 0
    assert relaxed.residual <= TOL and report.region_area > 0.0
    return start, relaxed, report


def _bits(*values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("k", (-10, 10, 30))
def test_relaxation_and_quadrature_commute_with_a_power_of_two_homothety(base_run, k):
    start, relaxed, report = base_run
    c = 2.0**k
    scaled = HeightField(start.values * c, start.spacing * c, tuple(c * o for o in start.origin))
    relaxed_c, report_c = _relax_and_integrate(scaled, c)

    assert (relaxed_c.field.values / c).tobytes() == relaxed.field.values.tobytes()
    assert _bits(relaxed_c.residual * c) == _bits(relaxed.residual)
    assert (relaxed_c.iterations, relaxed_c.factorizations) == \
        (relaxed.iterations, relaxed.factorizations)
    assert _bits(report_c.volume / c**2, report_c.energy, report_c.tau_mean * c,
                 report_c.region_area / c**2) == \
        _bits(report.volume, report.energy, report.tau_mean, report.region_area)
