"""Scenario runner: dispatch a config to the library and write CSV artifacts.

Each scenario is a pure function of its keyword-only options.  It returns
``(tables, checks)``: its ``(name, header, rows)`` tables and the pass/fail
records of ``summary.csv``.  Only ``main`` creates ``--out``, once the scenario
has returned, and writes every table and ``summary.csv`` there as
deterministic CSV.  ``--check-golden DIR`` requires every artifact to have a
counterpart in ``DIR`` with the same bytes, and every file in ``DIR`` to be
an artifact of the run; there is no tolerance.  Exit codes: 0 all checks
pass; 2 configuration error (a bad key, type or range, or an unusable
``--out``: nothing written, and no ``--out`` created for a bad config; or an
artifact that cannot be written, named in the message: the tables written
before it stay); 3
numerical failure (a failed check writes every artifact, an exception in the
scenario writes nothing); 4 golden-file mismatch (every artifact written).

The flows and the Lichnerowicz sweep compute on Python floats, and this
module imports numpy nowhere: ``--list-scenarios``, ``cone-flow``,
``kasner-flow`` and ``lichnerowicz-sweep`` start and finish without loading
it.  The other scenarios import ``graphs``, ``holonomy`` and numpy where
they run.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import csvio, flow, lichnerowicz, models
from .config import ConfigError, RunConfig, get_float, get_floats, get_int, load_config

SUMMARY_HEADER = ("name", "measured", "expected", "tolerance", "pass")

EXIT_PASS = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GOLDEN = 4


def _check(name: str, measured: float, expected: float, tolerance: float):
    ok = abs(measured - expected) <= tolerance
    return (name, float(measured), float(expected), float(tolerance), bool(ok))


def _flow_trace_checks(prefix: str, trace: flow.HamTrace):
    """The trace's lapse-bound and Gauss-constraint checks; the bound checks measure
    the dimensionless worst violation of 1/tau^2 <= N <= n/tau^2, clipped at 0.
    A NaN anywhere in a column fails its check (``flow.max_or_nan``).  The trace
    builds each column once and shares it with the scenario's other checks."""
    tau = trace.floats("tau")
    lo = [1.0 / (t * t) for t in tau]
    hi = [trace.ndim / (t * t) for t in tau]
    lo_viol = flow.max_or_nan((b - lapse) / b for b, lapse in zip(lo, trace.floats("lapse_min")))
    hi_viol = flow.max_or_nan((lapse - b) / b for b, lapse in zip(hi, trace.floats("lapse_max")))
    return [
        _check(prefix + "_lapse_lower_bound_violation", lo_viol, 0.0, 1e-12),
        _check(prefix + "_lapse_upper_bound_violation", hi_viol, 0.0, 1e-12),
        _check(prefix + "_max_gauss_residual",
               flow.max_or_nan(trace.floats("gauss_residual")), 0.0, 1e-8),
    ]


def _model(cls, *args):
    """``cls(*args)``, whose constructor checks the options' ranges, with its
    ValueError raised as a ConfigError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _model_flow(model, tau_start, tau_end, steps):
    """Run the flow of a model from ``tau_start`` to ``tau_end`` in ``steps`` steps;
    returns (trace, max |Ham / ham_closed_form - 1|)."""
    if not (tau_start < tau_end < 0.0):
        raise ConfigError("require tau_start < tau_end < 0")
    if steps < 2:
        raise ConfigError("steps must be at least 2")
    state = flow.state_from_slice(models.slice_at_tau(model, tau_start))
    trace = flow.run_flow(state, tau_end, steps)
    closed = [models.ham_closed_form(model, t) for t in trace.floats("tau")]
    return trace, flow.max_or_nan(abs(ham / c - 1.0)
                                  for ham, c in zip(trace.floats("ham"), closed))


def scenario_cone_flow(*, dim=3, base_volume=1.0, tau_start=-10.0, tau_end=-0.1, steps=10000):
    model = _model(models.ConeModel, dim, base_volume)
    trace, drift = _model_flow(model, tau_start, tau_end, steps)
    checks = [_check("cone_ham_rel_drift", drift, 0.0, 1e-8)]
    checks += _flow_trace_checks("cone", trace)
    return [("cone_flow_trace.csv", flow.TRACE_COLUMNS, trace.data)], checks


def scenario_kasner_flow(*, dim=3, sigma_volume=1.0, circle_length=1.0,
                         tau_start=-10.0, tau_end=-0.1, steps=10000):
    model = _model(models.KasnerModel, dim, sigma_volume, circle_length)
    trace, match = _model_flow(model, tau_start, tau_end, steps)
    report = flow.ham_monotonicity_check(trace)
    checks = [
        _check("kasner_closed_form_rel_err", match, 0.0, 1e-6),
        _check("kasner_ham_increases", float(report.n_increases), 0.0, 0.0),
        _check("kasner_monotonicity_identity", report.max_identity_mismatch, 0.0,
               flow.HAM_IDENTITY_TOL),
    ]
    checks += _flow_trace_checks("kasner", trace)
    return [("kasner_flow_trace.csv", flow.TRACE_COLUMNS, trace.data)], checks


def scenario_lichnerowicz_sweep(*, dim=3, volume=1.0,
                                tau_values=(-1.0, -2.0, -3.0, -4.0, -5.0),
                                sigma_sq_values=(0.0, 4.0, 8.0, 12.0)):
    bg = _model(lichnerowicz.ConformalBackground, dim, volume)
    if any(t >= 0 for t in tau_values):
        raise ConfigError("tau_values must be negative")
    if any(s < 0 for s in sigma_sq_values):
        raise ConfigError("sigma_sq_values must be non-negative")
    if 0.0 not in sigma_sq_values:
        raise ConfigError("sigma_sq_values must include 0 for the exact-root check")

    rows = lichnerowicz.sweep_constant_sigma(bg, tau_values, sigma_sq_values)

    # a SWEEP_COLUMNS row is (tau, sigma_sq, u_min, u_max, ham, bound_nn_vol);
    # each worst case is a max_or_nan, so a NaN in any row fails its check
    refs = [lichnerowicz.reference_factor(dim, row[0]) for row in rows]
    exact_err = flow.max_or_nan(abs(u - ref) for row, ref in zip(rows, refs)
                                if row[1] == 0.0 for u in row[2:4])
    barrier_viol = flow.max_or_nan((ref - row[2]) / ref for row, ref in zip(rows, refs))
    ham_viol = flow.max_or_nan((row[5] - row[4]) / row[5] for row in rows)

    return [("lichnerowicz_sweep.csv", lichnerowicz.SWEEP_COLUMNS, rows)], [
        _check("lich_zero_sigma_exact_err", exact_err, 0.0, 1e-12),
        _check("lich_barrier_violation", barrier_viol, 0.0, 1e-12),
        _check("lich_ham_bound_violation", ham_viol, 0.0, 1e-12),
    ]


def _check_seed(seed: int) -> None:
    """numpy.random.default_rng takes no negative seed."""
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")


def scenario_riccati(*, seed=2024, trials=5, steps=2000, t_values=(0.3, 0.9, 1.5)):
    _check_seed(seed)
    if trials < 1:
        raise ConfigError("trials must be positive")
    if steps < 1:
        raise ConfigError("steps must be positive")
    if any(t <= 0 for t in t_values):
        raise ConfigError("t_values must be positive")

    rows, _ = models.riccati_trials(seed, trials, t_values, steps)
    header = ("trial", "dim", "t", "integration_err", "semigroup_err")
    return [("riccati_checks.csv", header, rows)], [
        _check("riccati_integration_err", flow.max_or_nan(r[3] for r in rows), 0.0, 1e-8),
        _check("riccati_semigroup_err", flow.max_or_nan(r[4] for r in rows), 0.0, 1e-10),
    ]


# Boost factors amplify rounding by ~cosh(l)+sinh(l) per letter, so the default
# random-word length and translation size are kept where the exact cocycle rule
# is still resolvable at the 1e-9 scale.
def scenario_bolza_check(*, seed=7, words=20, word_length=5):
    _check_seed(seed)
    if words < 1 or word_length < 2:
        raise ConfigError("words must be >= 1 and word_length >= 2")
    from . import holonomy

    rows = holonomy.bolza_suite(seed, words, word_length)
    value = dict(rows)
    bounds = (("relator_residual", 0.0, 1e-9), ("octagon_area", 4.0 * math.pi, 1e-3),
              ("cocycle_rule_err", 0.0, 1e-9), ("coboundary_relator_residual", 0.0, 1e-9),
              ("gauss_equivariance_err", 0.0, 1e-9))
    checks = [_check("bolza_" + name, value[name], expected, tol)
              for name, expected, tol in bounds]
    return [("bolza_quantities.csv", ("quantity", "value"), rows)], checks


def scenario_limit_experiment(*, cocycle_scale=0.002, lambdas=(1.0, 2.0, 4.0, 8.0),
                              extent=6.4, nodes=321, word_length=3, relax_tol=1e-8,
                              coboundary_size=0.15):
    if cocycle_scale <= 0 or coboundary_size <= 0:
        raise ConfigError("cocycle_scale and coboundary_size must be positive")
    if not 1 <= word_length <= LIMIT_MAX_WORD_LENGTH:
        raise ConfigError(f"word_length must lie in 1..{LIMIT_MAX_WORD_LENGTH}")
    if any(lam <= 0 for lam in lambdas) or len(lambdas) < 2:
        raise ConfigError("lambdas must be positive and at least two values")
    if relax_tol <= 0:
        raise ConfigError("relax_tol must be positive")
    if not 5 <= nodes <= LIMIT_MAX_NODES or not extent > 0:
        raise ConfigError(f"nodes must lie in 5..{LIMIT_MAX_NODES} and extent be positive")
    from . import graphs, holonomy

    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(cocycle_scale))
    # the cocycle closes on the octagon relation: per unit of cocycle_scale
    # its translation reads 3.85e-12 at every scale from 1e-4 to 10, and 8.54
    # with the weights (1, -1/3, -1/3, 0), which break the relation
    relator = holonomy.extend_cocycle(rep, holonomy.BOLZA_RELATOR)
    relator_res = flow.max_or_nan(abs(float(x)) for x in relator) / cocycle_scale
    # Pure-gauge control: a coboundary sized to the same orbit-translation
    # magnitude must not move the volume ratio beyond quadrature noise.  Its
    # envelope joins the lambdas' queue, and it is relaxed last, with the one
    # sparse LU carried through every relaxation.
    rows, base_row, cob_row = graphs.limit_experiment_with_control(
        rep, lambdas, coboundary_size, extent=extent, nodes=nodes,
        word_length=word_length, relax_tol=relax_tol)

    devs = [abs(r[3] - 1.0) for r in rows]
    # a NaN deviation is not a decrease, and a NaN residual makes max_or_nan NaN
    increases = sum(1 for i in range(len(devs) - 1) if not devs[i + 1] < devs[i])
    worst_resid = flow.max_or_nan(r[4] for r in [base_row, *rows, cob_row])

    tables = [("limit_experiment.csv", graphs.LIMIT_COLUMNS, rows),
              ("coboundary_control.csv", graphs.LIMIT_COLUMNS, [cob_row])]
    return tables, [
        _check("limit_cocycle_relator_residual", relator_res, 0.0, holonomy.RELATOR_TOL),
        _check("limit_dev_increases", float(increases), 0.0, 0.0),
        _check("limit_relax_residual", worst_resid, 0.0, 10.0 * relax_tol),
        _check("limit_baseline_volume", base_row[2], 4.0 * math.pi, 5e-3),
        _check("limit_coboundary_ratio", cob_row[3], 1.0, 2e-4),
    ]


#: default refinement sizes by dimension: three grids with the finest at most
#: 321^2, 81^3 or 41^4 nodes
GRAPH_REFINEMENT_NODES = {2: (81, 161, 321), 3: (21, 41, 81), 4: (11, 21, 41)}
#: largest grid graph-check samples, the default energy grid: a cap on work, since
#: both stages sample their grids in row blocks and never hold a whole one
GRAPH_MAX_GRID_NODES = 2401**2
#: largest side of the limit-experiment grid: at its other defaults a run peaks
#: at 215, 432 and 754 MB of RSS on 321^2, 481^2 and 641^2 nodes
LIMIT_MAX_NODES = 641
#: longest word of the limit-experiment orbits: the orbit grows about 7x per
#: letter, and its enumeration alone takes 2.5 s and 209 MB of RSS at 6
#: letters (155,766 elements); at that growth 7 would need about 1.4 GB and 8
#: about 10 GB before the envelope's range check could refuse the orbit
LIMIT_MAX_WORD_LENGTH = 6


def scenario_graph_check(*, dim=2, hyperboloid_s=1.0, extent=2.0,
                         energy_extent=6.0, refinement_nodes=(), energy_nodes=2401):
    """``refinement_nodes = ()``, which no config text can give, selects
    ``GRAPH_REFINEMENT_NODES[dim]``."""
    if not 2 <= dim <= 4:
        raise ConfigError("dim must be 2, 3, or 4")
    if hyperboloid_s <= 0:
        raise ConfigError("hyperboloid_s must be positive")
    if not (extent > 0 and energy_extent > 0):
        raise ConfigError("extent and energy_extent must be positive")
    sizes = refinement_nodes or GRAPH_REFINEMENT_NODES[dim]
    if not all(float(v).is_integer() for v in sizes):
        raise ConfigError("refinement_nodes must be integers")
    nodes_list = [int(v) for v in sizes]
    if len(nodes_list) < 3 or any(n < 9 for n in nodes_list):
        raise ConfigError("refinement_nodes needs at least three sizes of 9+ nodes")
    if any(a >= b for a, b in zip(nodes_list, nodes_list[1:])):
        raise ConfigError("refinement_nodes must be strictly increasing")
    if nodes_list[-1] ** dim > GRAPH_MAX_GRID_NODES:
        raise ConfigError(f"refinement_nodes: {nodes_list[-1]}^{dim} grid nodes exceed "
                          f"the limit of {GRAPH_MAX_GRID_NODES} (2401^2)")
    if energy_nodes < 9 or energy_nodes**2 > GRAPH_MAX_GRID_NODES:
        raise ConfigError(f"energy_nodes must lie in 9..2401 (the limit of "
                          f"{GRAPH_MAX_GRID_NODES} grid nodes), got {energy_nodes}")
    from . import graphs

    conv_rows, det_err = graphs.curvature_convergence(hyperboloid_s, extent, nodes_list, dim)
    orders = [math.log2(a[2] / b[2]) for a, b in zip(conv_rows, conv_rows[1:])]

    checks = [_check(f"graph_convergence_order_{i}", order, 2.0, 0.2)
              for i, order in enumerate(orders)]
    checks.append(_check("graph_det_identity_err", det_err, 0.0, 1e-12))

    # sampled block by block: no whole energy grid is built
    field = graphs.sampled_hyperboloid(1.0, energy_extent, energy_nodes)
    report = graphs.quotient_energy(field, graphs.bolza_domain_level)
    tau, chi = -2.0, -2
    identity = report.energy - (4.0 * math.pi * chi + tau**2 * report.volume)
    checks.append(_check("graph_energy_identity", identity, 0.0, 1e-3))
    tables = [("graph_convergence.csv", ("nodes", "spacing", "max_mean_curvature_err"),
               conv_rows),
              ("graph_energy.csv", ("energy", "volume", "tau_mean", "identity_residual"),
               [(report.energy, report.volume, report.tau_mean, identity)])]
    return tables, checks


SCENARIOS = {
    "cone-flow": scenario_cone_flow,
    "kasner-flow": scenario_kasner_flow,
    "lichnerowicz-sweep": scenario_lichnerowicz_sweep,
    "riccati": scenario_riccati,
    "bolza-check": scenario_bolza_check,
    "limit-experiment": scenario_limit_experiment,
    "graph-check": scenario_graph_check,
}

#: scenario -> {option: default}, the keyword-only parameters of its function
#: in their order (each scenario function takes options keyword-only, and
#: every one has a default)
SCENARIO_OPTIONS = {name: dict(run.__kwdefaults__) for name, run in SCENARIOS.items()}


def _scenario_kwargs(cfg: RunConfig, requested: str | None) -> tuple:
    """(scenario, keyword arguments): the scenario ``requested``, or else the
    config's, and each of its options read from its scoped options with the
    getter for its default's type.

    A section or key that nothing reads would leave a default in force
    without a word, so it is a ConfigError: each section is checked against
    its own scenario, and each global but ``scenario`` against the selected one.
    """
    for name, entries in cfg.sections.items():
        if name not in SCENARIOS:
            raise ConfigError(f"section [{name}] names no scenario; see --list-scenarios")
        for key in entries:
            if key not in SCENARIO_OPTIONS[name]:
                raise ConfigError(f"section [{name}]: {name} reads no option {key!r}")
    scenario = requested or cfg.options.get("scenario")
    if not scenario:
        raise ConfigError("no scenario selected: pass --scenario or set scenario= in the config")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; see --list-scenarios")
    declared = SCENARIO_OPTIONS[scenario]
    for key in cfg.options:
        if key not in declared and key != "scenario":
            raise ConfigError(f"{scenario} reads no option {key!r}")
    opts = cfg.scoped(scenario)
    # looked up on each call, so that a test can record the keys the getters read
    getters = {int: get_int, float: get_float, tuple: get_floats}
    return scenario, {key: getters[type(default)](opts, key, default)
                      for key, default in declared.items()}


def _same_bytes(path_a: str, path_b: str) -> bool:
    """Whether two files hold the same bytes, both read afresh: filecmp.cmp reuses
    a verdict while path, size and mtime match, which a rewrite can leave so."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return fa.read() == fb.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmcflat",
        description="Run CMC-flow scenarios and write deterministic CSV artifacts.")
    parser.add_argument("--config", help="key=value config file with [scenario] sections")
    parser.add_argument("--out", default="cmcflat_out", help="output directory")
    parser.add_argument("--scenario", help="scenario name (overrides the config)")
    parser.add_argument("--list-scenarios", action="store_true")
    parser.add_argument("--check-golden", metavar="DIR",
                        help="after the run, compare artifacts byte for byte with this directory")
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in SCENARIOS:
            print(name)
        return EXIT_PASS

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        scenario, kwargs = _scenario_kwargs(cfg, args.scenario)
        tables, summary = SCENARIOS[scenario](**kwargs)
        tables.append(("summary.csv", SUMMARY_HEADER, summary))
        os.makedirs(args.out, exist_ok=True)
        for name, header, rows in tables:
            csvio.write_csv(os.path.join(args.out, name), header, rows)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure in {scenario}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    artifacts = [name for name, _, _ in tables]

    all_pass = all(ok for *_, ok in summary)
    for name, measured, expected, tol, ok in summary:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: measured={csvio.format_value(measured)} "
              f"expected={csvio.format_value(expected)} tol={csvio.format_value(tol)}")

    if args.check_golden:
        mismatches = []
        for name in artifacts:
            golden_path = os.path.join(args.check_golden, name)
            if not os.path.isfile(golden_path):
                mismatches.append(f"{name}: no golden counterpart")
            elif not _same_bytes(os.path.join(args.out, name), golden_path):
                mismatches.append(f"{name}: differs from its golden file")
        if os.path.isdir(args.check_golden):
            mismatches += [f"{name}: not written by this run"
                           for name in sorted(os.listdir(args.check_golden))
                           if name not in artifacts]
        if mismatches:
            for line in mismatches:
                print(f"golden mismatch: {line}", file=sys.stderr)
            return EXIT_GOLDEN
        print(f"golden check: {len(artifacts)} artifacts match")

    return EXIT_PASS if all_pass else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
