"""Scenario runner: dispatch a config to the library and write CSV artifacts.

Each scenario produces deterministic CSV files plus a ``summary.csv`` of
pass/fail check records.  Exit codes: 0 all checks pass, 2 configuration
error (nothing written), 3 numerical failure (partial artifacts retained),
4 golden-file mismatch.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import csvio, flow, graphs, holonomy, lichnerowicz, models
from .config import ConfigError, RunConfig, get_float, get_floats, get_int, load_config

SUMMARY_HEADER = ("name", "measured", "expected", "tolerance", "pass")

EXIT_PASS = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GOLDEN = 4


def _check(name: str, measured: float, expected: float, tolerance: float):
    ok = abs(measured - expected) <= tolerance
    return (name, float(measured), float(expected), float(tolerance), bool(ok))


def _write_artifact(out_dir: str, artifacts: list, name: str, header, rows) -> None:
    path = os.path.join(out_dir, name)
    csvio.write_csv(path, header, rows)
    artifacts.append(name)


def _flow_trace_checks(prefix: str, trace: flow.HamTrace):
    """The trace's lapse-bound and constraint checks; the bound checks measure
    the dimensionless worst violation of 1/tau^2 <= N <= n/tau^2."""
    tau = trace.column("tau")
    lo = 1.0 / tau**2
    hi = trace.ndim / tau**2
    lo_viol = np.maximum(0.0, np.max((lo - trace.column("lapse_min")) / lo))
    hi_viol = np.maximum(0.0, np.max((trace.column("lapse_max") - hi) / hi))
    return [
        _check(prefix + "_lapse_lower_bound_violation", lo_viol, 0.0, 1e-12),
        _check(prefix + "_lapse_upper_bound_violation", hi_viol, 0.0, 1e-12),
        _check(prefix + "_max_gauss_residual",
               float(np.max(trace.column("gauss_residual"))), 0.0, 1e-8),
        _check(prefix + "_max_codazzi_residual",
               float(np.max(trace.column("codazzi_residual"))), 0.0, 1e-8),
    ]


def _flow_range(opts) -> tuple:
    tau_start = get_float(opts, "tau_start", -10.0)
    tau_end = get_float(opts, "tau_end", -0.1)
    steps = get_int(opts, "steps", 10000)
    if not (tau_start < tau_end < 0.0):
        raise ConfigError("require tau_start < tau_end < 0")
    if steps < 2:
        raise ConfigError("steps must be at least 2")
    return tau_start, tau_end, steps


def _model(cls, *args):
    """``cls(*args)``, whose constructor checks the options' ranges, with its
    ValueError raised as a ConfigError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _model_flow(model, prefix: str, opts, out_dir, artifacts):
    """Run the flow of a model over the configured range and write
    ``<prefix>_flow_trace.csv``; returns (trace, max |Ham / ham_closed_form - 1|)."""
    tau_start, tau_end, steps = _flow_range(opts)
    state = flow.state_from_slice(models.slice_at_tau(model, tau_start))
    trace = flow.run_flow(state, tau_end, steps)
    _write_artifact(out_dir, artifacts, prefix + "_flow_trace.csv", flow.TRACE_COLUMNS,
                    trace.data)
    closed = np.array([models.ham_closed_form(model, t) for t in trace.column("tau").tolist()])
    return trace, float(np.max(np.abs(trace.column("ham") / closed - 1.0)))


def scenario_cone_flow(opts, out_dir, artifacts):
    model = _model(models.ConeModel, get_int(opts, "dim", 3), get_float(opts, "base_volume", 1.0))
    trace, drift = _model_flow(model, "cone", opts, out_dir, artifacts)
    checks = [_check("cone_ham_rel_drift", drift, 0.0, 1e-8)]
    checks += _flow_trace_checks("cone", trace)
    return checks


def scenario_kasner_flow(opts, out_dir, artifacts):
    model = _model(models.KasnerModel, get_int(opts, "dim", 3),
                   get_float(opts, "sigma_volume", 1.0), get_float(opts, "circle_length", 1.0))
    trace, match = _model_flow(model, "kasner", opts, out_dir, artifacts)
    report = flow.ham_monotonicity_check(trace)
    checks = [
        _check("kasner_closed_form_rel_err", match, 0.0, 1e-6),
        _check("kasner_ham_increases", float(report.n_increases), 0.0, 0.0),
        _check("kasner_monotonicity_identity", report.max_identity_mismatch, 0.0,
               flow.HAM_IDENTITY_TOL),
    ]
    checks += _flow_trace_checks("kasner", trace)
    return checks


def scenario_lichnerowicz_sweep(opts, out_dir, artifacts):
    bg = _model(lichnerowicz.ConformalBackground, get_int(opts, "dim", 3),
                get_float(opts, "volume", 1.0))
    tau_values = get_floats(opts, "tau_values", (-1.0, -2.0, -3.0, -4.0, -5.0))
    sigma_values = get_floats(opts, "sigma_sq_values", (0.0, 4.0, 8.0, 12.0))
    if any(t >= 0 for t in tau_values):
        raise ConfigError("tau_values must be negative")
    if any(s < 0 for s in sigma_values):
        raise ConfigError("sigma_sq_values must be non-negative")
    if 0.0 not in sigma_values:
        raise ConfigError("sigma_sq_values must include 0 for the exact-root check")

    rows = lichnerowicz.sweep_constant_sigma(bg, tau_values, sigma_values)
    _write_artifact(out_dir, artifacts, "lichnerowicz_sweep.csv",
                    lichnerowicz.SWEEP_COLUMNS, rows)

    ndim = bg.dim
    data = np.asarray(rows, dtype=float)
    tau_col, sig_col = data[:, 0], data[:, 1]
    u_min, u_max = data[:, 2], data[:, 3]
    ham, bound = data[:, 4], data[:, 5]

    refs = np.array([lichnerowicz.reference_factor(ndim, t) for t in tau_col])
    zero = sig_col == 0.0
    exact_err = float(np.max(np.maximum(np.abs(u_min[zero] - refs[zero]),
                                        np.abs(u_max[zero] - refs[zero]))))
    barrier_viol = float(np.maximum(0.0, np.max((refs - u_min) / refs)))
    ham_viol = float(np.maximum(0.0, np.max((bound - ham) / bound)))
    report = lichnerowicz.sigma_report(ham, ndim)
    report_expected = lichnerowicz.sigma_report([ndim**ndim * bg.volume], ndim)

    return [
        _check("lich_zero_sigma_exact_err", exact_err, 0.0, 1e-12),
        _check("lich_barrier_violation", barrier_viol, 0.0, 1e-12),
        _check("lich_ham_bound_violation", ham_viol, 0.0, 1e-12),
        _check("lich_sigma_report", report, report_expected, 1e-9),
    ]


def _seed(opts, default: int) -> int:
    """The ``seed`` option; np.random.default_rng takes no negative seed."""
    seed = get_int(opts, "seed", default)
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    return seed


def scenario_riccati(opts, out_dir, artifacts):
    seed = _seed(opts, 2024)
    trials = get_int(opts, "trials", 5)
    steps = get_int(opts, "steps", 2000)
    t_values = get_floats(opts, "t_values", (0.3, 0.9, 1.5))
    if trials < 1:
        raise ConfigError("trials must be positive")
    if steps < 1:
        raise ConfigError("steps must be positive")
    if any(t <= 0 for t in t_values):
        raise ConfigError("t_values must be positive")

    rows, _ = models.riccati_trials(seed, trials, t_values, steps)
    _write_artifact(out_dir, artifacts, "riccati_checks.csv",
                    ("trial", "dim", "t", "integration_err", "semigroup_err"), rows)

    return [
        _check("riccati_integration_err", np.max([r[3] for r in rows]), 0.0, 1e-8),
        _check("riccati_semigroup_err", np.max([r[4] for r in rows]), 0.0, 1e-10),
    ]


def scenario_bolza_check(opts, out_dir, artifacts):
    seed = _seed(opts, 7)
    n_words = get_int(opts, "words", 20)
    # Boost factors amplify rounding by ~cosh(l)+sinh(l) per letter, so the
    # random-word length and translation size are kept where the exact
    # cocycle rule is still resolvable at the 1e-9 scale.
    word_length = get_int(opts, "word_length", 5)
    if n_words < 1 or word_length < 2:
        raise ConfigError("words must be >= 1 and word_length >= 2")

    rows = holonomy.bolza_suite(seed, n_words, word_length)
    _write_artifact(out_dir, artifacts, "bolza_quantities.csv", ("quantity", "value"), rows)

    value = dict(rows)
    bounds = (("relator_residual", 0.0, 1e-9), ("octagon_area", 4.0 * math.pi, 1e-3),
              ("cocycle_rule_err", 0.0, 1e-9), ("coboundary_relator_residual", 0.0, 1e-9),
              ("gauss_equivariance_err", 0.0, 1e-9))
    return [_check("bolza_" + name, value[name], expected, tol) for name, expected, tol in bounds]


def scenario_limit_experiment(opts, out_dir, artifacts):
    scale = get_float(opts, "cocycle_scale", 0.002)
    lambdas = get_floats(opts, "lambdas", (1.0, 2.0, 4.0, 8.0))
    extent = get_float(opts, "extent", 6.4)
    nodes = get_int(opts, "nodes", 321)
    word_length = get_int(opts, "word_length", 3)
    relax_tol = get_float(opts, "relax_tol", 1e-8)
    coboundary_size = get_float(opts, "coboundary_size", 0.15)
    if scale <= 0 or coboundary_size <= 0:
        raise ConfigError("cocycle_scale and coboundary_size must be positive")
    if word_length < 1:
        raise ConfigError("word_length must be at least 1")
    if any(lam <= 0 for lam in lambdas) or len(lambdas) < 2:
        raise ConfigError("lambdas must be positive and at least two values")
    if relax_tol <= 0:
        raise ConfigError("relax_tol must be positive")
    if nodes < 5 or not extent > 0:
        raise ConfigError("nodes must be at least 5 and extent positive")

    rep = holonomy.bolza_rep(holonomy.bolza_nontrivial_cocycle(scale))
    # one sparse LU carried through every relaxation, the coboundary's too
    chord = graphs.ChordLU()
    rows, base_volume = graphs.limit_experiment(
        rep, lambdas, extent=extent, nodes=nodes,
        word_length=word_length, relax_tol=relax_tol, chord=chord)
    _write_artifact(out_dir, artifacts, "limit_experiment.csv", graphs.LIMIT_COLUMNS, rows)

    devs = [abs(r[3] - 1.0) for r in rows]
    # a NaN deviation is not a decrease, and a NaN residual makes np.max NaN
    increases = sum(1 for i in range(len(devs) - 1) if not devs[i + 1] < devs[i])
    worst_resid = np.max([r[4] for r in rows])

    # Pure-gauge control: a coboundary sized to the same orbit-translation
    # magnitude must not move the volume ratio beyond quadrature noise.
    cob_row = graphs.coboundary_control(rep, base_volume, coboundary_size, extent, nodes,
                                        word_length, relax_tol, chord)
    _write_artifact(out_dir, artifacts, "coboundary_control.csv",
                    graphs.LIMIT_COLUMNS, [cob_row])

    return [
        _check("limit_dev_increases", float(increases), 0.0, 0.0),
        _check("limit_relax_residual", worst_resid, 0.0, 10.0 * relax_tol),
        _check("limit_baseline_volume", base_volume, 4.0 * math.pi, 5e-3),
        _check("limit_coboundary_ratio", cob_row[3], 1.0, 2e-4),
    ]


#: default refinement sizes by dimension: three grids with the finest at most
#: 321^2, 81^3 or 41^4 nodes
GRAPH_REFINEMENT_NODES = {2: (81, 161, 321), 3: (21, 41, 81), 4: (11, 21, 41)}
#: largest grid graph-check builds, the default energy grid
GRAPH_MAX_GRID_NODES = 2401**2


def scenario_graph_check(opts, out_dir, artifacts):
    ndim = get_int(opts, "dim", 2)
    if not 2 <= ndim <= 4:
        raise ConfigError("dim must be 2, 3, or 4")
    s = get_float(opts, "hyperboloid_s", 1.0)
    if s <= 0:
        raise ConfigError("hyperboloid_s must be positive")
    extent = get_float(opts, "extent", 2.0)
    fine_extent = get_float(opts, "energy_extent", 6.0)
    if not (extent > 0 and fine_extent > 0):
        raise ConfigError("extent and energy_extent must be positive")
    sizes = get_floats(opts, "refinement_nodes", GRAPH_REFINEMENT_NODES[ndim])
    if not all(float(v).is_integer() for v in sizes):
        raise ConfigError("refinement_nodes must be integers")
    nodes_list = [int(v) for v in sizes]
    if len(nodes_list) < 3 or any(n < 9 for n in nodes_list):
        raise ConfigError("refinement_nodes needs at least three sizes of 9+ nodes")
    if any(a >= b for a, b in zip(nodes_list, nodes_list[1:])):
        raise ConfigError("refinement_nodes must be strictly increasing")
    if nodes_list[-1] ** ndim > GRAPH_MAX_GRID_NODES:
        raise ConfigError(f"refinement_nodes: {nodes_list[-1]}^{ndim} grid nodes exceed "
                          f"the limit of {GRAPH_MAX_GRID_NODES} (2401^2)")
    fine_nodes = get_int(opts, "energy_nodes", 2401)
    if fine_nodes < 9 or fine_nodes**2 > GRAPH_MAX_GRID_NODES:
        raise ConfigError(f"energy_nodes must lie in 9..2401 (the limit of "
                          f"{GRAPH_MAX_GRID_NODES} grid nodes), got {fine_nodes}")

    conv_rows, det_err = graphs.curvature_convergence(s, extent, nodes_list, ndim)
    orders = [math.log2(a[2] / b[2]) for a, b in zip(conv_rows, conv_rows[1:])]
    _write_artifact(out_dir, artifacts, "graph_convergence.csv",
                    ("nodes", "spacing", "max_mean_curvature_err"), conv_rows)

    checks = [_check(f"graph_convergence_order_{i}", order, 2.0, 0.2)
              for i, order in enumerate(orders)]
    checks.append(_check("graph_det_identity_err", det_err, 0.0, 1e-12))

    field = graphs.hyperboloid_field(1.0, fine_extent, fine_nodes, ndim=2)
    report = graphs.quotient_energy(field, graphs.bolza_domain_level)
    tau, chi = -2.0, -2
    identity = report.energy - (4.0 * math.pi * chi + tau**2 * report.volume)
    _write_artifact(out_dir, artifacts, "graph_energy.csv",
                    ("energy", "volume", "tau_mean", "identity_residual"),
                    [(report.energy, report.volume, report.tau_mean, identity)])
    checks.append(_check("graph_energy_identity", identity, 0.0, 1e-3))
    return checks


SCENARIOS = {
    "cone-flow": scenario_cone_flow,
    "kasner-flow": scenario_kasner_flow,
    "lichnerowicz-sweep": scenario_lichnerowicz_sweep,
    "riccati": scenario_riccati,
    "bolza-check": scenario_bolza_check,
    "limit-experiment": scenario_limit_experiment,
    "graph-check": scenario_graph_check,
}


def compare_golden(artifact_path: str, golden_path: str, rel_tol: float) -> bool:
    """Elementwise relative comparison of two CSV files.

    Headers must match exactly (ValueError otherwise).  Finite numeric cells
    pass when |a - b| <= rel_tol * max(|a|, |b|); an infinite cell passes only
    against the same infinity, and NaN never passes; non-numeric cells must
    be equal strings.
    """
    header_a, rows_a = csvio.read_csv(artifact_path)
    header_b, rows_b = csvio.read_csv(golden_path)
    if header_a != header_b:
        raise ValueError(f"header mismatch: {header_a!r} vs {header_b!r}")
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            return False
        for cell_a, cell_b in zip(row_a, row_b):
            try:
                x, y = float(cell_a), float(cell_b)
            except ValueError:
                if cell_a != cell_b:
                    return False
                continue
            if x == y:
                continue
            # the tolerance test alone never fails for an infinite cell (inf > inf
            # and inf > nan are False), so unequal non-finite cells fail outright
            finite = math.isfinite(x) and math.isfinite(y)
            if not finite or abs(x - y) > rel_tol * max(abs(x), abs(y)):
                return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmcflat",
        description="Run CMC-flow scenarios and write deterministic CSV artifacts.")
    parser.add_argument("--config", help="key=value config file with [scenario] sections")
    parser.add_argument("--out", default="cmcflat_out", help="output directory")
    parser.add_argument("--scenario", help="scenario name (overrides the config)")
    parser.add_argument("--list-scenarios", action="store_true")
    parser.add_argument("--check-golden", metavar="DIR",
                        help="after the run, compare artifacts against this directory")
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in SCENARIOS:
            print(name)
        return EXIT_PASS

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        scenario = args.scenario or cfg.options.get("scenario")
        if not scenario:
            raise ConfigError("no scenario selected: pass --scenario or set scenario= in the config")
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}; see --list-scenarios")
        opts = cfg.scoped(scenario)
        golden_tol = get_float(opts, "golden_rel_tol", 1e-10)
        if golden_tol < 0:
            raise ConfigError("golden_rel_tol must be non-negative")
        os.makedirs(args.out, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # each scenario raises ConfigError before it writes anything
    artifacts: list = []
    try:
        summary = SCENARIOS[scenario](opts, args.out, artifacts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in {scenario}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    summary_rows = [(n, m, e, t, "true" if ok else "false") for n, m, e, t, ok in summary]
    csvio.write_csv(os.path.join(args.out, "summary.csv"), SUMMARY_HEADER, summary_rows)
    artifacts.append("summary.csv")

    all_pass = all(ok for *_, ok in summary)
    for name, measured, expected, tol, ok in summary:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: measured={csvio.format_value(measured)} "
              f"expected={csvio.format_value(expected)} tol={csvio.format_value(tol)}")

    if args.check_golden:
        mismatches = []
        for name in artifacts:
            golden_path = os.path.join(args.check_golden, name)
            if not os.path.exists(golden_path):
                mismatches.append(f"{name}: no golden counterpart")
                continue
            try:
                same = compare_golden(os.path.join(args.out, name), golden_path, golden_tol)
            except ValueError as exc:
                mismatches.append(f"{name}: {exc}")
                continue
            if not same:
                mismatches.append(f"{name}: differs beyond rel_tol {golden_tol}")
        if mismatches:
            for line in mismatches:
                print(f"golden mismatch: {line}", file=sys.stderr)
            return EXIT_GOLDEN
        print(f"golden check: {len(artifacts)} artifacts match")

    return EXIT_PASS if all_pass else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
