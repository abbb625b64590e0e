"""The cmcflat layer boundaries the traced run wraps, and the per-layer metrics.

Each target is a public function (or method) of one cmcflat module.  The
scipy sparse solve is wrapped where ``graphs`` reaches it, as
``scipy.sparse.linalg.spsolve``, and is reported as ``graphs.spsolve``.
Nothing under ``src/`` is edited: the wrappers are installed in the child
process that runs the CLI and removed again before it exits.
"""
from __future__ import annotations

import importlib
import math
import os

import spantrace

LAYERS = ("cli", "csvio", "graphs", "holonomy", "minkowski", "flow", "lichnerowicz", "models")


def _system_size(q, args, kwargs, result):
    # Every solve of a run has the same size: report it, not a sum over solves.
    matrix = args[0]
    q["graphs.spsolve.unknowns"] = max(q["graphs.spsolve.unknowns"], matrix.shape[0])
    q["graphs.spsolve.nnz"] = max(q["graphs.spsolve.nnz"], matrix.nnz)


def _relax_iterations(q, args, kwargs, result):
    q["graphs.cmc_relax.newton_iters"] += result.iterations


def _geometry_nodes(q, args, kwargs, result):
    q["graphs.graph_geometry.nodes"] += args[0].values.size


def _energy_cells(q, args, kwargs, result):
    q["graphs.quotient_energy.cells"] += math.prod(s - 1 for s in args[0].shape)


def _orbit_elements(q, args, kwargs, result):
    q["holonomy.orbit_isometries.elements"] += len(result)


def _level_nodes(q, args, kwargs, result):
    q["holonomy.octagon_level.nodes"] += result.size


def _lich_iterations(q, args, kwargs, result):
    q["lichnerowicz.solve_lichnerowicz.newton_iters"] += len(result.residual_history) - 1


def _csv_bytes(q, args, kwargs, result):
    q["csvio.write_csv.bytes"] += os.path.getsize(args[0])


# (module, owner inside the module or "", attribute, span name, measure)
TARGETS = (
    ("cmcflat.cli", "", "main", "cli.main", None),
    ("cmcflat.csvio", "", "write_csv", "csvio.write_csv", _csv_bytes),
    ("scipy.sparse.linalg", "", "spsolve", "graphs.spsolve", _system_size),
    ("cmcflat.graphs", "", "graph_geometry", "graphs.graph_geometry", _geometry_nodes),
    ("cmcflat.graphs", "", "cmc_relax", "graphs.cmc_relax", _relax_iterations),
    ("cmcflat.graphs", "", "orbit_envelope_field", "graphs.orbit_envelope_field", None),
    ("cmcflat.graphs", "", "quotient_energy", "graphs.quotient_energy", _energy_cells),
    ("cmcflat.holonomy", "", "orbit_isometries", "holonomy.orbit_isometries", _orbit_elements),
    ("cmcflat.holonomy", "", "octagon_level", "holonomy.octagon_level", _level_nodes),
    ("cmcflat.holonomy", "", "extend_cocycle", "holonomy.extend_cocycle", None),
    ("cmcflat.holonomy", "", "evaluate_word", "holonomy.evaluate_word", None),
    ("cmcflat.minkowski", "MinkIsometry", "compose", "minkowski.MinkIsometry.compose", None),
    ("cmcflat.flow", "", "run_flow", "flow.run_flow", None),
    ("cmcflat.flow", "", "flow_step", "flow.flow_step", None),
    ("cmcflat.flow", "", "solve_lapse", "flow.solve_lapse", None),
    ("cmcflat.flow", "", "flat_constraint_residual", "flow.flat_constraint_residual", None),
    ("cmcflat.flow", "", "ham_monotonicity_check", "flow.ham_monotonicity_check", None),
    ("cmcflat.lichnerowicz", "", "solve_lichnerowicz", "lichnerowicz.solve_lichnerowicz",
     _lich_iterations),
    ("cmcflat.models", "", "riccati_integrate", "models.riccati_integrate", None),
)

CLI_MODULES = ("cmcflat.cli", "cmcflat.csvio", "cmcflat.graphs", "cmcflat.holonomy",
               "cmcflat.minkowski", "cmcflat.flow", "cmcflat.lichnerowicz", "cmcflat.models")


def install(tracer: spantrace.Tracer) -> None:
    """Wrap every target, including the names other cmcflat modules import it under."""
    aliases = [importlib.import_module(m) for m in CLI_MODULES]
    for module_name, owner, attribute, name, measure in TARGETS:
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner else module
        tracer.patch(target, attribute, name, measure, aliases=() if owner else aliases)


# Per-layer metrics: (name, unit, kind, argument).  Kinds: a span statistic
# from spantrace.summarize ("calls", "s", "self_s"), a measured quantity
# summed ("quantity") or maximized ("largest") over invocations, a value
# derived from several spans ("derived"), or a layer's total self time.
PER_LAYER = (
    ("graphs.spsolve.calls", "count", "calls", "graphs.spsolve"),
    ("graphs.spsolve.s", "s", "s", "graphs.spsolve"),
    ("graphs.spsolve.unknowns", "count", "largest", "graphs.spsolve.unknowns"),
    ("graphs.spsolve.nnz", "count", "largest", "graphs.spsolve.nnz"),
    ("graphs.cmc_relax.calls", "count", "calls", "graphs.cmc_relax"),
    ("graphs.cmc_relax.self_s", "s", "self_s", "graphs.cmc_relax"),
    ("graphs.cmc_relax.newton_iters", "count", "quantity", "graphs.cmc_relax.newton_iters"),
    ("graphs.cmc_relax.line_search_trials", "count", "derived", "line_search_trials"),
    ("graphs.orbit_envelope_field.calls", "count", "calls", "graphs.orbit_envelope_field"),
    ("graphs.orbit_envelope_field.self_s", "s", "self_s", "graphs.orbit_envelope_field"),
    ("holonomy.orbit_isometries.calls", "count", "calls", "holonomy.orbit_isometries"),
    ("holonomy.orbit_isometries.s", "s", "s", "holonomy.orbit_isometries"),
    ("holonomy.orbit_isometries.elements", "count", "quantity",
     "holonomy.orbit_isometries.elements"),
    ("minkowski.MinkIsometry.compose.calls", "count", "calls", "minkowski.MinkIsometry.compose"),
    ("graphs.graph_geometry.calls", "count", "calls", "graphs.graph_geometry"),
    ("graphs.graph_geometry.s", "s", "s", "graphs.graph_geometry"),
    ("graphs.graph_geometry.nodes", "count", "quantity", "graphs.graph_geometry.nodes"),
    ("graphs.quotient_energy.calls", "count", "calls", "graphs.quotient_energy"),
    ("graphs.quotient_energy.self_s", "s", "self_s", "graphs.quotient_energy"),
    ("graphs.quotient_energy.cells", "count", "quantity", "graphs.quotient_energy.cells"),
    ("holonomy.octagon_level.calls", "count", "calls", "holonomy.octagon_level"),
    ("holonomy.octagon_level.s", "s", "s", "holonomy.octagon_level"),
    ("holonomy.octagon_level.nodes", "count", "quantity", "holonomy.octagon_level.nodes"),
    ("flow.run_flow.self_s", "s", "self_s", "flow.run_flow"),
    ("flow.flow_step.calls", "count", "calls", "flow.flow_step"),
    ("flow.flow_step.s", "s", "s", "flow.flow_step"),
    ("flow.flow_step.halvings", "count", "derived", "drift_halvings"),
    ("flow.solve_lapse.calls", "count", "calls", "flow.solve_lapse"),
    ("flow.flat_constraint_residual.s", "s", "s", "flow.flat_constraint_residual"),
    ("flow.ham_monotonicity_check.s", "s", "s", "flow.ham_monotonicity_check"),
    ("lichnerowicz.solve_lichnerowicz.calls", "count", "calls", "lichnerowicz.solve_lichnerowicz"),
    ("lichnerowicz.solve_lichnerowicz.newton_iters", "count", "quantity",
     "lichnerowicz.solve_lichnerowicz.newton_iters"),
    ("lichnerowicz.solve_lichnerowicz.s", "s", "s", "lichnerowicz.solve_lichnerowicz"),
    ("models.riccati_integrate.calls", "count", "calls", "models.riccati_integrate"),
    ("models.riccati_integrate.s", "s", "s", "models.riccati_integrate"),
    ("holonomy.extend_cocycle.calls", "count", "calls", "holonomy.extend_cocycle"),
    ("holonomy.evaluate_word.calls", "count", "calls", "holonomy.evaluate_word"),
    ("csvio.write_csv.calls", "count", "calls", "csvio.write_csv"),
    ("csvio.write_csv.s", "s", "s", "csvio.write_csv"),
    ("csvio.write_csv.bytes", "B", "quantity", "csvio.write_csv.bytes"),
) + tuple((f"layer.{layer}.self_s", "s", "layer", layer) for layer in LAYERS)

# Added by the runner: traced wall_s minus untraced wall_s.
TRACE_OVERHEAD = ("trace_overhead_s", "s")


def derived(spans, stats: dict) -> dict:
    relax_calls = stats.get("graphs.cmc_relax", {}).get("calls", 0)
    return {
        # The first graph_geometry of a relaxation scores the start field;
        # every later one scores a line-search trial.
        "line_search_trials":
            spantrace.count_within(spans, "graphs.graph_geometry", "graphs.cmc_relax")
            - relax_calls,
        # A drift-repair halving retries a step as two nested half steps.
        "drift_halvings":
            spantrace.count_within(spans, "flow.flow_step", "flow.flow_step") // 2,
    }


def per_layer_metrics(invocations) -> dict:
    """Per-layer metric values (name -> (value, unit)) of one traced pass.

    ``invocations`` holds one (spans, quantities) pair per CLI invocation.
    Values add up over invocations, except "largest" quantities.
    """
    out: dict = {}
    for spans, quantities in invocations:
        stats = spantrace.summarize(spans)
        extra = derived(spans, stats)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, entry in stats.items():
            layer_self[name.split(".", 1)[0]] += entry["self_s"]
        for name, unit, kind, key in PER_LAYER:
            if kind in ("quantity", "largest"):
                value = quantities.get(key, 0)
            elif kind == "derived":
                value = extra[key]
            elif kind == "layer":
                value = layer_self[key]
            else:
                value = stats.get(key, {}).get(kind, 0)
            before = out.get(name, (0, unit))[0]
            out[name] = (max(before, value) if kind == "largest" else before + value, unit)
    return out
