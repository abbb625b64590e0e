"""Tests for the benchmark's own arithmetic: span self time, recursion, restore.

    python -m pytest bench
"""
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import spantrace

ROOT = Path(__file__).resolve().parent.parent


def ticking_clock():
    """A clock that advances by one on every read, so span times are exact."""
    ticks = iter(range(10**6))
    return lambda: float(next(ticks))


def test_self_time_is_duration_minus_children():
    tracer = spantrace.Tracer("t", clock=ticking_clock())
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    # outer [0, 5]; inner [1, 2] and [3, 4]
    assert tracer.spans == [["outer", 0.0, 5.0, -1], ["inner", 1.0, 2.0, 0],
                            ["inner", 3.0, 4.0, 0]]
    stats = spantrace.summarize(tracer.spans)
    assert stats["outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert stats["inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


def test_recursive_calls_count_once_in_inclusive_time():
    tracer = spantrace.Tracer("t", clock=ticking_clock())

    def step(depth):
        if depth:  # a halving: the step is redone as two nested half steps
            traced(depth - 1)
            traced(depth - 1)

    traced = tracer.wrap("flow.flow_step", step)
    traced(2)
    stats = spantrace.summarize(tracer.spans)["flow.flow_step"]
    root = tracer.spans[0]
    assert stats["calls"] == 7
    assert stats["s"] == root[2] - root[1] == 13.0
    # With a single name every tick belongs to exactly one span's self time.
    assert stats["self_s"] == stats["s"]
    assert spantrace.count_within(tracer.spans, "flow.flow_step", "flow.flow_step") == 6
    assert layers.derived(tracer.spans, {})["drift_halvings"] == 3


def test_covered_length_merges_and_clips():
    assert spantrace.covered_length([(1, 3), (2, 4), (6, 9)], 0, 8) == 5
    assert spantrace.covered_length([], 0, 8) == 0


def test_line_search_trials_exclude_the_start_geometry():
    tracer = spantrace.Tracer("t", clock=ticking_clock())
    geometry = tracer.wrap("graphs.graph_geometry", lambda: None)

    def relax():
        for _ in range(4):
            geometry()

    geometry()  # outside any relaxation: not a trial
    tracer.wrap("graphs.cmc_relax", relax)()
    stats = spantrace.summarize(tracer.spans)
    assert layers.derived(tracer.spans, stats)["line_search_trials"] == 3


def test_patch_follows_names_imported_elsewhere_and_restores_them():
    def work():
        return 7

    owner = types.ModuleType("owner")
    owner.work = work
    importer = types.ModuleType("importer")  # as after ``from owner import work as job``
    importer.job = work
    tracer = spantrace.Tracer("t")
    tracer.patch(owner, "work", "owner.work", aliases=[owner, importer])
    assert importer.job() == 7 and owner.work() == 7
    assert [span[0] for span in tracer.spans] == ["owner.work", "owner.work"]
    tracer.restore()
    assert owner.work is work and importer.job is work


def test_spans_round_trip(tmp_path):
    spans = [["a", 0.1, 0.7, -1], ["b", 0.2, 0.3, 0]]
    path = tmp_path / "spans.csv"
    spantrace.write_spans(str(path), "run-1", spans)
    assert spantrace.read_spans(str(path)) == spans
    assert path.read_text().splitlines()[1].startswith("run-1,a,")


@pytest.fixture
def cmcflat_on_path():
    sys.path.insert(0, str(ROOT / "src"))
    yield
    sys.path.remove(str(ROOT / "src"))


def _bindings():
    """Every (module, name) -> object binding that layers.install may replace."""
    modules = [importlib.import_module(m) for m in layers.CLI_MODULES + ("scipy.sparse.linalg",)]
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    mink = importlib.import_module("cmcflat.minkowski").MinkIsometry
    out[("MinkIsometry", "compose")] = mink.__dict__["compose"]
    return out


def test_every_wrapped_function_is_restored_after_a_traced_run(cmcflat_on_path, tmp_path):
    cli = importlib.import_module("cmcflat.cli")
    before = _bindings()
    tracer = spantrace.Tracer("t")
    layers.install(tracer)
    try:
        assert cli.main is not before[("cmcflat.cli", "main")]
        config = tmp_path / "run.cfg"
        config.write_text("scenario=riccati\ntrials=1\nsteps=20\nt_values=0.3\n")
        # riccati's 1e-8 check fails at 20 steps: the exit code is not the point here.
        cli.main(["--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert _bindings() == before
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and "models.riccati_integrate" in names
    assert "csvio.write_csv" in names  # reached through cli's own module reference
    assert tracer.quantities["csvio.write_csv.bytes"] > 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [m[0] for m in layers.PER_LAYER] + [layers.TRACE_OVERHEAD[0]]
    assert [m["unit"] for m in spec["per_layer"]] == \
        [m[1] for m in layers.PER_LAYER] + [layers.TRACE_OVERHEAD[1]]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_seed_zero_reproduces_the_scenario_defaults():
    opts = {label: o for label, _, o in run.invocations("homogeneous", 0)}
    assert opts["riccati"]["seed"] == 2024 and opts["bolza-check"]["seed"] == 7
    assert all("seed" not in o for _, _, o in run.invocations("limit", 5))


def test_read_checks_counts_failed_rows(tmp_path):
    summary = tmp_path / "summary.csv"
    summary.write_text("name,measured,expected,tolerance,pass\n"
                       "a,0.0,0.0,0.0,true\nb,1.0,0.0,0.0,false\n")
    assert run.read_checks(summary) == (2, 1)
    assert run.read_checks(tmp_path / "missing.csv") == (0, 0)


def test_per_layer_metrics_add_over_invocations_but_keep_the_largest_system():
    one = ([["graphs.spsolve", 0.0, 2.0, -1]],
           {"graphs.spsolve.unknowns": 9, "graphs.spsolve.nnz": 33})
    two = ([["graphs.spsolve", 0.0, 3.0, -1], ["graphs.spsolve", 4.0, 5.0, -1]],
           {"graphs.spsolve.unknowns": 4, "graphs.spsolve.nnz": 12})
    metrics = layers.per_layer_metrics([one, two])
    assert metrics["graphs.spsolve.calls"] == (3, "count")
    assert metrics["graphs.spsolve.s"] == (6.0, "s")
    assert metrics["graphs.spsolve.unknowns"] == (9, "count")
    assert metrics["graphs.spsolve.nnz"] == (33, "count")
    assert metrics["layer.graphs.self_s"] == (6.0, "s")
