"""Config parsing, deterministic CSV io, and the scenario runner contract."""

import csv
import io
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from cmcflat import cli, csvio, flow, graphs, holonomy, lichnerowicz, models
from cmcflat.config import (ConfigError, get_float, get_floats, get_int,
                            parse_config)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_parse_config_sections_and_comments():
    cfg = parse_config(
        """
        # global things
        scenario = riccati
        seed = 11   # trailing comment
        [riccati]
        trials = 2
        [cone-flow]
        dim = 2
        """
    )
    assert cfg.options == {"scenario": "riccati", "seed": "11"}
    assert cfg.sections["riccati"] == {"trials": "2"}
    merged = cfg.scoped("riccati")
    assert merged["seed"] == "11" and merged["trials"] == "2"
    # unrelated section does not leak
    assert "dim" not in merged
    # section overrides global
    over = parse_config("x = 1\n[s]\nx = 2\n").scoped("s")
    assert over["x"] == "2"


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("= 3\n")
    with pytest.raises(ConfigError, match="empty section"):
        parse_config("[ ]\n")
    # a key given twice in one section names both lines, also across two
    # headers of that section; the same key in two blocks is no repeat
    with pytest.raises(ConfigError, match="line 5: key 'dim' repeats line 2"):
        parse_config("[cone-flow]\ndim = 3\n[riccati]\n[cone-flow]\ndim = 4\n")
    assert parse_config("dim = 3\n[cone-flow]\ndim = 4\n").scoped("cone-flow") == {"dim": "4"}


def test_typed_getters():
    opts = {"a": "2.5", "b": "7", "c": "1, 2.5 ,3", "bad": "x"}
    assert get_float(opts, "a", 0.0) == 2.5
    assert get_float(opts, "missing", -1.5) == -1.5
    assert get_int(opts, "b", 0) == 7
    assert get_floats(opts, "c", ()) == (1.0, 2.5, 3.0)
    assert get_floats(opts, "missing", (4.0,)) == (4.0,)
    for getter in (get_float, get_int):
        with pytest.raises(ConfigError):
            getter(opts, "bad", 0)
    with pytest.raises(ConfigError):
        get_floats(opts, "bad", ())
    # NaN and ±inf are config errors that name the key, in every float option
    for text in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="'x'"):
            get_float({"x": text}, "x", 0.0)
        with pytest.raises(ConfigError, match="'x'"):
            get_floats({"x": f"1, {text}"}, "x", ())
    # an empty list item is an error that names the key, never dropped
    for text in ("1,,2", "1, 2,", ",1", " , ", ""):
        with pytest.raises(ConfigError, match="'x'.*empty item"):
            get_floats({"x": text}, "x", ())


# ---------------------------------------------------------------------------
# csv io
# ---------------------------------------------------------------------------

def test_csv_roundtrip_is_exact(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(1, 0.1 + 0.2, "label", True), (2, np.float64(1.0) / 3.0, "x", False)]
    csvio.write_csv(path, ("i", "v", "s", "flag"), rows)
    header, back = csvio.read_csv(path)
    assert header == ["i", "v", "s", "flag"]
    assert float(back[0][1]) == 0.1 + 0.2  # shortest-repr floats round-trip
    assert back[0][3] == "true" and back[1][3] == "false"
    num = tmp_path / "n.csv"
    csvio.write_csv(num, ("v",), [(1.0 / 3.0,), (2.0 / 3.0,)])
    _, rows = csvio.read_csv(num)
    assert [[float(x) for x in row] for row in rows] == [[1.0 / 3.0], [2.0 / 3.0]]


def _csv_writer_text(header, rows) -> str:
    # the reference rendering: csv.writer over format_value of every cell
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([csvio.format_value(x) for x in row] for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("data", [
    np.array([[np.nan, np.inf, -np.inf, -0.0],
              [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
              [0.1 + 0.2, 1.0 / 3.0, 1e16, 1e-5]]),
    np.array([[0.1, -np.inf, 3.0e38], [np.nan, -0.0, 1e-45]], dtype=np.float32),
    np.array([[5, -7, 0], [2**53 + 1, -(2**62), 1]]),
], ids=["float64", "float32", "int64"])
def test_joined_ndarray_rows_match_the_csv_writer(data):
    # the array's cells as rows of Python floats are written as joined reprs,
    # special values included; csv.writer and format_value give the same text
    header = tuple("abcd"[:data.shape[1]])
    rows = data.astype(float).tolist()
    text = csvio.render_csv(header, rows)
    assert text == _csv_writer_text(header, rows)
    if data.dtype == np.float32:
        # format_value of a float32 scalar is the repr of its exact double
        assert text == _csv_writer_text(header, data)


def test_read_csv_rejects_an_empty_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty.csv"):
        csvio.read_csv(empty)


def test_format_value():
    assert csvio.format_value(True) == "true"
    assert csvio.format_value(3) == "3"
    assert csvio.format_value("abc") == "abc"
    assert csvio.format_value(0.5) == "0.5"
    # numpy integers and bools render as Python ints and bools do
    assert csvio.format_value(np.int64(5)) == "5"
    assert csvio.format_value(np.int32(-3)) == "-3"
    assert csvio.format_value(np.uint8(255)) == "255"
    assert csvio.format_value(np.bool_(True)) == "true"
    assert csvio.format_value(np.bool_(False)) == "false"
    assert csvio.format_value(np.float32(0.5)) == "0.5"


# ---------------------------------------------------------------------------
# golden comparison
# ---------------------------------------------------------------------------

def test_golden_check_is_byte_exact(tmp_path, capsys):
    # a golden file that holds the same numbers in other digits, or differs
    # in its header alone, is a mismatch that names the file
    golden = tmp_path / "golden"
    assert cli.main(["--scenario", "riccati", "--out", str(golden)]) == 0
    for name, old, new in (("riccati_checks.csv", "\n0,2,0.3,", "\n0.00,2,0.3,"),
                           ("summary.csv", ",0.0,", ",-0.0,"),
                           ("riccati_checks.csv", "integration_err", "integration_error")):
        text = (golden / name).read_text()
        assert old in text
        (golden / name).write_text(text.replace(old, new, 1))
        code = cli.main(["--scenario", "riccati", "--out", str(tmp_path / "run"),
                         "--check-golden", str(golden)])
        assert code == 4, new
        assert capsys.readouterr().err == f"golden mismatch: {name}: differs from its golden file\n"
        (golden / name).write_text(text)


# ---------------------------------------------------------------------------
# scenario runner end-to-end (fast scenarios only; the heavy ones are covered
# by the acceptance suite)
# ---------------------------------------------------------------------------

def test_list_scenarios(capsys):
    assert cli.main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["cone-flow", "kasner-flow", "lichnerowicz-sweep", "riccati",
                   "bolza-check", "limit-experiment", "graph-check"]


def test_riccati_scenario_passes(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["--scenario", "riccati", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS riccati_integration_err" in stdout
    assert "FAIL" not in stdout
    header, rows = csvio.read_csv(out / "summary.csv")
    assert header == list(cli.SUMMARY_HEADER)
    assert all(row[-1] == "true" for row in rows)
    # the artifact itself: 5 trials x 3 probe times
    _, rows = csvio.read_csv(out / "riccati_checks.csv")
    assert np.asarray(rows, dtype=float).shape == (15, 5)


def test_config_error_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("scenario = cone-flow\ntau_start = 0.5\n")
    assert cli.main(["--config", str(cfgfile), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    # --out was not created
    assert not out.exists()


def test_unknown_scenario_and_missing_config(tmp_path, capsys):
    assert cli.main(["--scenario", "nope", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["--config", str(tmp_path / "absent.cfg")]) == 2
    assert cli.main(["--out", str(tmp_path / "y")]) == 2  # no scenario at all
    capsys.readouterr()
    # a config file that is not UTF-8 text is a config error too
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"scenario = riccati\n\xff\n")
    assert cli.main(["--config", str(binary), "--out", str(tmp_path / "z")]) == 2
    assert "binary.cfg: not UTF-8 text" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["binary.cfg"]


def test_numerical_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    cfgfile = tmp_path / "r.cfg"
    # a cocycle this large puts orbit sheets beyond the envelope's exponent bound
    cfgfile.write_text("scenario = limit-experiment\ncocycle_scale = 1\nnodes = 21\n")
    assert cli.main(["--config", str(cfgfile), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, option", [
    ("lichnerowicz-sweep", "tau_values = -1e-300"),  # ZeroDivisionError: tau * tau is 0
    ("lichnerowicz-sweep", "tau_values = -1e-150"),  # OverflowError in u ** p
    ("cone-flow", "tau_start = -1e200"),  # ZeroDivisionError: the scale s^2 underflows to 0
    ("kasner-flow", "tau_start = -1e200"),
])
def test_arithmetic_errors_are_numerical_failures(tmp_path, capsys, scenario, option):
    code, out = _run_config(tmp_path, f"scenario = {scenario}\n{option}\n")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_graph_check_exception_writes_nothing(tmp_path, capsys):
    # the convergence table is computed before the energy quadrature raises;
    # an exception in a scenario writes none of its tables and no --out
    code, out = _run_config(tmp_path, "scenario = graph-check\nenergy_extent = 1.0\n"
                                      "energy_nodes = 201\nrefinement_nodes = 21, 41, 81\n")
    assert code == 3
    assert "filtered region touches the patch frame" in capsys.readouterr().err
    assert not out.exists()


def test_unusable_out_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main(["--scenario", "riccati", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
    assert blocker.read_text() == ""
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_unwritable_artifact_is_a_config_error(tmp_path, capsys):
    # a directory where the first table belongs fails its write: exit 2 with
    # one stderr line that names the path, no traceback, no later table
    out = tmp_path / "run"
    blocker = out / "riccati_checks.csv"
    blocker.mkdir(parents=True)
    assert cli.main(["--scenario", "riccati", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(blocker) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["riccati_checks.csv"]


def test_failed_check_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    cfgfile = tmp_path / "r.cfg"
    # 6 RK4 steps cannot reach 1e-8: checks run, summary records the miss
    cfgfile.write_text("scenario = riccati\nsteps = 6\n")
    assert cli.main(["--config", str(cfgfile), "--out", str(out)]) == 3
    assert "FAIL riccati_integration_err" in capsys.readouterr().out
    header, rows = csvio.read_csv(out / "summary.csv")
    assert any(row[-1] == "false" for row in rows)


def test_long_bolza_words_fail_the_check_and_keep_the_artifacts(tmp_path, capsys):
    # 17 letters amplify rounding far past the 1e-9 bound: the cocycle-rule
    # check fails, and both CSV files are still written
    code, out = _run_config(tmp_path, "scenario = bolza-check\nword_length = 17\n")
    assert code == 3
    assert "FAIL bolza_cocycle_rule_err" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["bolza_quantities.csv", "summary.csv"]


def test_config_sections_scope_options(tmp_path):
    out = tmp_path / "run"
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("scenario = riccati\n[riccati]\ntrials = 2\n")
    assert cli.main(["--config", str(cfgfile), "--out", str(out)]) == 0
    _, rows = csvio.read_csv(out / "riccati_checks.csv")
    assert np.asarray(rows, dtype=float).shape == (6, 5)  # 2 trials x 3 probe times


def test_bitwise_determinism_and_golden_check(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["--scenario", "riccati", "--out", str(out_a)]) == 0
    assert cli.main(["--scenario", "riccati", "--out", str(out_b)]) == 0
    for name in ("riccati_checks.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # golden comparison against the first run
    out_c = tmp_path / "c"
    code = cli.main(["--scenario", "riccati", "--out", str(out_c),
                     "--check-golden", str(out_a)])
    assert code == 0
    assert "golden check: " in capsys.readouterr().out

    # tamper with one golden value -> exit 4
    golden = out_a / "riccati_checks.csv"
    lines = golden.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 1.0)
    lines[1] = ",".join(cells)
    golden.write_text("\n".join(lines) + "\n")
    code = cli.main(["--scenario", "riccati", "--out", str(tmp_path / "d"),
                     "--check-golden", str(out_a)])
    assert code == 4
    assert "golden mismatch" in capsys.readouterr().err

    # a golden file the run did not write -> exit 4
    extra = tmp_path / "extra"
    extra.mkdir()
    for name in ("riccati_checks.csv", "summary.csv"):
        (extra / name).write_bytes((out_b / name).read_bytes())
    (extra / "extra_artifact.csv").write_text("x\n1.0\n")
    code = cli.main(["--scenario", "riccati", "--out", str(tmp_path / "f"),
                     "--check-golden", str(extra)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == "golden mismatch: extra_artifact.csv: not written by this run\n"
    assert "golden check" not in captured.out

    # empty golden directory -> missing counterparts -> exit 4
    empty = tmp_path / "empty"
    empty.mkdir()
    code = cli.main(["--scenario", "riccati", "--out", str(tmp_path / "e"),
                     "--check-golden", str(empty)])
    assert code == 4


def test_empty_golden_file_is_a_mismatch(tmp_path, capsys):
    golden = tmp_path / "golden"
    assert cli.main(["--scenario", "riccati", "--out", str(golden)]) == 0
    (golden / "riccati_checks.csv").write_text("")  # truncated golden file
    code = cli.main(["--scenario", "riccati", "--out", str(tmp_path / "run"),
                     "--check-golden", str(golden)])
    assert code == 4
    assert (capsys.readouterr().err
            == "golden mismatch: riccati_checks.csv: differs from its golden file\n")


def _run_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    return cli.main(["--config", str(cfg), "--out", str(out)]), out


def test_limit_experiment_rejects_empty_orbit(tmp_path, capsys):
    code, out = _run_config(tmp_path, "scenario = limit-experiment\nword_length = 0\n")
    assert code == 2
    assert "word_length" in capsys.readouterr().err
    assert not out.exists()


def test_limit_experiment_relaxation_error_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # an error of the second relaxation, raised while the next envelope is
    # being built on the worker thread, still ends the run with exit 3
    before = threading.active_count()
    calls = []
    relax = graphs.cmc_relax

    def failing_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise graphs.NewtonStepError("planted in the second relaxation")
        return relax(*args, **kwargs)

    monkeypatch.setattr(graphs, "cmc_relax", failing_second)
    code, out = _run_config(tmp_path, "scenario = limit-experiment\nnodes = 41\n")
    assert code == 3
    assert ("numerical failure in limit-experiment: planted in the second relaxation"
            in capsys.readouterr().err)
    assert not out.exists()
    assert threading.active_count() == before


def test_a_linalg_error_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError subclasses ValueError, so the numerical-failure
    # exit catches it without naming it
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("planted singular matrix")

    monkeypatch.setattr(graphs, "limit_experiment_with_control", singular)
    code, out = _run_config(tmp_path, "scenario = limit-experiment\nnodes = 41\n")
    assert code == 3
    assert ("numerical failure in limit-experiment: planted singular matrix"
            in capsys.readouterr().err)
    assert not out.exists()


def test_limit_experiment_carries_the_lu_to_the_coboundary(tmp_path, capsys):
    # one sparse LU runs through the whole scenario: the coboundary control
    # starts from the LU the last lambda left and needs no factorization
    code, out = _run_config(tmp_path, "scenario = limit-experiment\nnodes = 161\n")
    capsys.readouterr()
    assert code in (0, 3)  # 161 nodes are too coarse for the baseline volume check
    header, rows = csvio.read_csv(out / "coboundary_control.csv")
    assert len(rows) == 1
    assert rows[0][header.index("factorizations")] == "0"
    assert int(rows[0][header.index("steps")]) > 0


def test_graph_check_rejects_bad_refinement_sizes(tmp_path, capsys):
    # 181^3 nodes exceed 2401^2; the small energy grid keeps a run that
    # wrongly accepts the sizes cheap
    for sizes, message in (("21, 41.5, 81", "integers"),
                           ("41, 41, 81", "strictly increasing"),
                           ("21, 41, 181", "5764801")):
        code, out = _run_config(
            tmp_path, "scenario = graph-check\ndim = 3\nenergy_nodes = 201\n"
            f"refinement_nodes = {sizes}\n")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_graph_check_rejects_bad_energy_and_extent_options(tmp_path, capsys):
    # each option is checked before graph_convergence.csv is written; 2402^2
    # energy nodes exceed the 2401^2 limit
    for option, message in (("energy_nodes = 4", "energy_nodes"),
                            ("energy_nodes = 2402", "energy_nodes"),
                            ("energy_extent = -1", "energy_extent"),
                            ("extent = 0", "extent")):
        code, out = _run_config(tmp_path, f"scenario = graph-check\ndim = 3\n{option}\n")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_graph_check_three_dimensional_orders(tmp_path, capsys):
    # the default 3-D refinement sizes are three distinct grids, each
    # converging at order 2
    code, out = _run_config(tmp_path, "scenario = graph-check\ndim = 3\nenergy_nodes = 1201\n")
    capsys.readouterr()
    _, rows = csvio.read_csv(out / "graph_convergence.csv")
    assert len({row[0] for row in rows}) == 3
    _, summary = csvio.read_csv(out / "summary.csv")
    orders = [row for row in summary if row[0].startswith("graph_convergence_order_")]
    assert len(orders) == 2
    assert all(row[-1] == "true" for row in orders)
    assert code in (0, 3)


def test_riccati_nan_probe_fails_the_check(tmp_path, monkeypatch, capsys):
    # a NaN on the 4th of 15 probes must not vanish into a running maximum;
    # the trials of one size integrate their 3 times in one stacked call, so
    # the 2nd call holds trials 1 and 4 (size 3), and the 4th probe is the
    # first time of its first trial
    integrate = models.riccati_integrate
    calls = []

    def nan_on_fourth(k0, t, steps=2000):
        calls.append(np.shape(k0))
        out = integrate(k0, t, steps=steps)
        if len(calls) == 2:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(models, "riccati_integrate", nan_on_fourth)
    assert cli.main(["--scenario", "riccati", "--out", str(tmp_path / "run")]) == 3
    assert "FAIL riccati_integration_err" in capsys.readouterr().out
    assert calls == [(2, 1, 2, 2), (2, 1, 3, 3), (1, 1, 4, 4)]
    _, rows = csvio.read_csv(tmp_path / "run" / "riccati_checks.csv")
    assert [row[3] for row in rows].index("nan") == 3


def test_limit_experiment_nan_fails_the_checks(tmp_path, monkeypatch, capsys):
    # canned LIMIT_COLUMNS rows: a NaN ratio between two decreasing
    # deviations, and a NaN residual after a finite one
    base = 4.0 * np.pi
    base_row = (np.inf, -2.0, base, 1.0, 1e-10, 4, 1)
    rows = [(1.0, -2.0, base, 1.01, 1e-10, 3, 0),
            (2.0, -2.0, base, np.nan, 1e-10, 3, 0),
            (4.0, -2.0, base, 1.001, np.nan, 3, 0)]
    monkeypatch.setattr(graphs, "limit_experiment_with_control",
                        lambda *a, **k: (rows, base_row, (1.0, -2.0, base, 1.0, 1e-10, 2, 0)))
    code, out = _run_config(tmp_path, "scenario = limit-experiment\nlambdas = 1, 2, 4\n")
    assert code == 3
    stdout = capsys.readouterr().out
    assert "FAIL limit_dev_increases: measured=2.0" in stdout
    assert "FAIL limit_relax_residual: measured=nan" in stdout
    assert "PASS limit_coboundary_ratio" in stdout

    # a control or zero-cocycle baseline relaxation that stalls fails the
    # residual check even when every ratio and every lambda row pass
    rows = [(1.0, -2.0, base, 1.01, 1e-10, 3, 0), (2.0, -2.0, base, 1.001, 1e-10, 3, 0)]
    control_row = (1.0, -2.0, base, 1.0, 1e-10, 2, 0)
    stalled_base = base_row[:4] + (1e-3,) + base_row[5:]
    stalled_control = control_row[:4] + (np.nan,) + control_row[5:]
    for baseline, control, worst in ((base_row, stalled_control, "nan"),
                                     (stalled_base, control_row, "0.001")):
        monkeypatch.setattr(graphs, "limit_experiment_with_control",
                            lambda *a, **k: (rows, baseline, control))
        code, out = _run_config(tmp_path, "scenario = limit-experiment\nlambdas = 1, 2\n")
        assert code == 3
        stdout = capsys.readouterr().out
        assert "PASS limit_dev_increases" in stdout
        assert f"FAIL limit_relax_residual: measured={worst} " in stdout
        assert "PASS limit_baseline_volume" in stdout
        assert "PASS limit_coboundary_ratio" in stdout


def test_limit_experiment_checks_that_its_cocycle_closes(tmp_path, monkeypatch):
    # the octagon relator's translation per unit of cocycle_scale reads
    # 3.85e-12 for the closed-form cocycle at every scale; the weights
    # (1, -1/3, -1/3, 0), which break the relation, read 8.54 at every scale
    base = 4.0 * np.pi
    rows = [(1.0, -2.0, base, 1.01, 1e-10, 3, 0), (2.0, -2.0, base, 1.001, 1e-10, 3, 0)]
    base_row = (np.inf, -2.0, base, 1.0, 1e-10, 4, 1)
    control_row = (1.0, -2.0, base, 1.0, 1e-10, 2, 0)
    monkeypatch.setattr(graphs, "limit_experiment_with_control",
                        lambda *a, **k: (rows, base_row, control_row))
    closed_form = holonomy.bolza_nontrivial_cocycle

    def relator_check(scale):
        code, out = _run_config(tmp_path, f"scenario = limit-experiment\ncocycle_scale = {scale}\n")
        _, checks = csvio.read_csv(out / "summary.csv")
        assert checks[0][0] == "limit_cocycle_relator_residual"
        return code, float(checks[0][1]), checks[0][4]

    for scale in (1e-4, 0.002, 10.0):
        code, measured, passed = relator_check(scale)
        assert (code, passed) == (0, "true") and measured <= 1e-11
    monkeypatch.setattr(holonomy, "bolza_nontrivial_cocycle", lambda scale: tuple(
        t * w for t, w in zip(closed_form(scale), (1.0, 1.0, 1.0, 0.0) * 2)))
    for scale in (1e-4, 0.002, 10.0):
        code, measured, passed = relator_check(scale)
        assert (code, passed) == (3, "false") and measured == pytest.approx(8.538, rel=1e-3)


def test_limit_experiment_caps_its_grid(tmp_path, monkeypatch, capsys):
    # nodes = 20001 would ask the envelope worker for a 3.2 GB array, and
    # word_length = 8 would enumerate an orbit of about 7.6 million elements; a
    # grid or a word beyond its cap is a config error before anything is built,
    # and --out is not created, as for every range check of a scenario
    base = 4.0 * np.pi
    row = (1.0, -2.0, base, 1.0, 1e-10, 2, 0)
    rows = [(1.0, -2.0, base, 1.01, 1e-10, 3, 0), (2.0, -2.0, base, 1.001, 1e-10, 3, 0)]
    calls = []

    def canned(*args, nodes, word_length, **kwargs):
        calls.append((nodes, word_length))
        return rows, row, row

    monkeypatch.setattr(graphs, "limit_experiment_with_control", canned)
    refused = [(f"nodes = {nodes}", f"nodes must lie in 5..{cli.LIMIT_MAX_NODES}")
               for nodes in (20001, cli.LIMIT_MAX_NODES + 1)]
    refused += [(f"word_length = {length}", f"word_length must lie in 1..{cli.LIMIT_MAX_WORD_LENGTH}")
                for length in (8, cli.LIMIT_MAX_WORD_LENGTH + 1)]
    for option, message in refused:
        code, out = _run_config(tmp_path, f"scenario = limit-experiment\n{option}\n")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert calls == []
    code, _ = _run_config(tmp_path, f"scenario = limit-experiment\nnodes = {cli.LIMIT_MAX_NODES}\n"
                                    f"word_length = {cli.LIMIT_MAX_WORD_LENGTH}\n")
    capsys.readouterr()
    assert (code, calls) == (0, [(cli.LIMIT_MAX_NODES, cli.LIMIT_MAX_WORD_LENGTH)])


def test_nan_lapse_and_barrier_fail_the_clipped_checks(tmp_path, monkeypatch, capsys):
    # violations are clipped at 0; a NaN after a finite value must survive the clip
    data = [(tau, 1.0, 27.0, 0.0, 0.0, 2.0 / tau**2, 2.0 / tau**2) for tau in (-10.0, -5.0, -1.0)]
    data[1] = data[1][:5] + (float("nan"),) + data[1][6:]
    monkeypatch.setattr(flow, "run_flow", lambda *a, **k: flow.HamTrace(3, data))
    code, _ = _run_config(tmp_path, "scenario = cone-flow\nsteps = 2\n")
    assert code == 3
    stdout = capsys.readouterr().out
    assert "FAIL cone_lapse_lower_bound_violation: measured=nan" in stdout
    assert "PASS cone_lapse_upper_bound_violation" in stdout

    sweep = lichnerowicz.sweep_constant_sigma

    def nan_barrier(*args):
        rows = [list(row) for row in sweep(*args)]
        rows[-1][2] = np.nan  # u_min at the largest sigma^2, not the exact-root rows
        return rows

    monkeypatch.setattr(lichnerowicz, "sweep_constant_sigma", nan_barrier)
    code, _ = _run_config(tmp_path, "scenario = lichnerowicz-sweep\n")
    assert code == 3
    stdout = capsys.readouterr().out
    assert "FAIL lich_barrier_violation: measured=nan" in stdout
    assert "PASS lich_zero_sigma_exact_err" in stdout


class _PassCountingRows(list):
    """Trace rows that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("scenario, columns", [
    (cli.scenario_cone_flow, ("tau", "ham", "lapse_min", "lapse_max", "gauss_residual")),
    (cli.scenario_kasner_flow, ("tau", "ham", "n_khat2_integral", "lapse_min", "lapse_max",
                                "gauss_residual")),
], ids=["cone-flow", "kasner-flow"])
def test_flow_scenarios_read_each_trace_column_once(scenario, columns, monkeypatch):
    # the closed-form, monotonicity and trace checks share the trace's columns:
    # one pass over the rows per column read, not one per check
    run_flow, rows = flow.run_flow, []

    def counted(*args, **kwargs):
        trace = run_flow(*args, **kwargs)
        rows.append(_PassCountingRows(trace.data))
        return flow.HamTrace(trace.ndim, rows[-1])

    expected = scenario(steps=50)[1]
    monkeypatch.setattr(flow, "run_flow", counted)
    assert scenario(steps=50)[1] == expected
    assert rows[0].passes == len(columns)
    trace = flow.HamTrace(3, rows[0])
    assert all(trace.floats(name) is trace.floats(name) for name in columns)


@pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("column, failing", [
    ("lapse_min", "cone_lapse_lower_bound_violation"),
    ("lapse_max", "cone_lapse_upper_bound_violation"),
    ("gauss_residual", "cone_max_gauss_residual"),
])
def test_a_nan_at_either_end_of_the_trace_fails_its_check(row, column, failing):
    # the built-in max keeps a NaN in first place and drops it in last place;
    # each trace check must fail on it at both ends, and the others pass
    data = [(tau, 1.0, 27.0, 0.0, 0.0, 2.0 / tau**2, 2.0 / tau**2) for tau in (-10.0, -5.0, -1.0)]
    cells = list(data[row])
    cells[flow.TRACE_COLUMNS.index(column)] = float("nan")
    data[row] = tuple(cells)
    for name, measured, _, _, ok in cli._flow_trace_checks("cone", flow.HamTrace(3, data)):
        assert (bool(np.isnan(measured)), ok) == (name == failing, name != failing), name


def test_bad_scenario_options_are_config_errors(tmp_path, capsys):
    for scenario, option, message in (("limit-experiment", "nodes = 3", "nodes"),
                                      ("limit-experiment", "extent = -1", "extent"),
                                      ("limit-experiment", "extent = nan", "extent"),
                                      ("cone-flow", "base_volume = nan", "base_volume"),
                                      ("kasner-flow", "sigma_volume = nan", "sigma_volume"),
                                      ("kasner-flow", "circle_length = nan", "circle_length"),
                                      ("lichnerowicz-sweep", "volume = nan", "volume"),
                                      ("lichnerowicz-sweep", "volume = inf", "volume"),
                                      ("lichnerowicz-sweep", "tau_values = -1, nan", "tau_values"),
                                      ("lichnerowicz-sweep", "sigma_sq_values = 0, nan",
                                       "sigma_sq_values"),
                                      ("riccati", "t_values = 0.3, nan", "t_values"),
                                      ("riccati", "steps = 0", "steps"),
                                      ("graph-check", "hyperboloid_s = nan", "hyperboloid_s"),
                                      ("limit-experiment", "cocycle_scale = nan", "cocycle_scale"),
                                      ("limit-experiment", "relax_tol = nan", "relax_tol"),
                                      ("limit-experiment", "coboundary_size = nan",
                                       "coboundary_size"),
                                      # the model constructors check these ranges
                                      ("cone-flow", "dim = 5", "dim"),
                                      ("cone-flow", "base_volume = -1", "base_volume"),
                                      ("kasner-flow", "dim = 2", "dim"),
                                      ("kasner-flow", "circle_length = 0", "circle_length"),
                                      # each finite, but their product, the volume
                                      # factor, overflows or underflows
                                      ("kasner-flow",
                                       "sigma_volume = 1e200\ncircle_length = 1e200",
                                       "sigma_volume * circle_length"),
                                      ("kasner-flow",
                                       "sigma_volume = 1e-200\ncircle_length = 1e-200",
                                       "sigma_volume * circle_length"),
                                      ("lichnerowicz-sweep", "dim = 5", "dim"),
                                      ("lichnerowicz-sweep", "volume = 0", "volume"),
                                      # np.random.default_rng takes no negative seed
                                      ("riccati", "seed = -1", "seed"),
                                      ("bolza-check", "seed = -1", "seed"),
                                      # each scenario's own range checks
                                      ("cone-flow", "steps = 1", "steps"),
                                      ("lichnerowicz-sweep", "tau_values = -1, 0",
                                       "tau_values"),
                                      ("lichnerowicz-sweep", "sigma_sq_values = 0, -1",
                                       "non-negative"),
                                      ("lichnerowicz-sweep", "sigma_sq_values = 1, 2",
                                       "include 0"),
                                      ("riccati", "trials = 0", "trials"),
                                      ("riccati", "t_values = 0.3, 0", "t_values"),
                                      ("bolza-check", "words = 0", "words"),
                                      ("bolza-check", "word_length = 1", "word_length"),
                                      ("limit-experiment", "cocycle_scale = 0", "cocycle_scale"),
                                      ("limit-experiment", "coboundary_size = -1",
                                       "coboundary_size"),
                                      ("limit-experiment", "lambdas = 1", "lambdas"),
                                      ("limit-experiment", "lambdas = 1, -2", "lambdas"),
                                      ("limit-experiment", "relax_tol = 0", "relax_tol"),
                                      ("graph-check", "dim = 5", "dim"),
                                      ("graph-check", "hyperboloid_s = 0", "hyperboloid_s"),
                                      ("graph-check", "refinement_nodes = 21, 41",
                                       "three sizes"),
                                      ("graph-check", "refinement_nodes = 5, 21, 41",
                                       "three sizes")):
        code, out = _run_config(tmp_path, f"scenario = {scenario}\n{option}\n")
        assert code == 2, option
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("scenario = riccati\ntrails = 1\n", "riccati reads no option 'trails'"),
    # the golden check compares bytes and reads no option
    ("scenario = riccati\ngolden_rel_tol = 0\n", "riccati reads no option 'golden_rel_tol'"),
    ("scenario = riccati\n[riccatti]\ntrials = 1\n",
     "section [riccatti] names no scenario"),
    ("scenario = riccati\ntrials = 1\ntrials = 3\n", "line 3: key 'trials' repeats line 2"),
    ("scenario = riccati\n[riccati]\ndim = 3\n", "section [riccati]: riccati reads no option 'dim'"),
    ("scenario = riccati\n[cone-flow]\nseed = 3\n",
     "section [cone-flow]: cone-flow reads no option 'seed'"),
    ("[riccati]\nscenario = riccati\n", "riccati reads no option 'scenario'"),
    # a global key that only another scenario reads
    ("scenario = riccati\ndim = 3\n", "riccati reads no option 'dim'"),
])
def test_unread_and_repeated_keys_are_config_errors(tmp_path, capsys, text, message):
    # a misspelt key or section, or a repeated key, would leave a value other
    # than the one written in force; the run stops before writing anything
    for extra in ([], ["--scenario", "riccati"]):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert cli.main(["--config", str(cfg), "--out", str(out)] + extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_options_of_the_wrong_type_exit_before_out_is_created(tmp_path, capsys):
    # main reads every option of the selected scenario before it creates --out
    for scenario, option, message in (("riccati", "steps = ten", "expected an integer"),
                                      ("cone-flow", "tau_end = soon", "expected a number"),
                                      ("riccati", "t_values = 0.3, x", "expected numbers")):
        code, out = _run_config(tmp_path, f"scenario = {scenario}\n{option}\n")
        assert code == 2, option
        assert message in capsys.readouterr().err
        assert not out.exists()


def _readme_config() -> str:
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```ini\n") + len("```ini\n")
    return text[start:text.index("```", start)]


def test_documented_and_benchmarked_configs_read_every_key():
    # the README example, criterion 11's and the goldens' configs, and the
    # options the benchmark passes (dim for the flows, seed for the random scenarios)
    configs = [_readme_config(),
               "scenario = cone-flow\ndim = 4\n", "scenario = kasner-flow\ndim = 4\n",
               "scenario = riccati\nseed = 2025\n", "scenario = bolza-check\nseed = 8\n",
               "scenario = cone-flow\nsteps = 2000\n", "scenario = kasner-flow\nsteps = 2000\n",
               "scenario = graph-check\nrefinement_nodes = 41, 81, 161\nenergy_nodes = 1201\n",
               "scenario = limit-experiment\nnodes = 161\nlambdas = 1, 2\n"]
    assert "[cone-flow]" in configs[0]
    for text in configs:
        cli._scenario_kwargs(parse_config(text), None)


def test_scenario_options_are_the_keys_each_scenario_reads(tmp_path, monkeypatch, capsys):
    # record every key passed to the typed getters while each scenario runs on
    # a small config; they must be SCENARIO_OPTIONS
    read = set()
    for name in ("get_float", "get_int", "get_floats"):
        def recording(opts, key, default, _getter=getattr(cli, name)):
            read.add(key)
            return _getter(opts, key, default)
        monkeypatch.setattr(cli, name, recording)
    small = {"cone-flow": "tau_start = -2\ntau_end = -1\nsteps = 20\n",
             "kasner-flow": "tau_start = -2\ntau_end = -1\nsteps = 20\n",
             "riccati": "trials = 1\nsteps = 20\n",
             "bolza-check": "words = 1\n",
             # the envelope range check ends the run after every option is read
             "limit-experiment": "cocycle_scale = 1\nnodes = 21\n",
             "graph-check": "refinement_nodes = 21, 41, 81\nenergy_nodes = 101\n"}
    assert set(cli.SCENARIO_OPTIONS) == set(cli.SCENARIOS)
    for scenario in cli.SCENARIOS:
        read.clear()
        _run_config(tmp_path, f"scenario = {scenario}\n" + small.get(scenario, ""))
        assert read == set(cli.SCENARIO_OPTIONS[scenario]), scenario
    capsys.readouterr()


def test_scenarios_return_their_tables_and_write_nothing(tmp_path, monkeypatch):
    # each scenario, called directly on small options, returns the tables and
    # checks its golden files name, and writes nothing to the working directory
    small = {"cone-flow": dict(tau_start=-2.0, tau_end=-1.0, steps=20),
             "kasner-flow": dict(tau_start=-2.0, tau_end=-1.0, steps=20),
             "lichnerowicz-sweep": {},
             "riccati": dict(trials=1, steps=20),
             "bolza-check": dict(words=1),
             "limit-experiment": dict(nodes=21, lambdas=(1.0, 2.0)),
             "graph-check": dict(refinement_nodes=(21, 41, 81), energy_nodes=101)}
    golden_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    monkeypatch.chdir(tmp_path)
    assert set(small) == set(cli.SCENARIOS)
    for scenario, options in small.items():
        tables, checks = cli.SCENARIOS[scenario](**options)
        golden = os.path.join(golden_root, scenario)
        assert sorted([name for name, _, _ in tables] + ["summary.csv"]) \
            == sorted(os.listdir(golden)), scenario
        for name, header, _ in tables:
            assert list(header) == csvio.read_csv(os.path.join(golden, name))[0], name
        _, summary = csvio.read_csv(os.path.join(golden, "summary.csv"))
        assert [check[0] for check in checks] == [row[0] for row in summary], scenario
    assert list(tmp_path.iterdir()) == []


def test_a_large_sigma_sweep_passes(tmp_path, capsys):
    # at |sigma|^2 = 1e6, tau = -4 the residual near the root rounds above the
    # absolute tolerance; the solve ends on its step rule and the sweep passes
    code, out = _run_config(tmp_path, "scenario = lichnerowicz-sweep\n"
                                      "sigma_sq_values = 0, 1000000\n")
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out
    _, rows = csvio.read_csv(out / "lichnerowicz_sweep.csv")
    assert len(rows) == 10


def test_summary_check_names_are_pinned(tmp_path, capsys):
    expected = {
        "riccati": ["riccati_integration_err", "riccati_semigroup_err"],
        "bolza-check": ["bolza_relator_residual", "bolza_octagon_area",
                        "bolza_cocycle_rule_err", "bolza_coboundary_relator_residual",
                        "bolza_gauss_equivariance_err"],
        "lichnerowicz-sweep": ["lich_zero_sigma_exact_err", "lich_barrier_violation",
                               "lich_ham_bound_violation"],
        "cone-flow": ["cone_ham_rel_drift", "cone_lapse_lower_bound_violation",
                      "cone_lapse_upper_bound_violation", "cone_max_gauss_residual"],
        "kasner-flow": ["kasner_closed_form_rel_err", "kasner_ham_increases",
                        "kasner_monotonicity_identity", "kasner_lapse_lower_bound_violation",
                        "kasner_lapse_upper_bound_violation", "kasner_max_gauss_residual"],
    }
    # the flows run a short range, as in the import-budget script below
    short = "tau_start = -2\ntau_end = -1\nsteps = 200\n"
    for scenario, names in expected.items():
        code, out = _run_config(tmp_path, f"scenario = {scenario}\n"
                                + (short if "flow" in scenario else ""))
        assert code == 0
        _, rows = csvio.read_csv(out / "summary.csv")
        assert [row[0] for row in rows] == names
    capsys.readouterr()


_IMPORT_BUDGET_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
from cmcflat import cli
assert cli.main(["--list-scenarios"]) == 0

def run(scenario, options, expected=0):
    cfg = f"{out}/{scenario}.cfg"
    with open(cfg, "w") as fh:
        fh.write(f"scenario = {scenario}\\n{options}\\n")
    code = cli.main(["--config", cfg, "--out", f"{out}/{scenario}"])
    assert code == expected, (scenario, code)

run("cone-flow", "tau_start = -2\\ntau_end = -1\\nsteps = 200")
run("kasner-flow", "tau_start = -2\\ntau_end = -1\\nsteps = 200")
run("lichnerowicz-sweep", "dim = 4")
# numpy costs about 0.1 s of import: the flows and the sweep run on Python
# floats, and neither they nor the CLI may load it
assert "numpy" not in sys.modules
run("riccati", "trials = 1")
run("bolza-check", "words = 2")
# graph-check runs its whole quadrature but resolves the energy identity
# only on its default 2401^2 grid, so on this small one that check fails
run("graph-check", "refinement_nodes = 21, 41, 81\\nenergy_nodes = 101", expected=3)
# concurrent.futures would pull in logging, about 6 ms of import for every run
for module in ("concurrent.futures", "logging"):
    assert module not in sys.modules, module
from cmcflat import flow, graphs, holonomy, models
lapse_state = flow.grid_state_from_slice(
    models.slice_at_tau(models.KasnerModel(3), -2.0), 128, 1.0)
assert flow.lapse_residual(lapse_state, flow.solve_lapse(lapse_state)) <= 1e-10
# the limit experiment's cocycle is a closed form: no scipy SVD
holonomy.bolza_nontrivial_cocycle(0.002)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
jac = graphs._newton_system(graphs.graph_geometry(graphs.hyperboloid_field(1.0, 1.0, 9)))
assert "scipy.sparse.linalg" not in sys.modules
graphs._factorize(jac)
assert "scipy.sparse.linalg" in sys.modules
print("import budget ok")
"""


def test_scipy_loads_only_where_it_is_called(tmp_path):
    # scipy costs about half a second of import.  The homogeneous scenarios,
    # graph-check, the periodic grid lapse solve and the limit experiment's
    # cocycle never call it, so they must not load it; the sparse LU of the
    # limit experiment must.  --list-scenarios, the two flows and the sweep
    # load no numpy either.  Neither the CLI nor these scenarios may load
    # concurrent.futures or logging.  One fresh interpreter runs them all, on
    # small configs.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET_SCRIPT, src, str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("import budget ok")
