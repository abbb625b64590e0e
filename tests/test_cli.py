"""Config parsing, deterministic CSV io, and the scenario runner contract."""

import numpy as np
import pytest

from cmcflat import cli, csvio
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


# ---------------------------------------------------------------------------
# golden comparison
# ---------------------------------------------------------------------------

def _write(path, text):
    path.write_text(text)
    return str(path)


def test_compare_golden_semantics(tmp_path):
    a = _write(tmp_path / "a.csv", "x,y\n1.0,foo\n")
    same = _write(tmp_path / "b.csv", "x,y\n1.0000000000000002,foo\n")
    far = _write(tmp_path / "c.csv", "x,y\n1.001,foo\n")
    text = _write(tmp_path / "d.csv", "x,y\n1.0,bar\n")
    nan = _write(tmp_path / "e.csv", "x,y\nnan,foo\n")
    short = _write(tmp_path / "f.csv", "x,y\n")
    other_header = _write(tmp_path / "g.csv", "x,z\n1.0,foo\n")

    assert cli.compare_golden(a, a, 1e-10)
    assert cli.compare_golden(a, same, 1e-10)
    assert not cli.compare_golden(a, far, 1e-10)
    assert cli.compare_golden(a, far, 1e-2)
    assert not cli.compare_golden(a, text, 1e-10)
    assert not cli.compare_golden(nan, nan, 1e-10)  # NaN never passes
    assert not cli.compare_golden(a, short, 1e-10)
    with pytest.raises(ValueError):
        cli.compare_golden(a, other_header, 1e-10)


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
    # nothing was written
    assert not out.exists() or not list(out.iterdir())


def test_unknown_scenario_and_missing_config(tmp_path, capsys):
    assert cli.main(["--scenario", "nope", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["--config", str(tmp_path / "absent.cfg")]) == 2
    assert cli.main(["--out", str(tmp_path / "y")]) == 2  # no scenario at all
    capsys.readouterr()


def test_numerical_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    cfgfile = tmp_path / "r.cfg"
    cfgfile.write_text("scenario = riccati\nsteps = 0\n")  # integrator rejects
    assert cli.main(["--config", str(cfgfile), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_failed_check_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    cfgfile = tmp_path / "r.cfg"
    # 6 RK4 steps cannot reach 1e-8: checks run, summary records the miss
    cfgfile.write_text("scenario = riccati\nsteps = 6\n")
    assert cli.main(["--config", str(cfgfile), "--out", str(out)]) == 3
    assert "FAIL riccati_integration_err" in capsys.readouterr().out
    header, rows = csvio.read_csv(out / "summary.csv")
    assert any(row[-1] == "false" for row in rows)


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
    err = capsys.readouterr().err
    assert "golden mismatch: riccati_checks.csv" in err
    assert "empty CSV file" in err


def _run_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    return cli.main(["--config", str(cfg), "--out", str(out)]), out


def test_limit_experiment_rejects_empty_orbit(tmp_path, capsys):
    code, out = _run_config(tmp_path, "scenario = limit-experiment\nword_length = 0\n")
    assert code == 2
    assert "word_length" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


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
        assert not out.exists() or not list(out.iterdir())


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
        assert not out.exists() or not list(out.iterdir())


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
