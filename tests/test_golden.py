"""Golden artifacts: every scenario's CSV files, byte for byte.

The configs are criterion 11's, with the two flows cut to 200 steps.  Each
run goes through ``cli.main --check-golden`` at ``golden_rel_tol = 0`` and
must reproduce its recorded exit code and every file of
``tests/golden/<scenario>/`` exactly.  After a change that is meant to move
numbers, regenerate the files from the current code with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.
"""

import shutil
from pathlib import Path

import pytest

from cmcflat import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

#: scenario -> (extra config lines, exit code of the recorded run)
GOLDEN_CONFIGS = {
    "riccati": ("", cli.EXIT_PASS),
    "lichnerowicz-sweep": ("", cli.EXIT_PASS),
    "bolza-check": ("", cli.EXIT_PASS),
    "cone-flow": ("steps = 200\n", cli.EXIT_NUMERICAL),
    "kasner-flow": ("steps = 200\n", cli.EXIT_NUMERICAL),
    "graph-check": ("refinement_nodes = 41, 81, 161\nenergy_nodes = 1201\n",
                    cli.EXIT_NUMERICAL),
    "limit-experiment": ("nodes = 161\nlambdas = 1, 2\n", cli.EXIT_NUMERICAL),
}


def _write_config(path: Path, scenario: str) -> Path:
    path.write_text(f"scenario = {scenario}\ngolden_rel_tol = 0\n"
                    + GOLDEN_CONFIGS[scenario][0])
    return path


def test_golden_configs_cover_every_scenario():
    assert set(GOLDEN_CONFIGS) == set(cli.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CONFIGS))
def test_scenario_matches_golden(scenario, tmp_path, capsys):
    golden = GOLDEN_DIR / scenario
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "run.cfg", scenario)
    code = cli.main(["--config", str(cfg), "--out", str(out),
                     "--check-golden", str(golden)])
    assert code == GOLDEN_CONFIGS[scenario][1], f"{scenario}: exit {code}"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    assert f"golden check: {len(names)} artifacts match" in capsys.readouterr().out
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), \
            f"{scenario}: {name} differs from its golden file"


def regenerate() -> None:
    """Rewrite every ``tests/golden/<scenario>/`` from the current code."""
    for scenario in GOLDEN_CONFIGS:
        golden = GOLDEN_DIR / scenario
        shutil.rmtree(golden, ignore_errors=True)
        golden.mkdir(parents=True)
        cfg = _write_config(GOLDEN_DIR / "run.cfg", scenario)
        try:
            code = cli.main(["--config", str(cfg), "--out", str(golden)])
        finally:
            cfg.unlink()
        print(f"{scenario}: exit {code}, {len(list(golden.iterdir()))} files")


if __name__ == "__main__":
    regenerate()
