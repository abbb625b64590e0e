"""Golden artifacts: every scenario's CSV files, byte for byte.

The configs are criterion 11's, with the two flows cut to 200 steps.  Each
run goes through ``cli.main --check-golden``, which compares bytes, and
must reproduce its recorded exit code and every file of
``tests/golden/<scenario>/`` exactly.  After a change that is meant to move
numbers, regenerate the files from the current code with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.  The same
command rewrites ``DEFAULT_FLOW_DIGESTS``, the sha256 of every artifact of
the cone and Kasner flows at their 10,000-step defaults.
"""

import hashlib
import shutil
import tempfile
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

#: (scenario, dim) at default options -> {artifact: sha256 of its bytes}
DEFAULT_FLOW_DIGESTS = {
    ("cone-flow", 2): {
        "cone_flow_trace.csv": "2f341a4fafa190ed91f0c55950c2bd5aa5f1c86507c0d00e7bfa825cfe1b10e6",
        "summary.csv": "eb011e4e15e84a3ace143a5ff95426285fbaa69b1d028b0d1bff8fc350b8ac0b",
    },
    ("cone-flow", 3): {
        "cone_flow_trace.csv": "99001327d0c43ef72ddf90766fd6b3628eee3b80bda7caad9f25fb65a604bbe2",
        "summary.csv": "b98e5ba3173f9ab4713be60078edbb50fc96e4d4a3c8396119f4add7a8efb84e",
    },
    ("cone-flow", 4): {
        "cone_flow_trace.csv": "14615910e4cdbd20bdd273afc074156dea358cd8d593d0e5dd274617525bd17f",
        "summary.csv": "5cf4fe0eccbba714939ae7f62327b1f6d3db39f3640ca531313dcf9972c75758",
    },
    ("kasner-flow", 3): {
        "kasner_flow_trace.csv": "373464024e085edc127ca9f13dabc3f0891482c73788b6ccafbf8f1c4152b0d2",
        "summary.csv": "ae3a62aa7d59e6a5bfc4d25a47b248a413b17c825d1d86c3b54acef3826993ea",
    },
    ("kasner-flow", 4): {
        "kasner_flow_trace.csv": "d47716a4bb2f12bebccbd7595de7e0e37933fdf64c5914258a6b8a034daa13b7",
        "summary.csv": "e80248b1dbae1fcac7819282aa9512062c732492b4ea919e10fa03d5b48e1c22",
    },
}


def _write_config(path: Path, scenario: str) -> Path:
    path.write_text(f"scenario = {scenario}\n" + GOLDEN_CONFIGS[scenario][0])
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


def _default_flow_digests(scenario: str, dim: int, work: Path):
    """(exit code, {artifact: sha256}) of one flow run at its default options."""
    cfg = work / "run.cfg"
    cfg.write_text(f"scenario = {scenario}\ndim = {dim}\n")
    out = work / "out"
    code = cli.main(["--config", str(cfg), "--out", str(out)])
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}


@pytest.mark.parametrize("scenario, dim", sorted(DEFAULT_FLOW_DIGESTS))
def test_default_flow_matches_its_digests(scenario, dim, tmp_path):
    code, digests = _default_flow_digests(scenario, dim, tmp_path)
    assert code == cli.EXIT_PASS, f"{scenario} dim {dim}: exit {code}"
    assert digests == DEFAULT_FLOW_DIGESTS[scenario, dim]


def _rewrite_flow_digests() -> None:
    """Replace the ``DEFAULT_FLOW_DIGESTS`` literal in this file with fresh digests."""
    lines = ["DEFAULT_FLOW_DIGESTS = {"]
    for scenario, dim in DEFAULT_FLOW_DIGESTS:
        with tempfile.TemporaryDirectory() as work:
            code, digests = _default_flow_digests(scenario, dim, Path(work))
        print(f"{scenario} dim {dim}: exit {code}")
        lines.append(f'    ("{scenario}", {dim}): {{')
        lines += [f'        "{name}": "{digest}",' for name, digest in digests.items()]
        lines.append("    },")
    lines.append("}\n")
    source = Path(__file__).read_text()
    start = source.index("DEFAULT_FLOW_DIGESTS = {")
    end = source.index("\n}\n", start) + 3
    Path(__file__).write_text(source[:start] + "\n".join(lines) + source[end:])


def regenerate() -> None:
    """Rewrite every ``tests/golden/<scenario>/`` and the flow digests from the current code."""
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
    _rewrite_flow_digests()


if __name__ == "__main__":
    regenerate()
