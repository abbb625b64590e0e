"""Golden artifacts: every scenario's CSV files, byte for byte.

The configs are criterion 11's, with the two flows cut to 200 steps.  Each
run goes through ``cli.main --check-golden`` at ``golden_rel_tol = 0`` and
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
        "cone_flow_trace.csv": "e14f6be7a46efe2ab5b984ae33b4b845e97e978695bca878fa86aafd96bd9e74",
        "summary.csv": "1998356e9654bb242fbdb2fa08ef789d48d374cf5475349b6af41db2543b6abd",
    },
    ("cone-flow", 3): {
        "cone_flow_trace.csv": "7d3da7a37706b06e753acad3d60096be0a74148b0edf7988c70ba05c81c16e15",
        "summary.csv": "16c7c7bb54b2d988eefe189c909cbaf81beac98da7d1df9c487760c11eaa9da1",
    },
    ("cone-flow", 4): {
        "cone_flow_trace.csv": "045c1c43c4e1462119e0a077fd03174cf0af8752dccb2b03189465c7d7c8440c",
        "summary.csv": "0502680c10d0c241d8a54193d07df85610d7f36229c1a4d86711fa58a55ede06",
    },
    ("kasner-flow", 3): {
        "kasner_flow_trace.csv": "8120acedd853995f32c2b6cd6fd8c9ea5ecde18fe34847b8520495b0299fd004",
        "summary.csv": "69bbf70c314a5ee50b2d60a19b2dad700bf1bdee51449ce74bf680fbbc7cb83b",
    },
    ("kasner-flow", 4): {
        "kasner_flow_trace.csv": "0455dfa6429b28a05f45611e93f332d3597951e33c9d070892d4a24a9662ac2a",
        "summary.csv": "8a716cb1efd02283372e232fbac61677626e309e7f7f0660ab385f3b348efb27",
    },
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
