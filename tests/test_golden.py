"""Golden artifacts: every scenario's CSV files, byte for byte.

The configs are criterion 11's, with the two flows cut to 200 steps.  Each
run goes through ``cli.main --check-golden``, which compares bytes, and
must reproduce its recorded exit code and every file of
``tests/golden/<scenario>/`` exactly.  After a change that is meant to move
numbers, regenerate the files from the current code with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.  The same
command rewrites ``DEFAULT_DIGESTS``, the sha256 of every artifact of
the cone and Kasner flows at their 10,000-step defaults and of graph-check
at its defaults (the Bolza quadrature on 2401^2 nodes).

The bytes must not depend on the host's SIMD extensions: a fresh
interpreter with numpy's AVX-512 loops disabled must reproduce them too,
except for the scenarios in ``DISPATCH_DEPENDENT``.
"""

import hashlib
import os
import shutil
import subprocess
import sys
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

#: golden scenarios whose bytes follow numpy's SIMD dispatch: the limit
#: envelope's array exp and log round differently without AVX-512
DISPATCH_DEPENDENT = ("limit-experiment",)

#: (scenario, dim) at default options -> {artifact: sha256 of its bytes}
DEFAULT_DIGESTS = {
    ("graph-check", 2): {
        "graph_convergence.csv": "eafd7ffcbc65a0e974722d0a4e2aef6a861de86eed6d28a9c65fcd97167864fe",
        "graph_energy.csv": "1d4f707cac71094e7a11d31558d35b0b23fc1a0cefbb3b3fd2d829e93d7f442b",
        "summary.csv": "d27089ad1cb8bcb5177356ce8689b753543aba0a519d6bbe4b09f70b13e0f7b4",
    },
    ("cone-flow", 2): {
        "cone_flow_trace.csv": "0b678625868eff1a13b3fab3fe523fd2e73b33b5f8b52ab5b7659dad0d8c1820",
        "summary.csv": "efb9131f87ace818f2f7814c1774ef504ab4de41b0406613df2ba7900e83ff97",
    },
    ("cone-flow", 3): {
        "cone_flow_trace.csv": "a50bbef6afc05e96ecbf61bc6dd7463204150c71c1edde091479367463cdc813",
        "summary.csv": "d409c6e649213687606ee2a74c32caeb849ba1abc65bfbe11fc3e9ab89d1bea5",
    },
    ("cone-flow", 4): {
        "cone_flow_trace.csv": "4311e5221162966da79b273babfb1cb308930c2c34bf37bb88f12b11a6efad2d",
        "summary.csv": "63f6d0e146b209d92e9fc6dfcdbaeeb7c604583ebbbf4bcd89f90edad0c8ef92",
    },
    ("kasner-flow", 3): {
        "kasner_flow_trace.csv": "fdbecc83502700e56ed913d875a6e184b14b93f6b20593fc0161daa1ad98b828",
        "summary.csv": "a145c6d23b6eb7f4b8d9908301e27d4f83f6ecad8c72e09efabe4e176751edfe",
    },
    ("kasner-flow", 4): {
        "kasner_flow_trace.csv": "c7f68ee303b37a93d76442515017b8359208af6c3065efec19bd6407cdbcb232",
        "summary.csv": "e54f822d9c1023870085e1f529dd6189e9b7aad8b4699ced7919e8a0a85a0743",
    },
}


def _write_config(path: Path, scenario: str) -> Path:
    path.write_text(f"scenario = {scenario}\n" + GOLDEN_CONFIGS[scenario][0])
    return path


def test_golden_configs_cover_every_scenario():
    assert set(GOLDEN_CONFIGS) == set(cli.SCENARIOS)


def _check_golden(scenario: str, work: Path) -> int:
    """Exit code of the scenario's golden config, run into ``work/out`` with
    ``--check-golden``, which exits 4 on any byte that differs."""
    cfg = _write_config(work / "run.cfg", scenario)
    return cli.main(["--config", str(cfg), "--out", str(work / "out"),
                     "--check-golden", str(GOLDEN_DIR / scenario)])


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CONFIGS))
def test_scenario_matches_golden(scenario, tmp_path, capsys):
    golden = GOLDEN_DIR / scenario
    out = tmp_path / "out"
    code = _check_golden(scenario, tmp_path)
    assert code == GOLDEN_CONFIGS[scenario][1], f"{scenario}: exit {code}"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    assert f"golden check: {len(names)} artifacts match" in capsys.readouterr().out
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), \
            f"{scenario}: {name} differs from its golden file"


def _default_digests(scenario: str, dim: int, work: Path):
    """(exit code, {artifact: sha256}) of one run at its default options."""
    cfg = work / "run.cfg"
    cfg.write_text(f"scenario = {scenario}\ndim = {dim}\n")
    out = work / "out"
    code = cli.main(["--config", str(cfg), "--out", str(out)])
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}


@pytest.mark.parametrize("scenario, dim", sorted(DEFAULT_DIGESTS))
def test_default_flow_matches_its_digests(scenario, dim, tmp_path):
    code, digests = _default_digests(scenario, dim, tmp_path)
    assert code == cli.EXIT_PASS, f"{scenario} dim {dim}: exit {code}"
    assert digests == DEFAULT_DIGESTS[scenario, dim]


_NO_AVX512_SCRIPT = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from numpy._core._multiarray_umath import __cpu_features__
assert not __cpu_features__.get("X86_V4"), "numpy still dispatches its X86_V4 loops"
import numpy as np
import test_golden as g
from cmcflat import flow
work = Path(sys.argv[3])
for scenario, (_, code) in g.GOLDEN_CONFIGS.items():
    if scenario not in g.DISPATCH_DEPENDENT:
        (work / scenario).mkdir()
        assert g._check_golden(scenario, work / scenario) == code, scenario
for (scenario, dim), digests in g.DEFAULT_DIGESTS.items():
    (work / f"{scenario}-{dim}").mkdir()
    assert g._default_digests(scenario, dim, work / f"{scenario}-{dim}") == (0, digests)
# without AVX-512 loops numpy's geomspace rounds as libm does: it is the flows' grid
for steps in (100, 200, 2000, 5000, 10000):
    assert flow.tau_grid(-10.0, -0.1, steps) == (-np.geomspace(10.0, 0.1, steps + 1)).tolist()
print("goldens hold without AVX-512")
"""


def test_goldens_hold_without_avx512(tmp_path):
    # numpy picks its loops by the host's SIMD extensions, and its AVX-512
    # power, arccosh, exp and log round differently from libm; the goldens and
    # the default-run digests must not depend on them.  A fresh interpreter
    # with the X86_V4 loops disabled, as on a host without AVX-512, checks
    # every golden scenario but DISPATCH_DEPENDENT, and the six digests.
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4")
    proc = subprocess.run([sys.executable, "-c", _NO_AVX512_SCRIPT, str(src),
                           str(Path(__file__).parent), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("goldens hold without AVX-512")


def _rewrite_digests() -> None:
    """Replace the ``DEFAULT_DIGESTS`` literal in this file with fresh digests."""
    lines = ["DEFAULT_DIGESTS = {"]
    for scenario, dim in DEFAULT_DIGESTS:
        with tempfile.TemporaryDirectory() as work:
            code, digests = _default_digests(scenario, dim, Path(work))
        print(f"{scenario} dim {dim}: exit {code}")
        lines.append(f'    ("{scenario}", {dim}): {{')
        lines += [f'        "{name}": "{digest}",' for name, digest in digests.items()]
        lines.append("    },")
    lines.append("}\n")
    source = Path(__file__).read_text()
    start = source.index("DEFAULT_DIGESTS = {")
    end = source.index("\n}\n", start) + 3
    Path(__file__).write_text(source[:start] + "\n".join(lines) + source[end:])


def regenerate() -> None:
    """Rewrite every ``tests/golden/<scenario>/`` and the default-run digests
    from the current code."""
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
    _rewrite_digests()


if __name__ == "__main__":
    regenerate()
