"""Frozen CLI and demo outputs: exit status, stdout and stderr of a fixed set of
invocations must stay byte-identical.

The expected outputs live in ``golden_cli.json`` next to this file.  They are
data, not a specification: only re-record them, with
``PYTHONPATH=src python tests/test_cli_golden.py``, for a change that means to
alter what the CLI or a demo prints.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from numsgps import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
DEMOS = Path(__file__).resolve().parents[1] / "demos"

EX53 = {"w": [3, 4, 6, 9], "r": [1, 2, 4, 6]}
EX71 = {"polys": [[0, 0, 1], [1, 1, 1], [1, 2, 1], [3, 2, 1]]}
TWO_GAP = {"w": [1, 1], "r": [0, 2]}
UNIT = {"w": [1, 1, 1], "r": [0, 1, 3]}
UNIT_GCD2 = {"w": [1, 1, 1], "r": [0, 4, 6]}
# fails its Betti bijection below the transport bound: one anomaly, exit 0
EARLY_FAIL = {"w": [2, 3, 2, 1], "r": [0, 1, 3, 3]}
# fails its closed-form Apery check at n = 7, 8, 9, below the Apery bound:
# FAIL rows, exit 0
APERY_FAIL = {"w": [1, 1, 1], "r": [0, 1, 6]}

# (case id, family spec or None, argv); "{spec}" stands for the spec file path
_BASE = [
    ("invariants", None, ["invariants", "6", "9", "20"]),
    ("invariants-gcd2", None, ["invariants", "4", "6"]),
    ("invariants-apery9", None, ["invariants", "6", "9", "20", "--apery", "9"]),
    ("invariants-bad", None, ["invariants", "0"]),
    ("minpres", None, ["minpres", "6", "9", "20"]),
    ("delta-weighted", None,
     ["delta", "6", "9", "20", "--weights", "3", "1", "4", "--max-element", "400"]),
    ("delta-unweighted", None, ["delta", "6", "9", "20", "--max-element", "100"]),
    ("verify-phi-506", EX53, ["family", "--spec", "{spec}", "verify-phi", "--n", "506"]),
    ("verify-betti-515", EX53,
     ["family", "--spec", "{spec}", "verify-betti-bijection", "--n", "515"]),
    ("verify-betti-anomaly", EARLY_FAIL,
     ["family", "--spec", "{spec}", "verify-betti-bijection", "--n", "4"]),
    ("scan-frobenius", EX53,
     ["family", "--spec", "{spec}", "scan", "--invariant", "frobenius",
      "--range", "5", "61", "--step", "2"]),
    ("fit-genus-readme", EX53,
     ["family", "--spec", "{spec}", "fit", "--invariant", "genus",
      "--range", "5", "61", "--step", "2", "--degree", "2", "--period", "2"]),
    ("scan-betti-count", EX53,
     ["family", "--spec", "{spec}", "scan", "--invariant", "betti_count",
      "--range", "5", "40"]),
    ("scan-betti-multiset", EX53,
     ["family", "--spec", "{spec}", "scan", "--invariant", "betti_multiset",
      "--range", "5", "40"]),
    ("scan-minpres-degrees", EX53,
     ["family", "--spec", "{spec}", "scan", "--invariant", "minpres_degrees",
      "--range", "5", "30"]),
    ("scan-polys", EX71,
     ["family", "--spec", "{spec}", "scan", "--invariant", "minpres_degrees",
      "--range", "5", "12"]),
    ("scan-type", UNIT,
     ["family", "--spec", "{spec}", "scan", "--invariant", "type", "--range", "7", "30"]),
    ("scan-wilf", UNIT,
     ["family", "--spec", "{spec}", "scan", "--invariant", "wilf", "--range", "7", "30"]),
    ("verify-apery", UNIT,
     ["family", "--spec", "{spec}", "verify-apery", "--range", "2", "20", "--step", "3"]),
    ("verify-pf", UNIT, ["family", "--spec", "{spec}", "verify-pf", "--n", "21"]),
    ("verify-pf-gcd2", UNIT_GCD2, ["family", "--spec", "{spec}", "verify-pf", "--n", "37"]),
    ("verify-apery-gcd2", UNIT_GCD2,
     ["family", "--spec", "{spec}", "verify-apery", "--range", "10", "20", "--step", "3"]),
    ("verify-apery-fail", APERY_FAIL,
     ["family", "--spec", "{spec}", "verify-apery", "--range", "5", "12"]),
    ("fit-ok", TWO_GAP,
     ["family", "--spec", "{spec}", "fit", "--invariant", "frobenius",
      "--range", "5", "61", "--step", "2", "--degree", "2", "--period", "2"]),
    ("fit-mismatch", TWO_GAP,
     ["family", "--spec", "{spec}", "fit", "--invariant", "frobenius",
      "--range", "5", "20", "--degree", "1", "--period", "1"]),
    ("fit-too-few", TWO_GAP,
     ["family", "--spec", "{spec}", "fit", "--invariant", "frobenius",
      "--range", "5", "7", "--degree", "2", "--period", "2"]),
    ("scan-step-zero", TWO_GAP,
     ["family", "--spec", "{spec}", "scan", "--invariant", "genus",
      "--range", "5", "9", "--step", "0"]),
]

CASES = [
    (f"{name}-{fmt or 'human'}", spec, argv + ([fmt] if fmt else []))
    for name, spec, argv in _BASE
    for fmt in ("--json", "--csv", None)
]


def run_cli(tmp_path, spec, argv):
    path = Path(tmp_path) / "fam.json"
    if spec is not None:
        path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(path) if a == "{spec}" else a for a in argv])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_demo(name, cwd):
    # matplotlib is hidden so the weighted demo prints the same text whether
    # or not it is installed, and writes no plot
    code = (
        "import runpy, sys; sys.modules['matplotlib'] = None; "
        f"runpy.run_path({str(DEMOS / name)!r}, run_name='__main__')"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, env=env, check=False
    )
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case, spec, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_frozen(tmp_path, case, spec, argv):
    assert run_cli(tmp_path, spec, argv) == _golden()["cli"][case]


def test_cli_outputs_back_to_back_in_reverse(tmp_path):
    """All cases in one process, last first: the parser ``main`` reuses
    carries nothing from one call to the next."""
    golden = _golden()["cli"]
    for case, spec, argv in reversed(CASES):
        assert run_cli(tmp_path, spec, argv) == golden[case], case


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_output_frozen(tmp_path, name):
    assert run_demo(name, tmp_path) == _golden()["demos"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "cli": {case: run_cli(tmp, spec, argv) for case, spec, argv in CASES},
            "demos": {p.name: run_demo(p.name, tmp) for p in sorted(DEMOS.glob("*.py"))},
        }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record['cli'])} CLI cases and {len(record['demos'])} demos in {GOLDEN}")
