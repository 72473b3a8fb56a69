"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numsgps
import pytest
import run
import workloads
from speed import SpeedProbe
from tracer import Tracer, span_times

HERE = Path(__file__).resolve().parent.parent


def first_jobs(workload, seed, count):
    stream = itertools.chain.from_iterable(workloads.WORKLOADS[workload](seed))
    return list(itertools.islice(stream, count))


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_wrong_golden_digest_raises_failed_frac(tmp_path, monkeypatch, capsys):
    golden = json.loads(run.GOLDEN.read_text())
    golden["weighted_oracle"] = {k: "0" * 16 for k in golden["weighted_oracle"]}
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", wrong)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    args = ["--workload", "weighted_oracle", "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0.01"]
    assert run.main(args) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "failed_frac              1 frac" in out


def test_recorded_golden_digests_pass(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    args = ["--workload", "weighted_oracle", "--seed", str(workloads.HELD_OUT_SEED), "--seconds", "0.01"]
    assert run.main(args) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert result["correct"] and result["failed"] == 0
    assert f"{result['attempted']} had a golden digest" in out


def test_job_tail_states_percentile_and_sample_count():
    walls = [i / 100 for i in range(1, 101)]
    assert run.tail(walls) == (0.90, 90.0, 100)
    assert run.tail(walls[:5]) == (0.05, 100.0, 5)

    class Done:
        speed = 1.0

        def __init__(self, wall):
            self.wall, self.cpu = wall, wall

    _, lines = run.end_to_end([Done(w) for w in walls], [0.2, 0.3, 0.4])
    assert any(line.startswith("job_tail_s") and "p90.0 of 100 jobs, 10 beyond it" in line for line in lines)


def test_seed_is_the_only_source_of_variation():
    for workload in workloads.WORKLOADS:
        keys = [job.key for job in first_jobs(workload, 7, 40)]
        assert keys == [job.key for job in first_jobs(workload, 7, 40)]
        assert keys != [job.key for job in first_jobs(workload, 8, 40)]


def test_weighted_rounds_take_one_input_per_cost_stratum():
    strata = len(workloads.COST_STRATA) + 1
    jobs = first_jobs("weighted_oracle", 3, strata)
    drawn = []
    for job in jobs:
        gens, w = job.key.split("|")
        drawn.append(workloads._stratum(
            tuple(map(int, gens.split(","))), tuple(Fraction(x) for x in w.split(","))))
    assert sorted(drawn) == list(range(strata))


def test_self_time_subtracts_child_spans():
    spans = [
        [0, "parametric.scan", 0.0, 10.0, -1],
        [0, "semigroup.Semigroup.frobenius", 2.0, 5.0, 0],
        [0, "semigroup.Semigroup._residue_table", 2.5, 4.5, 1],
    ]
    inclusive, self_time = span_times(spans)
    assert inclusive["parametric.scan"] == 10.0
    assert self_time == {"parametric": 7.0, "semigroup": 3.0}


def test_tracer_covers_imported_names_and_restores_them():
    # the package attribute "factorizations" is the function, not the module
    factorizations = sys.modules["numsgps.factorizations"]
    original = numsgps.betti_elements
    job = workloads.weighted_job((6, 9, 20), (Fraction(3), Fraction(1), Fraction(4)))
    plain = job.canonical(job.call())
    tracer = Tracer()
    with tracer.installed():
        tracer.start_job(0)
        traced = job.canonical(job.call())
        assert numsgps.weighted.betti_elements is factorizations.betti_elements
        assert numsgps.betti_elements is not original
    assert numsgps.betti_elements is original
    assert factorizations.betti_elements is original
    assert traced == plain
    names = {span[1] for span in tracer.spans}
    # max_delta_w reaches betti_elements through the name weighted imported
    assert {"weighted.max_delta_w", "factorizations.betti_elements",
            "semigroup.Semigroup._residue_table"} <= names
    assert "semigroup.Semigroup.contains" not in names
    assert tracer.counts["betti_calls"] == 1 and tracer.counts["profile_calls"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "no numsgps sources" in proc.stderr


def test_speed_samples_are_taken_out_of_job_time():
    job = workloads.Job("busy", lambda: sum(range(20_000_000)), str, lambda result: [])
    with SpeedProbe() as probe:
        before = probe.wall
        outcome = run.Outcome(job, probe)
    stolen = (outcome.end - outcome.start) - outcome.wall
    assert stolen > 0 and stolen == pytest.approx(probe.wall - before)
    assert outcome.speed > 0
