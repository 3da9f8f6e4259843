"""Smoke check of the benchmark itself, in about ten seconds.

    python3 -m pytest -q uzbench

It drives run.py on the one-second smoke workload (A1, ell = 3, rootcrit)
through the timed run, the digest gate and the traced run, so a broken
benchmark shows before a full benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from layertrace import layer_metrics  # noqa: E402
from speedprobe import REFERENCE_S, SpeedProbe, probe_loop  # noqa: E402
from run import check_outputs  # noqa: E402
from workloads import WORKLOADS, manifest, process_seeds  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("uzbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def _names_units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_timed_run_passes_the_digest_gate():
    res = _result(_run(ROOT, "--workload", "smoke-a1-l3", "--seed", "0",
                       "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 23
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _names_units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer():
    res = _result(_run(ROOT, "--workload", "smoke-a1-l3", "--seed", "0",
                       "--seconds", "1", "--trace", "1"))
    assert res["correct"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _names_units("per_layer")
    assert m["inject.split_calls"] == 23 and m["inject.split_repeats"] == 0
    assert m["cli.make_context_calls"] == 23
    assert m["scalars.mul_calls"] > 0 and m["linalg.solve_nnz"] > 0
    assert 0 < m["trace.coverage_frac"] <= 1


def test_wrong_digest_or_betti_is_incorrect():
    sample = {"mode": "plain", "seed": 0, "error": None, "digest": "0" * 64}
    assert check_outputs(WORKLOADS["smoke-a1-l3"], 0, [sample])
    betti = dict(sample, seed=7, betti=[1, 0, 3, 0, 5])
    assert check_outputs(WORKLOADS["betti-a2-l5"], 7, [betti])
    assert not check_outputs(WORKLOADS["betti-a2-l5"], 7, [dict(betti, betti=[1, 0, 3, 0, 6])])


def test_layer_metrics_self_time_and_repeats():
    split = {"module": "verma(1)", "kind": "g"}
    spans = [
        ["inject.split", 0.0, 10.0, -1, split],
        ["inject.generators", 1.0, 2.0, 0, None],
        ["linalg.solve", 3.0, 8.0, 0, {"rows": 4, "unknowns": 3, "nnz": 7}],
        ["inject.split", 11.0, 12.0, -1, split],
    ]
    m = layer_metrics(spans, traced_wall=20.0, untraced_wall=16.0, counts={})
    assert m["inject.split_s"] == 11.0 and m["inject.split_self_s"] == 5.0
    assert m["linalg.solve_s"] == 5.0 and m["linalg.solve_nnz"] == 7
    assert m["inject.split_repeats"] == 1 and m["inject.split_repeat_frac"] == 0.5
    assert m["trace.coverage_frac"] == 11.0 / 20.0 and m["trace.overhead_frac"] == 0.25


def test_reference_time_scales_each_stretch_and_leaves_probes_out():
    probe = SpeedProbe()
    d = 2 * REFERENCE_S  # every probe ran at half the reference speed
    probe.marks = [(0.0, d), (1.0, 1.0 + d), (2.0, 2.0 + d)]
    want = ((1.0 - d) + (1.0 - d) + (2.5 - 2.0 - d)) / 2
    assert probe.reference_s(2.5) == pytest.approx(want)
    assert probe.reference_s(0.5) == pytest.approx((0.5 - d) / 2)


def test_probes_measure_while_the_timer_runs():
    probe = SpeedProbe()
    probe.start()
    try:
        while len(probe.marks) < 4:
            probe_loop()
    finally:
        probe.stop()
    assert all(b - a > 0 for a, b in probe.marks)


def test_timed_run_starts_with_its_seed_then_the_panel():
    seeds = process_seeds(WORKLOADS["rootcrit-a1-l5"], 9, 8)
    assert seeds[:3] == [9, 0, 1] and len(set(seeds)) == 8
    assert process_seeds(WORKLOADS["borel-a2-l3"], 9, 1) == [9]


def test_seed_changes_only_random_submodules_and_quotients():
    base = manifest(WORKLOADS["rootcrit-a1-l5"], 0)
    other = manifest(WORKLOADS["rootcrit-a1-l5"], 3)
    assert manifest(WORKLOADS["rootcrit-a1-l5"], 3) == other
    changed = [a["spec"] for a, b in zip(base, other) if a != b]
    assert len(base) == len(other) == 21
    assert changed and all(s.startswith(("randsub(", "quot(")) for s in changed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "uzbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "smoke-a1-l3", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    with pytest.raises(ValueError):
        json.loads(proc.stdout.splitlines()[-1] if proc.stdout else "")
