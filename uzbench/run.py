"""Benchmark of uzeta: end-to-end and per-layer metrics of one workload.

Run from the root of a checkout (no build step; the program is ``src/``):

    python3 uzbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 uzbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Every measured process is a fresh interpreter started by this script, one
at a time (``--jobs 1`` inside uzeta), so start-up, imports and the
structure table are paid as a user pays them.

``--trace 0`` first starts SETUP_PROCESSES processes that stop after the
first KernelContext.  Then it runs the whole workload in fresh processes:
one on the corpus of the run's seed, one on each corpus of the workload's
fixed panel (workloads.py says why one has a panel), and more on seeds
derived from the run's seed while they fit in ``--seconds``.  Times are
CPU seconds of the measured process at a fixed reference CPU speed
(speedprobe.py).  uzeta runs on one thread here, so its CPU time is its
wall time without the time a shared host gives the vCPU to others; the
speed probe takes out the rest of what the host does to the CPU's speed,
which moves a plain time by tens of percent between runs.  It reports:

  ref_cpu_s    CPU seconds at reference speed of a workload process, from
               its start until every verdict exists and the report is
               written, mean over the workload processes (their corpora
               differ, and a few random submodules can dominate a corpus)
  setup_s      CPU seconds at reference speed from process start until the
               first KernelContext is built, median over all processes
               (identical work, so the median drops noise)
  peak_rss_mb  peak resident memory (VmHWM) of a workload process, median
  pass_frac    1 - failed cases / attempted cases, over all workload processes

``--trace 1`` runs the run's seed three times: untraced, with layer spans
(see layertrace.py) and with field-operation counters, and reports the
per-layer metrics.  Span times there are wall times.

A case fails on ``agree != true``, a budget skip or an exception; "no full
lift" skips are not attempts.  Every report is hashed with timing fields
stripped; at seed 0 and at every panel seed the hash must equal the stored
reference digest, passes over one corpus must agree, and betti-a2-l5 must
give [1, 0, 3, 0, 6].  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the seed, every process with its seed, wall, CPU and
reference times and digest, git sha, Python version and nproc.  ``--workload all`` runs every workload
of BENCHMARK.json and prints a table.  Working files go to ``.uzbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROCESSES = 3
RUN_DEADLINE_S = 170.0
TIMING_KEYS = ("wall_time",)

END_TO_END = {"ref_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_frac": "frac"}


class BenchError(RuntimeError):
    pass


def read_report(path: str, workload) -> Dict:
    """sha256 of the report with timing fields stripped, and its case outcomes."""
    from workloads import BETTI_EXPECTED

    with open(path) as fh:
        records = [json.loads(ln) for ln in fh if ln.strip()]
    digest = hashlib.sha256()
    for r in records:
        core = {k: v for k, v in r.items() if k not in TIMING_KEYS}
        digest.update(json.dumps(core, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    out = {"digest": digest.hexdigest(), "attempted": 0, "failed": 0}
    if workload.is_betti:
        out["betti"] = [r["borel_dim"] for r in records]
        out["attempted"] = 1
        out["failed"] = int(out["betti"] != BETTI_EXPECTED)
        return out
    for r in records:
        if r.get("skipped") and r.get("reason") == "no full lift":
            continue
        out["attempted"] += 1
        if "error" in r or r.get("skipped") or r.get("agree") is not True:
            out["failed"] += 1
    return out


class Runner:
    """Starts child processes for one workload inside one checkout."""

    def __init__(self, root: str, workload, deadline: float):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.deadline = deadline
        self.work = os.path.join(root, ".uzbench", workload.name)
        os.makedirs(self.work, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _write_manifest(self, seed: int) -> str:
        from workloads import manifest

        path = self._path(f"manifest-{seed}.jsonl")
        with open(path, "w") as fh:
            for case in manifest(self.workload, seed):
                fh.write(json.dumps(case, sort_keys=True) + "\n")
        return path

    def spawn(self, mode: str, seed: int) -> Dict:
        result = self._path(f"result-{mode}.json")
        report = self._path(f"report-{mode}.jsonl")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload.name, "--mode", mode, "--result", result]
        if mode != "setup":
            cmd += ["--report", report]
            if not self.workload.is_betti:
                cmd += ["--manifest", self._write_manifest(seed)]
        if mode == "spans":
            cmd += ["--spans", self.spans_path]
        for stale in (result, report):
            if os.path.exists(stale):
                os.remove(stale)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (self.src, env.get("PYTHONPATH")) if p)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload.name} {mode} seed {seed}: passed the run deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if err:
            sys.stderr.write(err)
        if proc.returncode != 0 or not os.path.exists(result):
            raise BenchError(f"{self.workload.name} {mode} seed {seed}: exit {proc.returncode}")
        with open(result) as fh:
            res = json.load(fh)
        if not res["uzeta_file"].startswith(self.src + os.sep):
            raise BenchError(f"uzeta was imported from {res['uzeta_file']}, not {self.src}")
        sample = {
            "mode": mode,
            "seed": seed,
            "wall_s": res["t_done"] - t_spawn,
            "cpu_s": res.get("cpu_done"),
            "ref_cpu_s": res.get("ref_cpu_done"),
            "setup_s": res.get("ref_cpu_context"),
            "peak_rss_mb": res["peak_rss_mb"],
            "counts": res["counts"],
            "error": res["error"],
        }
        if mode == "setup":
            if res["error"] or res["t_context"] is None:
                raise BenchError(f"{self.workload.name} set-up failed: {res['error']}")
        elif res["error"]:
            # the workload itself raised: its cases all count as failed
            sample.update(digest=None, attempted=1, failed=1)
        else:
            sample.update(read_report(report, self.workload))
        return sample

    @property
    def spans_path(self) -> str:
        return self._path("spans.json")


def _quartiles(values: List[float]) -> Dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def check_outputs(workload, seed: int, samples: List[Dict]) -> List[str]:
    """Correctness problems of a run's workload processes (empty if none)."""
    from workloads import BETTI_EXPECTED, REFERENCE_DIGESTS

    problems = []
    for s in samples:
        if s["error"]:
            problems.append(f"seed {s['seed']} {s['mode']}: {s['error']}")
        if workload.is_betti and s.get("betti") != BETTI_EXPECTED:
            problems.append(f"seed {s['seed']}: betti {s.get('betti')} != {BETTI_EXPECTED}")
    by_seed: Dict[int, set] = {}
    for s in samples:
        by_seed.setdefault(s["seed"], set()).add(s["digest"])
    for ps, digests in by_seed.items():
        if len(digests) != 1:
            problems.append(f"seed {ps}: passes disagree on the report digest")
    references = REFERENCE_DIGESTS.get(workload.name, {})
    if seed in references and seed not in by_seed:
        problems.append(f"no report of seed {seed} to check against its reference digest")
    for ps, digests in by_seed.items():
        want = references.get(ps)
        if want is not None and digests != {want}:
            problems.append(f"seed {ps} digest {sorted(map(str, digests))} != reference {want}")
    return problems


def run_timed(runner: Runner, seed: int, seconds: float) -> Dict:
    from workloads import process_seeds

    workload = runner.workload
    runner.spawn("setup", seed)  # warm-up, not timed
    setups = [runner.spawn("setup", seed)["setup_s"] for _ in range(SETUP_PROCESSES)]
    samples: List[Dict] = []
    t0 = time.monotonic()
    while True:
        n = len(samples) + 1
        samples.append(runner.spawn("timed", process_seeds(workload, seed, n)[-1]))
        elapsed = time.monotonic() - t0
        per_process = elapsed / n
        if time.monotonic() + per_process > runner.deadline:
            break
        # past the run's seed and the panel, start another process only if
        # it should end inside the measuring time
        if n > workload.panel and elapsed + per_process > seconds:
            break
    setups += [s["setup_s"] for s in samples if s["setup_s"] is not None]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    values = {
        "ref_cpu_s": [s["ref_cpu_s"] for s in samples],
        "setup_s": setups,
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    metrics = {k: statistics.median(v) for k, v in values.items()}
    metrics["ref_cpu_s"] = statistics.fmean(values["ref_cpu_s"])
    metrics["pass_frac"] = 1.0 - failed / attempted
    return {
        "samples": samples,
        "setup_samples": setups,
        "summary": {k: _quartiles(v) for k, v in values.items()},
        "metrics": metrics,
        "units": END_TO_END,
        "attempted": attempted,
        "failed": failed,
    }


def run_traced(runner: Runner, seed: int) -> Dict:
    from layertrace import PER_LAYER, layer_metrics

    runner.spawn("setup", seed)  # warm-up, not timed
    base = runner.spawn("plain", seed)
    traced = runner.spawn("spans", seed)
    counted = runner.spawn("counts", seed)
    with open(runner.spans_path) as fh:
        spans = json.load(fh)
    samples = [base, traced, counted]
    return {
        "samples": samples,
        "metrics": layer_metrics(spans, traced["wall_s"], base["wall_s"], counted["counts"]),
        "units": PER_LAYER,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
    }


def _git_sha(root: str) -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not its own git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> Dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runner = Runner(root, workload, time.monotonic() + RUN_DEADLINE_S)
    out = run_traced(runner, seed) if trace else run_timed(runner, seed, seconds)
    problems = check_outputs(workload, seed, out["samples"])
    out.update(
        workload=name, seed=seed, trace=int(trace), seconds=seconds,
        correct=not problems, problems=problems,
        git_sha=_git_sha(root), python=platform.python_version(), nproc=os.cpu_count(),
    )
    with open(os.path.join(runner.work, f"last-trace{int(trace)}.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return out


def contract_line(correct: bool, attempted: int, failed: int, metrics: Dict, units: Dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "uzeta", "cli.py")):
        print(f"error: no uzeta sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload == "all":
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    results = []
    try:
        for name in names:
            results.append(run_workload(root, name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    for r in results:
        detail = {k: v for k, v in r.items() if k != "metrics"}
        print(json.dumps({"detail": detail}, sort_keys=True))
        for k, unit in r["units"].items():
            print(f"# {r['workload']:16s} {k:30s} {r['metrics'][k]:>14.6g} {unit}")
        for p in r["problems"]:
            print(f"# INCORRECT {r['workload']}: {p}")
    correct = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics, units = results[0]["metrics"], results[0]["units"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
        units = {f"{r['workload']}.{k}": u for r in results for k, u in r["units"].items()}
    print(contract_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
