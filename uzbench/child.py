"""One measured process of the benchmark.

It runs one workload through ``uzeta.cli`` exactly as a user would (a
verify suite over a manifest file, or ``uzeta betti``), writes the report,
and then writes a small JSON result with monotonic-clock stamps the parent
turns into wall times.  In the timed modes it also gives the process's CPU
time, and that time at reference speed (speedprobe.py), when the first
KernelContext was built and when the report was written.  run.py starts it from the root of a checkout with that
checkout's ``src`` first on PYTHONPATH:

    python3 uzbench/child.py --workload NAME --mode MODE --result PATH
        [--manifest PATH] [--report PATH] [--spans PATH]

Modes: ``setup`` stops after the first KernelContext; ``timed`` runs the
workload; both run the speed probe.  ``plain`` runs the workload without
it; ``spans`` runs it with layer spans; ``counts`` runs it with
field-operation counters.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from layertrace import Tracer, install_counters, install_spans
from speedprobe import SpeedProbe
from workloads import WORKLOADS


def run_verify(workload, manifest_path: str, report_path: str) -> None:
    from uzeta import cli, inject

    cfg = workload.run_config()
    cases = cli.load_manifest(manifest_path)
    records = []
    for suite in workload.suites:
        for case in cases:
            try:
                records.extend(cli.run_suites(cfg, [suite], [case]))
            except Exception as e:  # a crash is a failed case: report it and go on
                traceback.print_exc()
                records.append({
                    "case": f"{suite}:{case['spec']}", "suite": suite, "spec": case["spec"],
                    "error": f"{type(e).__name__}: {e}",
                })
    records.sort(key=lambda r: r["case"])
    with open(report_path, "w") as fh:
        fh.write("".join(inject.record_to_line(r) + "\n" for r in records))


def run_betti(workload, report_path: str) -> None:
    from uzeta import cli

    status = cli.main(workload.betti_argv(report_path))
    if status != 0:
        raise RuntimeError(f"uzeta betti exited with {status}")


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    Read from /proc: on Linux ``ru_maxrss`` also counts the parent's
    resident memory at fork time, which exec carries over.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=["setup", "timed", "plain", "spans", "counts"])
    parser.add_argument("--result", required=True)
    parser.add_argument("--manifest")
    parser.add_argument("--report")
    parser.add_argument("--spans")
    args = parser.parse_args()
    probe = SpeedProbe()
    if args.mode in ("setup", "timed"):
        probe.start()
    workload = WORKLOADS[args.workload]

    from uzeta import cli

    tracer = Tracer()
    counts = {}
    if args.mode == "spans":
        install_spans(tracer)
    elif args.mode == "counts":
        install_counters(counts)

    first_context = []
    build = cli.make_context

    def make_context(*a, **kw):
        ctx = build(*a, **kw)
        if not first_context:
            first_context.append((time.monotonic(), time.thread_time()))
        return ctx

    cli.make_context = make_context

    result = {"error": None}
    try:
        if args.mode == "setup":
            cli.make_context(workload.run_config())
        elif workload.is_betti:
            run_betti(workload, args.report)
        else:
            run_verify(workload, args.manifest, args.report)
    except Exception as e:  # reported to the parent, which fails the run
        traceback.print_exc()
        result["error"] = f"{type(e).__name__}: {e}"
    result["t_done"], cpu_done = time.monotonic(), time.thread_time()
    result["t_context"], cpu_context = first_context[0] if first_context else (None, None)
    if probe.marks:
        probe.stop()
        result["cpu_done"] = cpu_done
        result["ref_cpu_done"] = probe.reference_s(cpu_done)
        result["ref_cpu_context"] = None if cpu_context is None else probe.reference_s(cpu_context)
    result["peak_rss_mb"] = peak_rss_mb()
    result["counts"] = counts
    result["uzeta_file"] = sys.modules["uzeta"].__file__
    if args.mode == "spans":
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
