"""Timed part of one benchmark run, in a process of its own.

Usage: python3 perfbench/worker.py PLAN_JSON RESULT_JSON

Runs the plan's stages (see workloads.py) as timed iterations for the
plan's ``seconds``, then reports each iteration's stage times, exit codes,
operation counts and artifact hashes, and the process's peak RSS. With
``trace`` set, half the time runs untraced and half traced; the traced half
also yields per-layer metrics and the spans file. The peak RSS is read
before tracing starts, so it covers untraced iterations only.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import urllib.request

import common
from tracing import Tracer, layer_metrics

common.use_checkout_sources()

from emblend.cli import run  # noqa: E402

# an iteration is not started when it would likely end past this share of the budget
OVERRUN = 1.25


def peak_rss_mb() -> float:
    """This process's peak RSS. VmHWM belongs to the address space made at
    exec; ru_maxrss can carry the parent's peak across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stub_stats(url):
    """The stub's counters since the last call, which zeroes them."""
    if not url:
        return None
    with urllib.request.urlopen(url + "stats?reset=1", timeout=30) as resp:
        return json.load(resp)


def _hash_tree(root) -> dict:
    hashes = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, os.path.dirname(root))] = hashlib.sha256(
                    fh.read()).hexdigest()
    return hashes


def _sns_counts(paths):
    records = errors = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                records += 1
                errors += json.loads(line).get("error") is not None
    return records, errors


def iteration(plan) -> dict:
    for path in plan["fresh"]:
        shutil.rmtree(path, ignore_errors=True)
    if plan["restore"]:
        snapshot, target = plan["restore"]
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(snapshot, target)
    _stub_stats(plan["stub_url"])

    stages, rcs = {}, []
    cpu = time.process_time()
    start = time.perf_counter()
    for metric, argv in plan["stages"]:
        t0 = time.perf_counter()
        rcs.append(run(argv))
        stages[metric] = stages.get(metric, 0.0) + time.perf_counter() - t0
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu

    stub = _stub_stats(plan["stub_url"])
    records, errors = _sns_counts(p for p in plan["sns_logs"] if os.path.exists(p))
    hashes = {}
    for root in plan["artifacts"]:
        hashes.update(_hash_tree(root))
    return {"wall_s": wall, "cpu_s": cpu, "stages": stages, "exit_codes": rcs,
            "sns_records": records, "sns_errors": errors, "stub": stub, "hashes": hashes}


def loop(plan, budget, on_start=None) -> list:
    """Iterations until ``budget`` seconds pass; at least one."""
    done = []
    began = time.perf_counter()
    while True:
        if on_start is not None:
            on_start(len(done))
        done.append(iteration(plan))
        elapsed = time.perf_counter() - began
        typical = statistics.median(it["wall_s"] for it in done)
        if elapsed >= budget or elapsed + typical > OVERRUN * budget:
            return done


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    seconds = float(plan["seconds"])
    result = {}
    if not plan["trace"]:
        result["iterations"] = loop(plan, seconds)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        result["iterations"] = loop(plan, seconds / 2)
        tracer = Tracer()
        tracer.install()

        def next_run(index):
            tracer.run_id = index

        try:
            traced = loop(plan, seconds / 2, on_start=next_run)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["layers"] = [layer_metrics(tracer.spans, i, it["stub"])
                            for i, it in enumerate(traced)]
        tracer.write_spans(plan["spans_path"])
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
