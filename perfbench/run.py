"""emblend pipeline benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload {ingest,fit,select,remote_ingest,all}
                           --seed N --seconds S --trace {0,1}

Builds the workload's inputs from the seed (several times, to time set-up),
runs the timed part in a separate worker process for about S seconds,
checks the outputs, and prints every metric by name with its unit. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics from a traced run, plus ``trace.overhead_s``.
``--workload all`` runs the four workloads one after another.

Every run also writes ``.perfbench_out/<workload>-seed<N>-trace<T>.json``:
the environment, every metric (including those that apply to one workload
only), per-iteration figures, check results and the SHA-256 of every
artifact. Traced runs also write the span table next to it.

Tune on any seed but HOLDOUT_SEED; confirm a claimed gain on HOLDOUT_SEED.
Exits 1 when an output check fails and 2 when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import common
import layers
import workloads

HOLDOUT_SEED = 104729
# set-up runs at least SETUP_MIN_REPEATS times, and more (up to SETUP_MAX_REPEATS)
# while the set-ups so far took under SETUP_MIN_TOTAL_S, so that a cheap
# set-up still yields a steady median
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_TOTAL_S = 3.0
WORKER_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import emblend
    from emblend import kernels

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = None
    if os.path.isdir(os.path.join(common.ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(os.path.join(common.SRC, "emblend")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, common.SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "thread_vars": {k: os.environ.get(k) for k in common.THREAD_VARS},
        "numpy": numpy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.active_backend(),
        "emblend": emblend.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_worker(plan, work, seconds, trace, spans_path) -> dict:
    plan = dict(plan, seconds=seconds, trace=trace, spans_path=spans_path)
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "worker_result.json")
    log_path = os.path.join(work, "worker.log")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(common.BENCH_DIR, "worker.py"), plan_path, result_path],
            stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise common.SetupError(f"worker exited {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def count_ops(iterations):
    """(attempted, failed): subcommand runs, SNS records and stub requests,
    against non-zero exits, SNS records with an error and stub failures."""
    attempted = failed = 0
    for it in iterations:
        stub = it["stub"] or {}
        attempted += len(it["exit_codes"]) + it["sns_records"] + stub.get("requests", 0)
        failed += (sum(1 for rc in it["exit_codes"] if rc != 0) + it["sns_errors"]
                   + stub.get("failures", 0))
    return attempted, failed


def run_checks(name, plan, iterations, work) -> tuple:
    problems = checks.deterministic(iterations)
    quality = {}
    if "sns_out" in plan:
        problems += checks.sns_gate(plan["corpus"], plan["sns_out"], plan["config"])
    if name == "remote_ingest":
        local_out = os.path.join(work, "local")
        args = ["--config", plan["local_config"], "--corpus", plan["corpus"]]
        workloads.cli(["embed", *args, "--out", os.path.join(local_out, "embed")])
        workloads.cli(["sns", *args, "--out", os.path.join(local_out, "sns")])
        problems += checks.same_files(plan["sns_out"], os.path.join(local_out, "sns"),
                                      ("trimmed.jsonl", "nucleus_log.jsonl"))
    if "train_log" in plan:
        problems += checks.train_log_finite(plan["train_log"])
    if "blend_dirs" in plan:
        problems += checks.blends(plan["blend_dirs"])
    if "eval_json" in plan:
        quality = checks.eval_quality(plan["eval_json"])
        if name == "fit" and quality["recall_at_1"] < workloads.FIT_RECALL_BAR:
            problems.append(f"fit: recall_at_1 {quality['recall_at_1']:.4f} "
                            f"< {workloads.FIT_RECALL_BAR}")
    return problems, quality


def trace_checks(name, layer) -> list:
    """Warm-cache workloads must not recompute embeddings: fit embeds
    nothing, and select embeds only the curation query, at most once per
    curate run that ranks by it."""
    items, misses = layer["experts.items"]["value"], layer["cache.misses"]["value"]
    if name == "fit" and (items or misses):
        return [f"fit: {items} expert calls and {misses} cache misses on a warm cache"]
    if name == "select" and items > 2:
        return [f"select: {items} expert calls, expected only the curation query"]
    return []


def end_to_end(name, setup_times, worker, quality, attempted, failed) -> dict:
    its = worker["iterations"]
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": statistics.median(it["wall_s"] for it in its),
              "peak_rss_mb": worker["peak_rss_mb"],
              "error_rate": failed / attempted,
              **quality}
    for stage in its[0]["stages"]:
        values[stage] = statistics.median(it["stages"][stage] for it in its)
    return {k: {"value": values[k], "unit": layers.END_TO_END[k][0]}
            for k in layers.WORKLOAD_E2E[name]}


def per_layer(worker) -> dict:
    units = layers.per_layer_units()
    traced = worker["layers"]
    out = {k: {"value": statistics.median(m[k] for m in traced), "unit": units[k]}
           for k in traced[0]}
    overhead = (statistics.median(it["wall_s"] for it in worker["traced"])
                - statistics.median(it["wall_s"] for it in worker["iterations"]))
    out["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
    missing = set(units) - set(out)
    if missing:
        raise common.SetupError(f"traced run lacks {sorted(missing)}")
    return out


def contract_metrics(trace: bool) -> list:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = []
        for name in workloads.WORKLOADS:
            codes.append(run_workload(argparse.Namespace(**dict(vars(args), workload=name))))
        return max(codes)
    return run_workload(args)


def run_workload(args) -> int:
    try:
        common.use_checkout_sources()
        if args.workload not in workloads.WORKLOADS:
            raise common.SetupError(f"unknown workload {args.workload!r}")
        names = contract_metrics(bool(args.trace))
        env = environment()
    except (common.SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(common.ROOT, ".perfbench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = os.path.join(common.ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    processes = []
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
                sum(setup_times) < SETUP_MIN_TOTAL_S and len(setup_times) < SETUP_MAX_REPEATS):
            for proc in processes:
                workloads.stop_process(proc)
            processes.clear()
            work = os.path.join(work_root, f"setup{len(setup_times)}")
            t0 = time.perf_counter()
            plan = workloads.setup(args.workload, work, args.seed, processes)
            setup_times.append(time.perf_counter() - t0)
        os.makedirs(out_dir, exist_ok=True)
        worker = run_worker(plan, work, args.seconds, bool(args.trace),
                            os.path.join(out_dir, f"{tag}-spans.tsv"))
        iterations = worker["iterations"] + worker.get("traced", [])
        attempted, failed = count_ops(iterations)
        problems, quality = run_checks(args.workload, plan, iterations, work)
        if failed:
            problems.append(f"{failed} of {attempted} operations failed")
        e2e = (end_to_end(args.workload, setup_times, worker, quality, attempted, failed)
               if not args.trace else {})
        layer = per_layer(worker) if args.trace else {}
        problems += trace_checks(args.workload, layer) if args.trace else []
    except (common.SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        for proc in processes:
            workloads.stop_process(proc)
        shutil.rmtree(work_root, ignore_errors=True)

    shown = layer if args.trace else e2e
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_times_s": setup_times,
              "metrics": shown, "attempted": attempted, "failed": failed,
              "problems": problems, "artifacts_sha256": iterations[-1]["hashes"],
              "iterations": [{k: v for k, v in it.items() if k != "hashes"}
                             for it in iterations]}
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(worker['iterations'])}"
          + (f"+{len(worker['traced'])} traced" if args.trace else ""))
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for key, metric in shown.items():
        print(f"  {key:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'operations failed/attempted':<40} {failed:>7d}/{attempted}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: shown[k] for k in names}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
