#!/usr/bin/env python3
"""Per-stage benchmark of the pairrank pipeline: train -> evaluate -> predict.

Run from the root of a checkout:

    python3 perfbench/run.py --workload unique-ref --seed 1 --seconds 40 --trace 0

The workload's data are generated from ``--seed`` first (untimed). Then a
fresh worker process (``worker.py``) drives ``pairrank.cli.run`` through
train, evaluate and predict in a closed loop for ``--seconds`` seconds,
checking every pipeline's outputs and timing set-up in a fresh process
after each one. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics (from a separate
traced pipeline) with ``--trace 1``. ``--out FILE`` also appends the full
record, environment included, to FILE as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
# A run must end within 180 s; leave room for generation and clean-up.
DEADLINE_S = 170


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(spec, seed: int, threads: int) -> dict:
    import numpy

    return {
        "nproc": threads,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": threads,
        "commit": _git_commit(),
        "workload": spec.name,
        "seed": seed,
        "sizes": {k: getattr(spec, k) for k in ("n_train", "n_valid", "n_test", "vocab_size", "dim",
                                                 "min_len", "max_len", "pairs_per_ref")},
        "train_flags": list(spec.train_flags),
    }


def _worker(args, data: str, result: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--data", data,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", result]
    # The worker leads its own process group, so that a worker past the
    # deadline is killed together with any set-up probe it has started.
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pairrank", "cli.py")):
        print(f"error: no pairrank sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    from workload import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    deadline = start + DEADLINE_S
    try:
        data = os.path.join(work, "data")
        generate(spec, args.seed, data)
        main_result = _worker(args, data, os.path.join(work, "main.json"), env, deadline)
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish within the run's time limit", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited with code {exc.returncode}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    attempted, failed = main_result["attempted"], main_result["failed"]
    setup_samples = [main_result["setup_s"]] + main_result["setup_samples"]
    e2e = main_result["e2e"]
    if args.trace:
        if "layers" not in main_result:
            print("error: no traced pipeline completed its jobs", file=sys.stderr)
            return 1
        values = main_result["layers"]
    else:
        if not e2e:
            print("error: no pipeline completed its jobs", file=sys.stderr)
            return 1
        values = {
            "setup_s": statistics.median(setup_samples),
            "train_tuples_per_s": e2e["train_tuples_per_s"],
            "evaluate_tuples_per_s": e2e["evaluate_tuples_per_s"],
            "predict_tuples_per_s": e2e["predict_tuples_per_s"],
            "peak_rss_mb": main_result["peak_rss_mb"],
            # The complement of failed_fraction (printed below), so that no
            # bounded metric reads 0.
            "ok_fraction": 1.0 - failed / attempted,
        }
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "env": environment(spec, args.seed, threads),
        "seconds": args.seconds,
        "trace": args.trace,
        "pipelines": main_result["pipelines"],
        "job_seconds": main_result["job_seconds"],
        "setup_samples_s": setup_samples,
        "test_tau": e2e.get("test_tau"),
        "tie_fraction": e2e.get("tie_fraction"),
        "failed_fraction": failed / attempted,
        "hashes": main_result["hashes"],
        "self_seconds": main_result.get("self_seconds"),
        "problems": main_result["problems"],
        "result": summary,
    }
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        # Quality guards: deterministic for a seed but far apart across
        # seeds, so they carry no bound; the traced run reports them too.
        print(f"{'test_tau':34s} {record['test_tau']:14.6g} tau")
        print(f"{'tie_fraction':34s} {record['tie_fraction']:14.6g} fraction")
    print(f"{'failed_fraction':34s} {record['failed_fraction']:14.6g} fraction")
    for job, row in (record["self_seconds"] or {}).items():
        total = sum(row.values())
        shares = ", ".join(f"{mod} {sec / total:.0%}" for mod, sec in sorted(row.items(), key=lambda kv: -kv[1]))
        print(f"{job} job self time by module ({total:.3f} s): {shares}")
    for kind, hashes in main_result["hashes"].items():
        print(f"sha256 {kind}: {' '.join(hashes)}")
    for problem in main_result["problems"][:20]:
        print(f"FAILED {problem}")
    if len(main_result["problems"]) > 20:
        print(f"FAILED ... and {len(main_result['problems']) - 20} more problems")
    print("env " + json.dumps(record["env"]))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
