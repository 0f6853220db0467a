"""The workload process: set-up, then closed-loop train -> evaluate -> predict.

``run.py`` starts this script in a fresh interpreter. In an untraced run,
that process starts it again with ``--probe`` after each pipeline to time
set-up alone, so set-up samples are spread over the whole run. Only the
standard library is imported before the set-up timer starts, so
``setup_s`` covers importing pairrank (and numpy through it) and loading
the embedding table.

Every job goes through ``pairrank.cli.run`` in this process, exactly as a
user's command line would; the benchmark never repeats the CLI's own
sequence of library calls. After each pipeline the outputs are checked
against the oracles in ``oracle.py``, outside the timed jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

SAMPLE_ROWS = 100


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout holding src/pairrank")
    p.add_argument("--data", required=True, help="directory written by workload.generate")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True, help="where to write this process's result JSON")
    p.add_argument("--probe", action="store_true", help="measure set-up only")
    return p.parse_args()


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


class Pipeline:
    """One workload's jobs and checks, repeated in a closed loop."""

    def __init__(self, args, cli):
        from oracle import read_jsonl, read_vectors
        from workload import WORKLOADS

        self.cli = cli
        self.spec = WORKLOADS[args.workload]
        d = args.data
        self.paths = {k: os.path.join(d, f) for k, f in (
            ("train", "train.jsonl"), ("valid", "valid.jsonl"), ("test", "test.jsonl"),
            ("embeddings", "embeddings.txt"), ("model", "model.json"), ("train_report", "train_report.jsonl"),
            ("eval_report", "eval.json"), ("predictions", "predictions.jsonl"),
            ("sample", "sample.jsonl"), ("features", "features.jsonl"))}
        self.test_records = read_jsonl(self.paths["test"])
        picked = sorted(random.Random(args.seed).sample(range(len(self.test_records)), SAMPLE_ROWS))
        self.sample_records = [self.test_records[i] for i in picked]
        with open(self.paths["sample"], "w", encoding="utf-8") as f:
            f.writelines(json.dumps(r) + "\n" for r in self.sample_records)
        wanted = {t for r in self.sample_records for k in ("reference", "hyp1", "hyp2") for t in r[k].split()}
        with open(self.paths["embeddings"], encoding="utf-8") as f:
            self.vectors = read_vectors(f, wanted)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, set[str]] = {"features": set(), "checkpoint": set(), "predictions": set()}

    def jobs(self) -> list[tuple[str, list[str]]]:
        p = self.paths
        common = ["--embeddings", p["embeddings"]]
        return [
            ("train", ["train", "--data", p["train"], "--valid", p["valid"], *common, "--out", p["model"],
                       "--report", p["train_report"], *self.spec.train_flags]),
            ("evaluate", ["evaluate", "--data", p["test"], *common, "--model", p["model"],
                          "--report", p["eval_report"]]),
            ("predict", ["predict", "--data", p["test"], *common, "--model", p["model"],
                         "--out", p["predictions"]]),
        ]

    def record(self, what: str, problems: list[str]) -> bool:
        """Count one operation, failed when ``problems`` is not empty."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{what}: {m}" for m in problems]
        return not problems

    def run_jobs(self, tracer=None) -> dict[str, float] | None:
        """Wall seconds per job, or None when a job exits nonzero."""
        seconds = {}
        for job, argv in self.jobs():
            t0 = time.perf_counter()
            if tracer is None:
                rc = self.cli.run(argv)
            else:
                tracer.job = job
                rc = tracer.span(f"cli.{job}", self.cli.run, argv)
            seconds[job] = time.perf_counter() - t0
            if not self.record(job, [] if rc == 0 else [f"exit code {rc}"]):
                return None
        return seconds

    def check(self, extract: bool) -> dict[str, float]:
        """Check this pipeline's outputs, counting each check; return its quality figures.

        With ``extract``, also run ``pairrank extract`` on the sample and
        check its features against the oracles.
        """
        from oracle import check_counts, check_features, read_jsonl
        from pairrank.model import load_model

        p = self.paths
        if extract and self.record("extract", [] if self.cli.run(
                ["extract", "--data", p["sample"], "--embeddings", p["embeddings"], "--out", p["features"]]) == 0
                else ["nonzero exit"]):
            self.record("features", check_features(
                self.sample_records, read_jsonl(p["features"]), self.vectors, self.spec.dim))
            self.hashes["features"].add(_sha256(p["features"]))
        predictions = read_jsonl(p["predictions"])
        with open(p["eval_report"], encoding="utf-8") as f:
            report = json.load(f)
        self.record("counts", check_counts(self.test_records, predictions, report))
        want = (self.spec.dim, 16 + len(self.test_records[0]["external_scores_1"]))
        try:
            with open(p["model"], encoding="utf-8") as f:
                config = load_model(f).config
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"does not load: {type(exc).__name__}: {exc}"]
        else:
            got = (config.sentence_dim, config.pairwise_dim)
            problems = [] if got == want else [f"dimensions {got}, data needs {want}"]
        self.record("checkpoint", problems)
        self.hashes["checkpoint"].add(_sha256(p["model"]))
        self.hashes["predictions"].add(_sha256(p["predictions"]))
        ties = sum(1 for r in predictions if r["decision"] == "tie")
        return {"test_tau": report["tau"], "tie_fraction": ties / len(predictions)}


def main() -> None:
    args = _args()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pairrank.cli
    from pairrank.embeddings import load_embedding_table

    with open(os.path.join(args.data, "embeddings.txt"), encoding="utf-8") as f:
        load_embedding_table(f)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(pairrank.cli.__file__).startswith(src + os.sep):
        sys.exit(f"pairrank was imported from {pairrank.cli.__file__}, not from {src}")
    result: dict = {"setup_s": setup_s}
    if not args.probe:
        result.update(measure(args, pairrank.cli))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)


def probe_setup(args) -> float:
    """Set-up seconds of a fresh interpreter running this script with ``--probe``."""
    result = args.result + ".probe"
    subprocess.run([sys.executable, os.path.abspath(__file__), "--root", args.root, "--data", args.data,
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--result", result, "--probe"], stdout=subprocess.DEVNULL, check=True, timeout=60)
    with open(result, encoding="utf-8") as f:
        return json.load(f)["setup_s"]


def measure(args, cli) -> dict:
    """Run pipelines until ``args.seconds`` is spent (at least two); medians of each figure.

    With tracing on, untraced and traced pipelines alternate so that each
    traced one has an untraced partner for the overhead figure.
    """
    import layers
    from spans import Tracer

    pipe = Pipeline(args, cli)
    spec = pipe.spec
    sizes = {"train": spec.n_train, "evaluate": spec.n_test, "predict": spec.n_test}
    e2e: list[dict] = []
    traced: list[dict] = []
    breakdowns: list[dict] = []
    job_seconds: list[dict] = []
    setup_samples: list[float] = []
    last_untraced = None
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        tracer = Tracer() if args.trace and i % 2 == 1 else None
        if tracer:
            tracer.install(layers.TARGETS)
        try:
            seconds = pipe.run_jobs(tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if seconds:
            job_seconds.append({"traced": tracer is not None} | seconds)
            # Two feature extractions are enough to show that features repeat.
            quality = pipe.check(extract=i < 2)
            if tracer is None:
                last_untraced = seconds
                e2e.append({f"{job}_tuples_per_s": sizes[job] / s for job, s in seconds.items()} | quality)
            elif last_untraced:
                traced.append(layers.metrics(tracer.spans, seconds, last_untraced, pipe.paths["model"])
                              | {f"evaluation.{k}": v for k, v in quality.items()})
                pipe.record("trace coverage", layers.check_coverage(tracer.spans, seconds, last_untraced))
                breakdowns.append(layers.job_breakdown(tracer.spans))
        if not args.trace:
            setup_samples.append(probe_setup(args))
        i += 1
        elapsed = time.perf_counter() - start
        if i >= 2 and elapsed + (time.perf_counter() - t0) > args.seconds:
            break
    for kind, values in pipe.hashes.items():
        pipe.record(f"{kind} hash repeat", [] if len(values) <= 1 else [f"{len(values)} distinct hashes"])
    keys = e2e[0].keys() if e2e else ()
    out = {
        "pipelines": i,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "problems": pipe.problems,
        "hashes": {k: sorted(v) for k, v in pipe.hashes.items()},
        "job_seconds": job_seconds,
        "setup_samples": setup_samples,
        "e2e": {k: _median([m[k] for m in e2e]) for k in keys},
    }
    if traced:
        out["layers"] = {k: _median([m[k] for m in traced]) for k in traced[0]}
        out["self_seconds"] = {job: {mod: _median([b[job][mod] for b in breakdowns]) for mod in row}
                               for job, row in breakdowns[0].items()}
    return out


if __name__ == "__main__":
    main()
