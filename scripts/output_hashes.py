"""Hash every output of the CLI pipeline on the benchmark workloads.

For each workload in ``perfbench/workload.py`` this generates the seeded
data, then runs ``pairrank.cli.run`` on it: train (with the workload's
train flags, ``--valid`` and ``--report``), evaluate (``--report``),
predict and extract. A ``precomputed`` job then covers the
precomputed-vector path: it writes the test split with the ``psi_*``
sentence vectors of its ``extract`` output and runs the same four jobs on
that file, with no embedding table. The script prints one JSON object
giving, per workload and job, the exit code and the sha256 of the job's
standard output and of each file it wrote. The pairrank package is
imported from ``CHECKOUT/src``, so diffing the output for two checkouts
shows whether a change kept every output byte-identical:

    python scripts/output_hashes.py --root . > change.json
    python scripts/output_hashes.py --root ../parent > parent.json
    diff parent.json change.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


ROLES = ("model", "train_report", "eval_report", "predictions", "features")
VECTORS = ("psi_t1", "psi_t2", "psi_r")


def _jobs(data: dict[str, str], table: list[str], out: dict[str, str],
          train_flags) -> dict[str, tuple[list[str], list[str]]]:
    """Each job's argv, reading ``data`` by role with ``table`` flags, and the roles of the files it writes."""
    return {
        "train": (["train", "--data", data["train"], "--valid", data["valid"], *table, "--out", out["model"],
                   "--report", out["train_report"], *train_flags], ["model", "train_report"]),
        "evaluate": (["evaluate", "--data", data["test"], *table, "--model", out["model"],
                      "--report", out["eval_report"]], ["eval_report"]),
        "predict": (["predict", "--data", data["test"], *table, "--model", out["model"],
                     "--out", out["predictions"]], ["predictions"]),
        "extract": (["extract", "--data", data["test"], *table, "--out", out["features"]], ["features"]),
    }


def _run(cli, jobs: dict[str, tuple[list[str], list[str]]], out: dict[str, str]) -> dict[str, dict]:
    """Exit code and hashes per job, run in order."""
    result = {}
    for job, (argv, writes) in jobs.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.run(argv)
        hashes = {"exit": code, "stdout": _sha256(stdout.getvalue().encode())}
        for role in writes:
            # None for a file the job did not write.
            if os.path.exists(out[role]):
                with open(out[role], "rb") as f:
                    hashes[role] = _sha256(f.read())
            else:
                hashes[role] = None
        result[job] = hashes
    return result


def _with_vectors(records_path: str, features_path: str, path: str) -> None:
    """Write the records at ``records_path`` to ``path``, each with the sentence
    vectors of its row in the ``extract`` output at ``features_path``."""
    with open(records_path, encoding="utf-8") as records, open(features_path, encoding="utf-8") as features, \
            open(path, "w", encoding="utf-8") as sink:
        for line, row in zip(records, map(json.loads, features)):
            sink.write(json.dumps({**json.loads(line), **{k: row[k] for k in VECTORS}}) + "\n")


def workload_hashes(cli, generate, spec, seed: int, tmp: str) -> dict[str, dict]:
    """Exit code and hashes per job of one workload, its data generated under ``tmp``."""
    paths = generate(spec, seed, os.path.join(tmp, "data"))
    out = {role: os.path.join(tmp, role) for role in ROLES}
    result = _run(cli, _jobs(paths, ["--embeddings", paths["embeddings"]], out, spec.train_flags), out)
    precomputed = os.path.join(tmp, "precomputed.jsonl")
    _with_vectors(paths["test"], out["features"], precomputed)
    out = {role: os.path.join(tmp, f"precomputed_{role}") for role in ROLES}
    data = dict.fromkeys(("train", "valid", "test"), precomputed)
    result["precomputed"] = _run(cli, _jobs(data, [], out, spec.train_flags), out)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="checkout holding src/pairrank")
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import pairrank.cli

    if not os.path.abspath(pairrank.cli.__file__).startswith(src + os.sep):
        sys.exit(f"pairrank was imported from {pairrank.cli.__file__}, not from {src}")
    sys.path.insert(0, PERFBENCH)
    try:
        from workload import WORKLOADS, generate
    finally:
        sys.path.remove(PERFBENCH)
    doc = {}
    for name, spec in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            doc[name] = workload_hashes(pairrank.cli, generate, spec, args.seed, tmp)
    print(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
