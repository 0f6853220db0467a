"""Hash every output of the CLI pipeline on the benchmark workloads.

For each workload in ``perfbench/workload.py`` this generates the seeded
data, then runs ``pairrank.cli.run`` on it: train (with the workload's
train flags, ``--valid`` and ``--report``), evaluate (``--report``),
predict and extract. It prints one JSON object giving, per workload and
job, the exit code and the sha256 of the job's standard output and of
each file it wrote. The pairrank package is imported from
``CHECKOUT/src``, so diffing the output for two checkouts shows whether a
change kept every output byte-identical:

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


def _jobs(paths: dict[str, str], out: dict[str, str], train_flags) -> dict[str, tuple[list[str], list[str]]]:
    """Each job's argv and the roles of the files it writes."""
    table = ["--embeddings", paths["embeddings"]]
    return {
        "train": (["train", "--data", paths["train"], "--valid", paths["valid"], *table, "--out", out["model"],
                   "--report", out["train_report"], *train_flags], ["model", "train_report"]),
        "evaluate": (["evaluate", "--data", paths["test"], *table, "--model", out["model"],
                      "--report", out["eval_report"]], ["eval_report"]),
        "predict": (["predict", "--data", paths["test"], *table, "--model", out["model"],
                     "--out", out["predictions"]], ["predictions"]),
        "extract": (["extract", "--data", paths["test"], *table, "--out", out["features"]], ["features"]),
    }


def workload_hashes(cli, generate, spec, seed: int, tmp: str) -> dict[str, dict]:
    """Exit code and hashes per job of one workload, its data generated under ``tmp``."""
    paths = generate(spec, seed, os.path.join(tmp, "data"))
    out = {role: os.path.join(tmp, role) for role in
           ("model", "train_report", "eval_report", "predictions", "features")}
    result = {}
    for job, (argv, writes) in _jobs(paths, out, spec.train_flags).items():
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
