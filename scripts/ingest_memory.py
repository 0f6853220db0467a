"""Peak memory and wall time of ingest at scale: ``load_dataset`` then ``vectorize``.

The data set is ``--copies`` unique-ref train splits from
``perfbench/workload.py`` (seeds 1, 2, ...), concatenated: 25 copies give
50,000 tuples. The first copy's embedding table is the table. A fresh
interpreter, importing pairrank from ``CHECKOUT/src``, loads the table as
the CLI does, then the data set, then vectorizes it. The script prints one
JSON object with the wall seconds of each step and ``ru_maxrss`` (the
process's peak resident set, in MB) after each:

    python scripts/ingest_memory.py --root .
    python scripts/ingest_memory.py --root ../parent

The data are generated in a separate interpreter too. A child process can
inherit its parent's peak resident set, so the process that starts the
measurement imports neither numpy nor pairrank.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def generate(copies: int, out_dir: str) -> None:
    """Write the concatenated train splits to ``out_dir/train.jsonl``, and the first copy's table."""
    sys.path.insert(0, PERFBENCH)
    try:
        from workload import WORKLOADS, generate
    finally:
        sys.path.remove(PERFBENCH)
    with open(os.path.join(out_dir, "train.jsonl"), "w", encoding="utf-8") as sink:
        for seed in range(1, copies + 1):
            paths = generate(WORKLOADS["unique-ref"], seed, os.path.join(out_dir, str(seed)))
            with open(paths["train"], encoding="utf-8") as f:
                sink.write(f.read())
            if seed == 1:
                os.replace(paths["embeddings"], os.path.join(out_dir, "embeddings.txt"))


def measure(root: str, data_dir: str) -> dict:
    """Seconds and peak RSS after each ingest step, in this process."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from pairrank.data_ingest import load_dataset, vectorize
    from pairrank.embeddings import load_embedding_table

    if not os.path.abspath(sys.modules["pairrank"].__file__).startswith(src + os.sep):
        sys.exit(f"pairrank was imported from {sys.modules['pairrank'].__file__}, not from {src}")
    out = {"import_peak_mb": _peak_mb()}

    def step(name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        out[f"{name}_s"] = time.perf_counter() - t0
        out[f"{name}_peak_mb"] = _peak_mb()
        return result

    with open(os.path.join(data_dir, "embeddings.txt"), encoding="utf-8") as f:
        table = step("table", load_embedding_table, f)
    with open(os.path.join(data_dir, "train.jsonl"), encoding="utf-8") as f:
        dataset = step("load", load_dataset, f)
    out["tuples"] = len(step("vectorize", vectorize, dataset, table)[1])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", required=True, help="checkout holding src/pairrank")
    parser.add_argument("--copies", type=int, default=25, help="unique-ref train splits to concatenate")
    # The two child steps: write the data set to DIR, or measure ingest of it.
    parser.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--measure", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.generate:
        generate(args.copies, args.generate)
        return
    if args.measure:
        print(json.dumps(measure(args.root, args.measure)))
        return
    script = [sys.executable, os.path.abspath(__file__), "--root", args.root, "--copies", str(args.copies)]
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([*script, "--generate", tmp], check=True)
        child = subprocess.run([*script, "--measure", tmp], capture_output=True, text=True, check=True)
    print(json.dumps({"root": os.path.abspath(args.root), "copies": args.copies, **json.loads(child.stdout)},
                     indent=2))


if __name__ == "__main__":
    main()
