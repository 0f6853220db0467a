"""The CLI's JSON-lines writer gives the same bytes on both of its sinks:
the ``--out`` file and, without one, standard output."""

import numpy as np
import pytest

from pairrank.cli import _write_jsonl, run
from pairrank.synthetic import token_dataset_lines, toy_embedding_lines


@pytest.mark.parametrize("job", ["extract", "predict"])
def test_standard_output_matches_out_file(tmp_path, capsysbinary, job):
    data, emb, model, out = (tmp_path / name for name in ("data.jsonl", "emb.txt", "model.json", "out.jsonl"))
    data.write_text("\n".join(token_dataset_lines(40, seed=3)) + "\n")
    emb.write_text("\n".join(toy_embedding_lines(30, dim=4, seed=2)) + "\n")
    inputs = ["--data", str(data), "--embeddings", str(emb)]
    assert run(["train", *inputs, "--out", str(model), "--epochs", "2", "--seed", "5"]) == 0
    argv = [job, *inputs, *(["--model", str(model)] if job == "predict" else [])]
    capsysbinary.readouterr()
    assert run(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert run([*argv, "--out", str(out)]) == 0
    assert stdout.count(b"\n") == 40
    assert stdout == out.read_bytes()


def test_array_columns_write_the_bytes_of_their_lists(tmp_path, capsysbinary):
    # The writer converts each array a chunk of rows at a time, and must give what the whole
    # column's tolist() gives; 600 rows span three of its 256-row chunks, the last one short.
    n, rng = 600, np.random.default_rng(4)
    arrays = {"id": [f"t{i}" for i in range(n)], "y": rng.integers(0, 2, size=n),
              "sigma": np.resize([0.1, 1 / 3, -0.0, 1e-300, 5e-324, 1.0], n), "phi": rng.normal(size=(n, 3)),
              "empty": np.zeros((n, 0)), "decision": np.resize(["tie", "t1-better", "t2-better"], n)}
    lists = {name: c.tolist() if isinstance(c, np.ndarray) else c for name, c in arrays.items()}
    written = []
    for columns in (arrays, lists):
        out = tmp_path / f"out{len(written)}.jsonl"
        _write_jsonl(columns, str(out))
        capsysbinary.readouterr()
        _write_jsonl(columns, None)
        written += [out.read_bytes(), capsysbinary.readouterr().out]
    assert written[0].count(b"\n") == n
    assert written == [written[0]] * 4
