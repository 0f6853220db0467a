"""The CLI's JSON-lines writer gives the same bytes on both of its sinks:
the ``--out`` file and, without one, standard output."""

import pytest

from pairrank.cli import run
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
