"""Synthetic datasets for experiments and self-checks.

These generators plant a known decision rule so learning behavior can be
verified without any human-judged corpus: a linear rule over pairwise
feature differences (learnable by the single-layer network) and an
interaction rule over sentence-vector inner products (which needs the
hidden blocks).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .model import Batch, pack

# The words of token_dataset_lines, w0 to w29; toy_embedding_lines gives them vectors.
VOCAB_SIZE = 30


def linear_rule_dataset(
    n: int,
    pairwise_dim: int = 8,
    seed: int = 0,
    noise: float = 0.0,
    rule_seed: int = 0,
) -> Batch:
    """Label = sign of a fixed weight vector applied to phi(t1,r) - phi(t2,r).

    ``rule_seed`` fixes the planted weight vector, so train and
    validation sets drawn with different ``seed`` share one rule.
    ``noise`` flips that fraction of labels at random.
    """
    rng = np.random.default_rng(seed)
    w_star = np.random.default_rng(rule_seed).normal(size=pairwise_dim)
    rows, ys = [], []
    empty = np.zeros(0)
    for _ in range(n):
        f1 = rng.normal(size=pairwise_dim)
        f2 = rng.normal(size=pairwise_dim)
        y = int(w_star @ (f1 - f2) > 0)
        if noise > 0 and rng.random() < noise:
            y = 1 - y
        rows.append((empty, empty, empty, f1, f2))
        ys.append(y)
    return pack(rows, ys)


def interaction_rule_dataset(n: int, sentence_dim: int = 3, seed: int = 0) -> Batch:
    """Label = which hypothesis vector has the larger inner product with the reference.

    The rule is a product of inputs, so it is invisible to a linear model
    over the concatenated vectors but learnable by the interaction blocks.
    """
    rng = np.random.default_rng(seed)
    rows, ys = [], []
    empty = np.zeros(0)
    for _ in range(n):
        p1 = rng.normal(size=sentence_dim)
        p2 = rng.normal(size=sentence_dim)
        pr = rng.normal(size=sentence_dim)
        rows.append((p1, p2, pr, empty, empty))
        ys.append(int(p1 @ pr > p2 @ pr))
    return pack(rows, ys)


def mixed_rule_batch(n: int, seed: int = 0) -> Batch:
    """Interaction-rule sentence vectors (d = 3) with linear-rule pairwise
    features (k = 2) and labels, drawn from ``seed`` and ``seed + 1``: input
    on both of the network's channels, as the gradient check takes it."""
    sent = interaction_rule_dataset(n, sentence_dim=3, seed=seed)
    pair = linear_rule_dataset(n, pairwise_dim=2, seed=seed + 1)
    return dataclasses.replace(sent, F=pair.F, y=pair.y)


def token_dataset_lines(
    n: int,
    seed: int = 0,
    splits: Optional[list[str]] = None,
    with_external: bool = False,
) -> list[str]:
    """Random token-level judgment records as JSON lines.

    References are random sentences; each hypothesis is the reference
    with a few random token substitutions, and the less-corrupted one is
    labeled better.
    """
    import json

    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(VOCAB_SIZE)]
    splits = splits or ["all"]
    lines = []
    for i in range(n):
        length = int(rng.integers(4, 12))
        ref = [vocab[j] for j in rng.integers(0, VOCAB_SIZE, size=length)]

        def corrupt(k):
            hyp = list(ref)
            for pos in rng.choice(length, size=min(k, length), replace=False):
                hyp[pos] = vocab[int(rng.integers(0, VOCAB_SIZE))]
            return hyp

        k1, k2 = sorted(rng.choice(np.arange(1, length + 1), size=2, replace=False))
        h_better, h_worse = corrupt(int(k1)), corrupt(int(k2))
        if rng.random() < 0.5:
            hyp1, hyp2, y = h_better, h_worse, 1
        else:
            hyp1, hyp2, y = h_worse, h_better, 0
        doc = {
            "id": f"s{i}",
            "split": splits[i % len(splits)],
            "reference": ref,
            "hyp1": hyp1,
            "hyp2": hyp2,
            "y": y,
        }
        if with_external:
            doc["external_scores_1"] = {"METEOR": float(rng.random())}
            doc["external_scores_2"] = {"METEOR": float(rng.random())}
        lines.append(json.dumps(doc))
    return lines


def toy_embedding_lines(vocab_size: int = VOCAB_SIZE, dim: int = 5, seed: int = 0) -> list[str]:
    rng = np.random.default_rng(seed)
    return [
        "w%d %s" % (i, " ".join(repr(float(v)) for v in rng.normal(size=dim)))
        for i in range(vocab_size)
    ]
