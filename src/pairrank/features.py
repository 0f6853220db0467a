"""Decomposed BLEU statistics and pairwise feature assembly.

A (hypothesis, reference) pair yields 16 fixed-order lexical features:
clipped n-gram precisions, matches and totals for n=1..4, both lengths,
their ratio, and the brevity penalty. Externally computed metric scores
are appended in sorted-name order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .embeddings import encode_tokens, gather_tokens

MAX_ORDER = 4

# The int64 bound under which n-gram codes and their (sentence, code) keys are
# kept exact; clipped_matches renumbers them densely before they reach it.
CODE_LIMIT = 2**62


class NonFiniteFeature(ValueError):
    pass


@dataclass(frozen=True)
class NGramStats:
    order: int
    matches: int
    total: int

    def __post_init__(self):
        assert 1 <= self.order <= MAX_ORDER
        assert 0 <= self.matches <= self.total or self.total == 0 and self.matches == 0


@dataclass(frozen=True)
class BleuComponents:
    precisions: tuple[float, float, float, float]
    matches: tuple[int, int, int, int]
    totals: tuple[int, int, int, int]
    hyp_len: int
    ref_len: int
    length_ratio: float
    brevity_penalty: float

    def flatten(self) -> np.ndarray:
        """The 16 scalar features in declared order."""
        return np.array(
            list(self.precisions)
            + list(self.matches)
            + list(self.totals)
            + [self.hyp_len, self.ref_len, self.length_ratio, self.brevity_penalty],
            dtype=float,
        )


BLEUCOMP_FEATURE_NAMES: tuple[str, ...] = tuple(
    [f"precision_{n}" for n in range(1, 5)]
    + [f"matches_{n}" for n in range(1, 5)]
    + [f"total_{n}" for n in range(1, 5)]
    + ["hyp_len", "ref_len", "length_ratio", "brevity_penalty"]
)


@dataclass
class PairwiseFeatures:
    values: np.ndarray
    names: list[str]
    source_tags: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        assert len(self.values) == len(self.names)
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteFeature("feature vector contains non-finite values")


def clipped_matches(token_ids: np.ndarray, offsets: np.ndarray, hyps, refs, max_order: int = MAX_ORDER) -> np.ndarray:
    """The clipped n-gram matches of each (hyps[i], refs[i]) pair of sentences of a
    store (see ``gather_tokens``), as an (N, max_order) int32 array for n = 1..max_order.

    Each k-gram's code is exact: the (k-1)-gram code before it times the
    number of token ids, plus its last token id, so no two distinct grams
    share a code. Once a (sentence, code) key or the next order's codes
    could reach ``CODE_LIMIT``, the order's codes are renumbered densely
    with ``np.unique``, which keeps them distinct and small. Grams are
    counted per hypothesis, and once per distinct reference; clipped
    matches come from a sorted lookup of each hypothesis gram in its
    reference's counts.
    """
    hyps, refs = np.asarray(hyps, dtype=np.int64), np.asarray(refs, dtype=np.int64)
    n = len(hyps)
    if len(refs) != n:
        raise ValueError(f"{n} hypotheses but {len(refs)} references")
    distinct, ref_of = np.unique(refs, return_inverse=True)
    ids, lens = gather_tokens(token_ids, offsets, np.concatenate((hyps, distinct)))
    ids = ids.astype(np.int64)
    n_ids = int(ids.max(initial=-1)) + 1
    starts = np.cumsum(lens) - lens
    sentence = np.repeat(np.arange(len(lens)), lens)
    # Tokens from each position to the end of its sentence, itself included.
    room = lens[sentence] - (np.arange(len(ids)) - starts[sentence])
    ref_sentence = n + ref_of
    matches = np.zeros((n, max_order), dtype=np.int32)
    code, n_codes = ids, n_ids
    for k in range(1, max_order + 1):
        if k > 1:
            code = code[: len(ids) - k + 1] * n_ids + ids[k - 1 :]
            n_codes *= n_ids
        # The keys below reach n_codes * len(lens), and the next order's codes n_codes * n_ids.
        if n_codes * max(len(lens), n_ids if k < max_order else 1) >= CODE_LIMIT:
            grams, code = np.unique(code, return_inverse=True)
            n_codes = len(grams)
        ok = room[: len(code)] >= k
        # One key per (sentence, gram); hypotheses sort before references.
        keys, counts = np.unique(sentence[: len(code)][ok] * n_codes + code[ok], return_counts=True)
        split = np.searchsorted(keys, n * n_codes)
        hyp_keys, hyp_counts = keys[:split], counts[:split]
        row, gram = np.divmod(hyp_keys, n_codes)
        # A sentinel past every key keeps the lookup in bounds.
        ref_keys = np.append(keys[split:], np.iinfo(np.int64).max)
        ref_counts = np.append(counts[split:], 0)
        want = ref_sentence[row] * n_codes + gram
        at = np.searchsorted(ref_keys, want)
        in_ref = np.where(ref_keys[at] == want, ref_counts[at], 0)
        matches[:, k - 1] = np.bincount(row, weights=np.minimum(hyp_counts, in_ref), minlength=n)
    return matches


def bleu_columns(matches: np.ndarray, hyp_len: np.ndarray, ref_len: np.ndarray) -> np.ndarray:
    """The 16 decomposed-BLEU features of N (hypothesis, reference) pairs, as an
    (N, 16) array, from their (N, 4) clipped matches (see ``clipped_matches``) and
    both lengths; bit for bit, each row is ``bleu_components`` of the two
    sentences' tokens, flattened.
    """
    totals = np.maximum(hyp_len[:, None] - np.arange(MAX_ORDER), 0)
    out = np.zeros((len(matches), 16))
    np.divide(matches, totals, out=out[:, 0:4], where=totals > 0)
    out[:, 4:8] = matches
    out[:, 8:12] = totals
    out[:, 12] = hyp_len
    out[:, 13] = ref_len
    np.divide(hyp_len, ref_len, out=out[:, 14], where=ref_len > 0)
    out[:, 15] = hyp_len >= ref_len
    out[hyp_len == 0, 15] = 0.0
    # math.exp, not np.exp, so the penalty matches brevity_penalty to the last bit.
    for i in np.flatnonzero((hyp_len > 0) & (hyp_len < ref_len)).tolist():
        out[i, 15] = brevity_penalty(int(hyp_len[i]), int(ref_len[i]))
    return out


def ngram_stats(hyp: Sequence[str], ref: Sequence[str], order: int) -> NGramStats:
    """Clipped n-gram match count and hypothesis n-gram total."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    matches = clipped_matches(*encode_tokens([hyp, ref]), [0], [1], order)
    return NGramStats(order=order, matches=int(matches[0, -1]), total=max(len(hyp) - order + 1, 0))


def brevity_penalty(hyp_len: int, ref_len: int) -> float:
    """BLEU's brevity penalty; 0 for an empty hypothesis by convention."""
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def bleu_components(hyp: Sequence[str], ref: Sequence[str]) -> BleuComponents:
    stats = [ngram_stats(hyp, ref, n) for n in range(1, MAX_ORDER + 1)]
    hyp_len, ref_len = len(hyp), len(ref)
    return BleuComponents(
        precisions=tuple(s.matches / s.total if s.total > 0 else 0.0 for s in stats),
        matches=tuple(s.matches for s in stats),
        totals=tuple(s.total for s in stats),
        hyp_len=hyp_len,
        ref_len=ref_len,
        length_ratio=hyp_len / ref_len if ref_len > 0 else 0.0,
        brevity_penalty=brevity_penalty(hyp_len, ref_len),
    )


def assemble_pairwise(
    comps: BleuComponents,
    external_scores: Optional[Mapping[str, float]] = None,
) -> PairwiseFeatures:
    """Concatenate BLEU components and external scores.

    Ordering is deterministic: the 16 BLEU components in declared order,
    then external scores sorted by name.
    """
    values = list(comps.flatten())
    names = list(BLEUCOMP_FEATURE_NAMES)
    tags = ["bleucomp"] * len(names)
    for name in sorted(external_scores or {}):
        v = float(external_scores[name])
        if not math.isfinite(v):
            raise NonFiniteFeature(f"non-finite value for feature {name!r}: {v}")
        values.append(v)
        names.append(name)
        tags.append("external")
    return PairwiseFeatures(values=np.array(values), names=names, source_tags=tags)
