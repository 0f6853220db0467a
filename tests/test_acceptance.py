"""End-to-end acceptance checks: oracle equivalence, invariants, and
direction-of-effect replication on synthetic data. Each test prints one
PASS line (visible with ``pytest -s``) once its assertions hold."""

import dataclasses
import math
import time

import numpy as np

from pairrank.cli import run
from pairrank.evaluation import _count, evaluate, kendall_tau
from pairrank.features import bleu_components
from pairrank.model import ModelConfig, init_model
from pairrank.synthetic import (
    interaction_rule_dataset,
    linear_rule_dataset,
    token_dataset_lines,
    toy_embedding_lines,
)
from pairrank.training import CostConfig, TrainConfig, grad_check, kendall_cost, train


def _report(n, detail):
    print(f"ACCEPTANCE {n}: PASS ({detail})")


def mixed_examples(n, seed):
    sent, _ = interaction_rule_dataset(n, sentence_dim=3, seed=seed)
    pair, y = linear_rule_dataset(n, pairwise_dim=2, seed=seed + 1)
    return dataclasses.replace(sent, F1=pair.F1, F2=pair.F2), y


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for arch in ("multi-layer", "single-layer"):
        for kind in ("logistic", "kendall", "logistic-then-kendall"):
            for seed in range(10):
                model = init_model(ModelConfig(3, 2, 2, arch, seed=seed))
                err = grad_check(model, *mixed_examples(4, seed), CostConfig(kind=kind), step=1e-6)
                worst = max(worst, err)
                assert err <= 1e-5, f"{arch}/{kind} seed {seed}: {err}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, f"max rel err {worst:.2e} over 60 combinations in {elapsed:.1f}s")


def brute_bleu_fields(hyp, ref):
    """Independent 16-field counter: list scans, no Counter, no reuse."""
    precisions, matches, totals = [], [], []
    for order in (1, 2, 3, 4):
        hyp_grams = [tuple(hyp[i : i + order]) for i in range(len(hyp) - order + 1)]
        ref_grams = [tuple(ref[i : i + order]) for i in range(len(ref) - order + 1)]
        m = 0
        done = set()
        for g in hyp_grams:
            if g in done:
                continue
            done.add(g)
            m += min(hyp_grams.count(g), ref_grams.count(g))
        t = len(hyp_grams)
        matches.append(m)
        totals.append(t)
        precisions.append(m / t if t > 0 else 0.0)
    hl, rl = len(hyp), len(ref)
    ratio = hl / rl if rl > 0 else 0.0
    if hl == 0:
        bp = 0.0
    elif hl >= rl:
        bp = 1.0
    else:
        bp = math.exp(1.0 - rl / hl)
    return precisions, matches, totals, hl, rl, ratio, bp


def test_criterion_2_bleu_component_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    vocab = [f"v{i}" for i in range(20)]
    for _ in range(1000):
        hyp = [vocab[j] for j in rng.integers(0, 20, size=int(rng.integers(0, 16)))]
        ref = [vocab[j] for j in rng.integers(0, 20, size=int(rng.integers(0, 16)))]
        c = bleu_components(hyp, ref)
        p, m, t, hl, rl, ratio, bp = brute_bleu_fields(hyp, ref)
        assert list(c.precisions) == p
        assert list(c.matches) == m
        assert list(c.totals) == t
        assert (c.hyp_len, c.ref_len) == (hl, rl)
        assert c.length_ratio == ratio
        assert c.brevity_penalty == bp
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"1000 random pairs, all 16 fields exact, {elapsed:.1f}s")


def test_criterion_3_tau_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        deltas = rng.normal(scale=0.1, size=n)
        deltas[rng.random(n) < 0.1] = 0.0
        labels = rng.integers(0, 2, size=n)
        eps = float(rng.choice([1e-6, 0.01, 0.05]))
        counts = _count(deltas, labels, eps)
        c = d = t = 0
        for delta, y in zip(deltas, labels):
            if abs(delta) <= eps:
                t += 1
            elif (delta > 0 and y == 1) or (delta < 0 and y == 0):
                c += 1
            else:
                d += 1
        assert (counts.concordant, counts.disconcordant, counts.ties) == (c, d, t)
        assert abs(kendall_tau(counts) - (c - d - t) / (c + d + t)) <= 1e-12
    _report(3, "1000 random prediction sets, counts exact, tau to 1e-12")


def test_criterion_4_architecture_direction_of_effect():
    t0 = time.perf_counter()
    taus = {"multi-layer": [], "single-layer": []}
    for seed in range(5):
        tr = interaction_rule_dataset(1500, sentence_dim=3, seed=100 + seed)
        va = interaction_rule_dataset(500, sentence_dim=3, seed=900 + seed)
        for arch in taus:
            model = init_model(ModelConfig(3, 0, 16, arch, seed=seed))
            tcfg = TrainConfig(learning_rate=0.05, epochs=40, batch_size=32, shuffle_seed=seed)
            trained, _ = train(model, *tr, *va, tcfg, CostConfig(kind="logistic"))
            taus[arch].append(evaluate(trained, *va).tau)
    multi, single = np.mean(taus["multi-layer"]), np.mean(taus["single-layer"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert multi - single >= 0.15, f"multi {multi:.3f} vs single {single:.3f}"
    _report(4, f"tau multi {multi:.3f} vs single {single:.3f} over 5 seeds, {elapsed:.0f}s")


def test_criterion_5_cost_schedule_direction_of_effect():
    eps = 0.05
    configs = {
        "logistic": CostConfig(kind="logistic"),
        "kendall-no-tie-term": CostConfig(kind="kendall", tie_weight=0.0),
        "schedule": CostConfig(kind="logistic-then-kendall", tie_weight=1.0),
    }
    taus = {k: [] for k in configs}
    ties = {k: [] for k in configs}
    for seed in range(5):
        tr = linear_rule_dataset(1500, 8, seed=200 + seed, noise=0.2, rule_seed=seed)
        va = linear_rule_dataset(500, 8, seed=800 + seed, noise=0.2, rule_seed=seed)
        for name, ccfg in configs.items():
            model = init_model(ModelConfig(0, 8, architecture="single-layer", seed=seed))
            tcfg = TrainConfig(learning_rate=0.01, epochs=40, batch_size=32, shuffle_seed=seed)
            trained, _ = train(model, *tr, *va, tcfg, ccfg)
            report = evaluate(trained, *va, tie_epsilon=eps)
            taus[name].append(report.tau)
            ties[name].append(report.counts.ties)
    sched_tau = np.mean(taus["schedule"])
    log_tau = np.mean(taus["logistic"])
    sched_ties = np.mean(ties["schedule"])
    kendall_ties = np.mean(ties["kendall-no-tie-term"])
    assert sched_tau >= log_tau - 0.01, f"schedule {sched_tau:.3f} vs logistic {log_tau:.3f}"
    assert sched_ties < kendall_ties, f"ties {sched_ties} vs {kendall_ties}"
    _report(5, f"tau {sched_tau:.3f} >= {log_tau:.3f}-0.01; ties {sched_ties} < {kendall_ties}")


def test_criterion_6_kendall_cost_saturation():
    cfg = CostConfig(kind="kendall", gamma=100.0, tie_weight=0.0)
    cases = [
        (0.1, 1, 0.0),  # concordant: step loss 0
        (-0.1, 1, 1.0),  # disconcordant: step loss 1
        (-0.1, 0, 0.0),
        (0.1, 0, 1.0),
    ]
    worst = 0.0
    for delta, y, step_loss in cases:
        diff = abs(kendall_cost(delta, y, cfg) - step_loss)
        worst = max(worst, diff)
        assert diff < 1e-4
    _report(6, f"max deviation from step loss {worst:.2e} at |delta|=0.1")


def test_criterion_7_separable_sanity():
    tr = linear_rule_dataset(1000, pairwise_dim=8, seed=1, rule_seed=17)
    va = linear_rule_dataset(400, pairwise_dim=8, seed=2, rule_seed=17)
    model = init_model(ModelConfig(0, 8, architecture="single-layer", seed=0))
    tcfg = TrainConfig(learning_rate=0.01, epochs=50, batch_size=32, shuffle_seed=0)
    trained, _ = train(model, *tr, *va, tcfg, CostConfig(kind="logistic"))
    tau = evaluate(trained, *va).tau
    assert tau >= 0.9
    _report(7, f"validation tau {tau:.3f} within 50 epochs")


def test_criterion_8_cli_determinism(tmp_path):
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(token_dataset_lines(80, seed=1, splits=["cz", "de"])) + "\n")
    emb = tmp_path / "emb.txt"
    emb.write_text("\n".join(toy_embedding_lines(30, dim=4, seed=2)) + "\n")
    artifacts = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        model, report = d / "m.json", d / "r.jsonl"
        code = run([
            "train", "--data", str(data), "--embeddings", str(emb),
            "--cost", "logistic-then-kendall", "--epochs", "4",
            "--seed", "7", "--shuffle-seed", "7",
            "--out", str(model), "--report", str(report),
        ])
        assert code == 0
        artifacts.append((model.read_bytes(), report.read_bytes()))
    assert artifacts[0] == artifacts[1]
    _report(8, "two CLI runs, checkpoints and reports bit-identical")
