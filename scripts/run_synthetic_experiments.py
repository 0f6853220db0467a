#!/usr/bin/env python3
"""Synthetic replications of the two direction-of-effect experiments.

``architecture`` plants an interaction rule (which hypothesis vector has
the larger inner product with the reference) and compares the multi-layer
network against the single-layer one. ``cost`` plants a noisy linear rule
and compares the logistic cost, the ranking cost without its anti-tie
term, and the pretrain-then-finetune schedule.
"""

import argparse

import numpy as np

from pairrank.evaluation import evaluate
from pairrank.model import ModelConfig, init_model
from pairrank.synthetic import interaction_rule_dataset, linear_rule_dataset
from pairrank.training import CostConfig, TrainConfig, train


def architecture_experiment(seeds: int) -> None:
    taus = {"multi-layer": [], "single-layer": []}
    for seed in range(seeds):
        tr = interaction_rule_dataset(1500, sentence_dim=3, seed=100 + seed)
        va = interaction_rule_dataset(500, sentence_dim=3, seed=900 + seed)
        for arch in taus:
            model = init_model(ModelConfig(3, 0, 16, arch, seed=seed))
            tcfg = TrainConfig(learning_rate=0.05, epochs=40, batch_size=32, shuffle_seed=seed)
            trained, _ = train(model, tr, va, tcfg, CostConfig(kind="logistic"))
            taus[arch].append(evaluate(trained, va).tau)
    print(f"{'arch':>14} {'mean tau':>9}  per-seed")
    for arch, vals in taus.items():
        print(f"{arch:>14} {np.mean(vals):9.3f}  {[round(v, 3) for v in vals]}")


def cost_experiment(seeds: int) -> None:
    configs = {
        "logistic": CostConfig(kind="logistic"),
        "kendall (no tie term)": CostConfig(kind="kendall", tie_weight=0.0),
        "kendall": CostConfig(kind="kendall"),
        "log-then-kendall": CostConfig(kind="logistic-then-kendall"),
    }
    print(f"{'cost':>22} {'mean tau':>9} {'mean ties':>10}")
    for name, ccfg in configs.items():
        taus, ties = [], []
        for seed in range(seeds):
            tr = linear_rule_dataset(1500, 8, seed=200 + seed, noise=0.2, rule_seed=seed)
            va = linear_rule_dataset(500, 8, seed=800 + seed, noise=0.2, rule_seed=seed)
            model = init_model(ModelConfig(0, 8, architecture="single-layer", seed=seed))
            tcfg = TrainConfig(learning_rate=0.01, epochs=40, batch_size=32, shuffle_seed=seed)
            trained, _ = train(model, tr, va, tcfg, ccfg)
            report = evaluate(trained, va, tie_epsilon=0.05)
            taus.append(report.tau)
            ties.append(report.counts.ties)
        print(f"{name:>22} {np.mean(taus):9.3f} {np.mean(ties):10.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment", choices=["architecture", "cost", "all"], nargs="?",
                        default="all")
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    if args.experiment in ("architecture", "all"):
        print("== architecture: interaction rule ==")
        architecture_experiment(args.seeds)
    if args.experiment in ("cost", "all"):
        print("== cost functions: noisy linear rule ==")
        cost_experiment(args.seeds)


if __name__ == "__main__":
    main()
