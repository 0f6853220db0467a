"""Pairwise neural ranking of machine-translation hypotheses."""

from .embeddings import EmbeddingTable, load_embedding_table
from .model import (
    Batch,
    Model,
    ModelConfig,
    forward_batch,
    init_model,
    load_model,
    pack,
    save_model,
)
from .evaluation import EvalReport, PairCounts, evaluate, kendall_tau, predict_delta, verdicts
from .training import (
    CostConfig,
    TrainConfig,
    TrainReport,
    grad_check,
    kendall_cost,
    logistic_cost,
    train,
)
from .data_ingest import Dataset, EvaluationTuple, load_dataset, vectorize

__version__ = "0.1.0"
