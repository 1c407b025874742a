"""Experiment configuration and scale profiles.

The paper's full protocol (N=100 individuals, 300 epochs, three sequence
lengths, three density thresholds) is substantial compute for a pure-numpy
substrate on one CPU core, so every experiment runner takes an
:class:`ExperimentConfig` with three standard profiles:

* ``tiny``  — benchmark default: a few individuals, short training; runs
  the complete table/figure pipeline in minutes and preserves the paper's
  qualitative shape (documented in EXPERIMENTS.md).
* ``small`` — a 10-individual study; tighter error bars.
* ``paper`` — the full protocol (N=100, 300 epochs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..data import (EMADataset, PreprocessingPipeline, SynthesisConfig,
                    generate_cohort)
from ..models import ModelConfig
from ..training import CallbackSpec, TrainerConfig

__all__ = ["ExperimentConfig", "PROFILES", "make_dataset"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and protocol knobs shared by Experiments A/B/C."""

    #: Participants generated before compliance filtering (paper: 269).
    raw_individuals: int = 269
    #: Participants kept after filtering (paper: 100).
    max_individuals: int = 100
    #: EMA protocol length (paper: 28 days x 8 beeps).
    num_days: int = 28
    min_compliance: float = 0.5
    #: Training epochs per individual model (paper: 300).
    epochs: int = 300
    seed: int = 42
    #: Input sequence lengths (paper: Seq1 / Seq2 / Seq5).
    seq_lens: tuple[int, ...] = (1, 2, 5)
    #: Graph density thresholds (paper: 20 %, 40 %, 100 %).
    gdts: tuple[float, ...] = (0.2, 0.4, 1.0)
    #: Static graph metrics of Table I.
    graph_methods: tuple[str, ...] = ("euclidean", "dtw", "knn", "correlation")
    #: GNN models of Table I (LSTM is the Experiment-A baseline).
    gnn_models: tuple[str, ...] = ("a3tgcn", "astgcn", "mtgnn")
    #: Random-graph repeats averaged per individual (paper: 5).
    num_random_repeats: int = 5
    knn_k: int = 5
    dtw_window: int = 10
    #: Run models in float32 (2x faster; float64 for exact gradcheck parity).
    float32: bool = True
    #: Early-stopping patience for every per-individual fit, or ``None``
    #: for the paper-faithful fixed-epoch loop (the default).
    early_stop_patience: int | None = None
    #: LR schedule kind ("step" or "plateau"), or ``None`` for the
    #: paper's constant lr=0.01 (the default).
    lr_schedule: str | None = None
    #: Run every fit under :func:`repro.autodiff.detect_anomaly` so the
    #: first non-finite gradient raises naming the op that produced it.
    #: Off by default: anomaly mode records per-node creation traces and
    #: is strictly a debugging aid (CLI ``--sanitize``).
    sanitize: bool = False
    #: Optimizer registry name used by every per-individual fit
    #: (:data:`repro.optim.OPTIMIZER_REGISTRY`; paper: ``"adam"``).
    optimizer: str = "adam"
    #: Attach the op-level profiler (:mod:`repro.profiling`) to every fit;
    #: each :class:`~repro.training.history.TrainingHistory` then carries a
    #: :class:`~repro.profiling.ProfileReport` (CLI ``--profiler``).
    profile: bool = False
    #: Trace-capture JIT (:class:`repro.autodiff.EpochJIT`): record the
    #: first epoch's op tape, verify the second is structurally identical,
    #: replay a fused plan for the rest.  Bit-identical to the eager loop;
    #: graphs that the tracer cannot prove stable fall back to eager
    #: automatically (CLI ``--jit``).
    jit: bool = False
    model: ModelConfig = field(default_factory=ModelConfig)

    def trainer_config(self) -> TrainerConfig:
        """Engine config; optional behaviors become callback specs."""
        callbacks = []
        if self.early_stop_patience is not None:
            callbacks.append(CallbackSpec.make(
                "early-stopping", patience=self.early_stop_patience))
        if self.lr_schedule is not None:
            callbacks.append(CallbackSpec.make(
                "lr-scheduler", kind=self.lr_schedule))
        if self.sanitize:
            callbacks.append(CallbackSpec.make("sanitizer"))
        if self.profile:
            callbacks.append(CallbackSpec.make("profiler"))
        return TrainerConfig(epochs=self.epochs, optimizer=self.optimizer,
                             jit=self.jit, callbacks=tuple(callbacks))

    def graph_kwargs(self, method: str) -> dict:
        if method == "knn":
            return {"k": self.knn_k}
        if method == "dtw":
            return {"window": self.dtw_window}
        return {}

    def apply_dtype(self) -> None:
        """Activate this config's compute dtype for subsequent model builds."""
        from ..autodiff import set_default_dtype

        set_default_dtype(np.float32 if self.float32 else np.float64)


PROFILES: dict[str, ExperimentConfig] = {
    "tiny": ExperimentConfig(raw_individuals=10, max_individuals=3,
                             num_days=18, epochs=30),
    "small": ExperimentConfig(raw_individuals=30, max_individuals=10, epochs=60),
    "paper": ExperimentConfig(),
}


def make_dataset(config: ExperimentConfig) -> EMADataset:
    """Generate the synthetic cohort and run the paper's preprocessing."""
    raw = generate_cohort(SynthesisConfig(num_individuals=config.raw_individuals,
                                          num_days=config.num_days,
                                          seed=config.seed))
    pipeline = PreprocessingPipeline(min_compliance=config.min_compliance,
                                     max_individuals=config.max_individuals)
    clean, _ = pipeline.run(raw)
    return clean
