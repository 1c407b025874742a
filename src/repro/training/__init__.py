"""Personalized training: event-driven engine + cohort experiment loop."""

from .callbacks import (Callback, CallbackSpec, DivergenceGuard,
                        EarlyStopping, EpochTimer, GradClipCallback,
                        LRSchedulerCallback, SanitizerCallback,
                        TrainingContext, build_callbacks)
from .faults import (CellFailure, CohortExecutionError, FaultInjector,
                     InjectedFault, TrainingDivergedError, inject_faults,
                     is_divergent, reseed_cell)
from .history import EpochRecord, TrainingHistory
from .parallel import (CohortCell, CohortCheckpoint, ExecutionPolicy,
                       FaultPolicy, GraphCache, ParallelConfig, execute_cell,
                       run_attempt, run_cells)
from .personalized import (IndividualResult, aggregate_repeats,
                           cell_config_digest, enumerate_cells,
                           resolve_trainer_config, run_cohort,
                           run_individual)
from .seeding import derive_seed
from .stacked import run_stacked, stackable_reason
from .trainer import Trainer, TrainerConfig

__all__ = ["TrainingHistory", "EpochRecord", "IndividualResult",
           "run_cohort", "run_individual", "enumerate_cells",
           "aggregate_repeats", "resolve_trainer_config",
           "cell_config_digest", "derive_seed",
           "Trainer", "TrainerConfig",
           "CohortCell", "CohortCheckpoint", "GraphCache", "ParallelConfig",
           "FaultPolicy", "ExecutionPolicy",
           "execute_cell", "run_attempt", "run_cells", "CellFailure",
           "CohortExecutionError", "FaultInjector", "InjectedFault",
           "TrainingDivergedError", "inject_faults", "is_divergent",
           "reseed_cell", "run_stacked", "stackable_reason",
           "Callback", "CallbackSpec",
           "TrainingContext", "build_callbacks", "EarlyStopping",
           "LRSchedulerCallback", "GradClipCallback", "DivergenceGuard",
           "EpochTimer", "SanitizerCallback"]
