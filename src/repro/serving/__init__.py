"""Forecast serving: versioned model store + batched inference engine.

Three layers (see DESIGN.md "Forecast serving"):

* :mod:`repro.serving.store` — content-addressed, versioned on-disk
  persistence of fitted per-individual artifacts (weights, graphs,
  provenance, normalization stats).
* :mod:`repro.serving.engine` — micro-batching inference engine that
  serves each flush from its shard's one :func:`repro.nn.stack_lanes`
  model, bit-identical to each individual's solo ``predict``.
* :mod:`repro.serving.service` — JSONL request/response front end used
  by ``ema-gnn serve``.

Most callers should not import this package directly: the stable facade
is :mod:`repro.api` (``fit_cohort`` / ``CohortHandle`` / ``load``).
"""

from .engine import (REQUEST_FAILURE_KINDS, ForecastRequest,
                     ForecastResponse, InferenceEngine, RequestFailure)
from .service import ForecastService, outcome_to_dict
from .store import (MANIFEST_FORMAT, CohortArtifact, CohortShard, ModelStore,
                    StoreError, StoreIntegrityError, StoreVersionError,
                    build_shards)

__all__ = ["ModelStore", "CohortArtifact", "CohortShard", "StoreError",
           "StoreIntegrityError", "StoreVersionError", "MANIFEST_FORMAT",
           "build_shards",
           "InferenceEngine", "ForecastRequest", "ForecastResponse",
           "RequestFailure", "REQUEST_FAILURE_KINDS",
           "ForecastService", "outcome_to_dict"]
