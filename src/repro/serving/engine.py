"""Batched forecast inference over loaded cohort shards.

Serving a cohort means answering many small questions — "given this
individual's last ``seq_len`` observations, what comes next?" — against
many small per-individual models.  Running them one by one wastes the
structure the stacked trainer exploits: individuals under the same
(model, seq_len, dtype, config) shard share every shape, so their
forward passes stack into one ``(K, S, L, V)`` tensor driven by one
``(K, V, V)`` propagation operand.

The engine therefore serves with :mod:`repro.training.stacked`'s
mechanism, forward-only:

* requests are micro-batched (a queue with a max batch size and a max
  linger, like any serving stack's batching window), and windows with
  NaN/inf values are refused at submit time,
* a flush groups pending requests by shard — the same grouping key the
  stacked trainer uses for lanes.  Each batchable shard has one
  :func:`repro.nn.stack_lanes` model over all of its individuals, built
  on the shard's first batched flush; a flush runs the
  :class:`~repro.nn.stacked_ops.LaneSelector` rows of its own requests
  (repeats allowed) under ``no_grad`` in eval mode, which makes every
  batched forecast **bitwise identical** to the individual's solo
  ``predict``,
* the first two batched flushes of each (shard, row count) run under a
  forward-only capture (:class:`~repro.autodiff.trace.ForwardJIT`); every
  later flush of that size replays the verified plan, the same kernels
  without the eager forward's per-op Python, and a size whose plan does
  not verify or raises is served by the eager lane forward
  (``stats["replay_fallbacks"]`` counts them by hazard key),
* a forecast with a NaN/inf value (a finite window can overflow) is a
  :class:`RequestFailure` naming the individual and model,
* an individual whose solo model does not build is left out of its
  shard's lane model, so only its own requests go eager (and fail
  there); a shard whose lane model does not build is recorded once and
  serves eagerly,
* models without a lane form (per
  :func:`repro.analysis.fastpath.lane_blocker`) and shards whose stored
  fast-path verdict says no take the eager per-request path, and a
  batched forward that throws falls back to per-request eager execution
  so one poisoned request cannot take down its batch,
* failures are per-request structured records in the
  :class:`~repro.training.faults.CellFailure` vocabulary — a timed-out
  or exploding request yields a :class:`RequestFailure`, never an
  exception that kills unrelated requests.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..analysis.fastpath import lane_blocker
from ..analysis.hazards import match_reason
from ..autodiff import Tensor, get_default_dtype, set_default_dtype
from ..autodiff.trace import ForwardJIT
from ..data.splits import require_finite
from ..nn import stack_lanes
from ..nn.stacked_ops import LaneSelector
from ..training.faults import describe_exception
from .store import CohortArtifact, CohortShard

__all__ = ["ForecastRequest", "ForecastResponse", "RequestFailure",
           "InferenceEngine", "REQUEST_FAILURE_KINDS"]

#: Subset of :data:`repro.training.faults.FAILURE_KINDS` a forecast
#: request can die with (no retries, no pools at serve time).
REQUEST_FAILURE_KINDS = ("exception", "timeout")


@dataclass(slots=True)
class ForecastRequest:
    """One pending forecast: an individual plus an input window."""

    request_id: str
    identifier: str
    model_name: str
    #: ``(seq_len, num_variables)`` input window, already validated and
    #: cast to the shard dtype at submit time.
    window: np.ndarray = field(repr=False)
    #: Absolute ``time.monotonic()`` deadline, or ``None`` for no limit.
    deadline: float | None = None
    #: Monotonic submit timestamp (set by the engine).
    submitted: float = 0.0
    #: Submission sequence number — outcomes are returned in this order.
    seq: int = 0


@dataclass(slots=True)
class ForecastResponse:
    """A served forecast."""

    request_id: str
    identifier: str
    model_name: str
    prediction: np.ndarray = field(repr=False)
    #: True when served by the stacked batched path.
    batched: bool = False
    elapsed: float = 0.0


@dataclass(slots=True)
class RequestFailure:
    """Structured per-request failure (CellFailure vocabulary).

    Occupies the request's slot in the outcome stream, so callers keep
    request/outcome alignment without try/except around every submit.
    """

    request_id: str
    identifier: str
    #: One of :data:`REQUEST_FAILURE_KINDS`.
    kind: str
    error_type: str
    message: str
    elapsed: float = 0.0

    def __str__(self) -> str:
        return (f"request {self.request_id} ({self.identifier}): "
                f"{self.kind} — {self.error_type}: {self.message}")


class InferenceEngine:
    """Micro-batching forecast engine over one or more cohort shards.

    ``submit`` enqueues; a flush happens when the queue reaches
    ``max_batch_size``, when ``poll`` sees the oldest request has
    lingered past ``max_linger`` seconds, or when ``flush`` is called.
    ``forecast`` is the synchronous convenience: one request, processed
    immediately, answer or raise.
    """

    def __init__(self, shards, *, max_batch_size: int = 32,
                 max_linger: float = 0.05, use_stacked: bool = True):
        if isinstance(shards, CohortShard):
            shards = [shards]
        self.shards: "list[CohortShard]" = list(shards)
        if not self.shards:
            raise ValueError("InferenceEngine needs at least one shard")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got "
                             f"{max_batch_size}")
        if not (math.isfinite(max_linger) and max_linger >= 0):
            raise ValueError(f"max_linger must be finite and >= 0, got "
                             f"{max_linger}")
        self.max_batch_size = int(max_batch_size)
        self.max_linger = float(max_linger)
        self.use_stacked = bool(use_stacked)
        # Routing: (identifier, model) -> (shard, artifact), plus the set
        # of models per identifier so model_name=None resolves when
        # unambiguous.
        self._routes: "dict[tuple[str, str], tuple[CohortShard, CohortArtifact]]" = {}
        self._models_of: "dict[str, list[str]]" = {}
        for shard in self.shards:
            for identifier, artifact in shard.artifacts.items():
                key = (identifier, shard.model_name)
                if key in self._routes:
                    raise ValueError(
                        f"duplicate route {key}: two shards serve the same "
                        f"(individual, model) pair")
                self._routes[key] = (shard, artifact)
                self._models_of.setdefault(identifier, []).append(
                    shard.model_name)
        self._pending: "list[ForecastRequest]" = []
        self._solo_cache: "dict[tuple[str, str], object]" = {}
        # id(shard) -> (selector, identifier -> lane row), or None when
        # the shard's lane model did not build.
        self._shard_lanes: "dict[int, tuple[LaneSelector, dict] | None]" = {}
        # (id(shard), rows) -> the forward plan of that flush size.
        self._plans: "dict[tuple[int, int], ForwardJIT]" = {}
        self._seq = itertools.count()
        # ``replayed`` counts batched requests served by a forward plan;
        # ``replay_fallbacks`` counts flush sizes that went eager, per
        # catalogued hazard key.
        self.stats = {"submitted": 0, "served": 0, "batched": 0,
                      "eager": 0, "failed": 0, "flushes": 0,
                      "lane_builds": 0, "plan_builds": 0, "replayed": 0,
                      "replay_fallbacks": {}}

    # ------------------------------------------------------------------
    # Routing + validation
    # ------------------------------------------------------------------
    @property
    def individuals(self) -> "list[str]":
        return sorted(self._models_of)

    def _resolve(self, identifier: str, model_name: str | None):
        models = self._models_of.get(identifier)
        if not models:
            raise KeyError(f"unknown individual {identifier!r}; this engine "
                           f"serves {len(self._models_of)} individuals")
        if model_name is None:
            if len(models) > 1:
                raise KeyError(f"individual {identifier!r} is served by "
                               f"multiple models {sorted(models)}; pass "
                               f"model_name")
            model_name = models[0]
        route = self._routes.get((identifier, model_name))
        if route is None:
            raise KeyError(f"individual {identifier!r} has no "
                           f"{model_name!r} artifact (has: {sorted(models)})")
        return model_name, route

    def _validated_window(self, window, shard: CohortShard,
                          artifact: CohortArtifact) -> np.ndarray:
        if window is None:
            window = artifact.window_tail
            if window is None:
                raise ValueError(
                    f"no window given and artifact {artifact.identifier!r} "
                    f"stores no window_tail")
        window = np.asarray(window, dtype=np.dtype(shard.dtype))
        expected = (shard.seq_len, artifact.num_variables)
        if window.shape != expected:
            raise ValueError(
                f"window for {artifact.identifier!r} has shape "
                f"{window.shape}; the {shard.model_name} shard expects "
                f"{expected} (seq_len, num_variables)")
        # A JSON null arrives as NaN: refuse it rather than serve a NaN
        # forecast (or, for inf, a finite one from saturated gates).
        require_finite(window, f"window for {artifact.identifier!r}",
                       "forecasting")
        return window

    # ------------------------------------------------------------------
    # Queue API
    # ------------------------------------------------------------------
    def submit(self, identifier: str, window=None, *,
               model_name: str | None = None, timeout: float | None = None,
               request_id: str | None = None) -> "list":
        """Enqueue one request; returns outcomes if this triggered a flush.

        Routing/validation problems — an unknown individual, a bad
        window, a ``timeout`` that is not a number of seconds — surface
        immediately as a returned :class:`RequestFailure` (never
        enqueued); otherwise the request
        waits for a full batch, a linger expiry (:meth:`poll`) or an
        explicit :meth:`flush`.
        """
        now = time.monotonic()
        seq = next(self._seq)
        self.stats["submitted"] += 1
        if request_id is None:
            request_id = f"req-{seq}"
        try:
            model_name, (shard, artifact) = self._resolve(identifier,
                                                          model_name)
            window = self._validated_window(window, shard, artifact)
            if timeout is not None:
                timeout = float(timeout)
                if math.isnan(timeout):
                    raise ValueError("timeout is NaN; give seconds, or "
                                     "None for no limit")
        except (KeyError, ValueError, TypeError) as error:
            error_type, message, _ = describe_exception(error)
            self.stats["failed"] += 1
            return [RequestFailure(request_id=request_id,
                                   identifier=identifier, kind="exception",
                                   error_type=error_type, message=message)]
        deadline = None if timeout is None else now + timeout
        self._pending.append(ForecastRequest(
            request_id=request_id, identifier=identifier,
            model_name=model_name, window=window, deadline=deadline,
            submitted=now, seq=seq))
        if len(self._pending) >= self.max_batch_size:
            return self.flush()
        return []

    def poll(self) -> "list":
        """Flush iff the oldest pending request has out-lingered the window."""
        if not self._pending:
            return []
        waited = time.monotonic() - self._pending[0].submitted
        if waited >= self.max_linger:
            return self.flush()
        return []

    def flush(self) -> "list":
        """Process every pending request; outcomes in submission order."""
        batch, self._pending = self._pending, []
        if not batch:
            return []
        self.stats["flushes"] += 1
        outcomes = [outcome for _, outcome in sorted(
            self._process(batch), key=lambda pair: pair[0])]
        for outcome in outcomes:
            if isinstance(outcome, RequestFailure):
                self.stats["failed"] += 1
            else:
                self.stats["served"] += 1
        return outcomes

    def forecast(self, identifier: str, window=None, *,
                 model_name: str | None = None) -> np.ndarray:
        """Synchronous single forecast; raises on failure.

        Bypasses the queue (pending requests are untouched) and serves
        through the eager path — the same solo ``predict`` the batched
        path is bit-identical to.
        """
        model_name, (shard, artifact) = self._resolve(identifier, model_name)
        window = self._validated_window(window, shard, artifact)
        request = ForecastRequest(request_id="sync", identifier=identifier,
                                  model_name=model_name, window=window,
                                  submitted=time.monotonic())
        previous = get_default_dtype()
        try:
            set_default_dtype(shard.dtype)
            outcome = self._run_eager(shard, artifact, request)
        finally:
            set_default_dtype(previous)
        if isinstance(outcome, RequestFailure):
            raise RuntimeError(str(outcome))
        return outcome.prediction

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _process(self, batch: "list[ForecastRequest]") -> "list":
        """``(submission seq, outcome)`` per request."""
        now = time.monotonic()
        outcomes: "list" = []
        groups: "OrderedDict[int, list[ForecastRequest]]" = OrderedDict()
        shard_by_id: "dict[int, CohortShard]" = {}
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                # Past deadline: never run — a response the caller has
                # already given up on is wasted compute for the batch.
                failure = RequestFailure(
                    request_id=request.request_id,
                    identifier=request.identifier, kind="timeout",
                    error_type="DeadlineExceeded",
                    message=(f"deadline passed "
                             f"{now - request.deadline:.3f}s before "
                             f"execution"),
                    elapsed=now - request.submitted)
                outcomes.append((request.seq, failure))
                continue
            shard, _ = self._routes[(request.identifier, request.model_name)]
            groups.setdefault(id(shard), []).append(request)
            shard_by_id[id(shard)] = shard
        for shard_id, requests in groups.items():
            shard = shard_by_id[shard_id]
            previous = get_default_dtype()
            try:
                set_default_dtype(shard.dtype)
                results = self._run_group(shard, requests)
            finally:
                set_default_dtype(previous)
            outcomes += [(request.seq, outcome)
                         for request, outcome in zip(requests, results)]
        return outcomes

    def _stackable(self, shard: CohortShard) -> bool:
        if lane_blocker(shard.model_name) is not None:
            return False
        # Stored static serving verdict gates the batched path.  Manifests
        # written before it existed carry only the training verdict
        # ("stackable"), which then stands in; absent verdicts default to
        # eligible — the fallback still guards execution.
        if shard.verdict is not None and not shard.verdict.get(
                "batchable", shard.verdict.get("stackable", True)):
            return False
        return True

    def _run_group(self, shard: CohortShard,
                   requests: "list[ForecastRequest]") -> "list":
        lanes = None
        if self.use_stacked and len(requests) > 1 and self._stackable(shard):
            lanes = self._lanes(shard)
        # Individuals left out of the lane model serve eagerly.
        batch = [] if lanes is None else [
            request for request in requests if request.identifier in lanes[1]]
        served = {}
        if len(batch) > 1:
            try:
                served = dict(zip(map(id, batch),
                                  self._run_stacked(shard, batch)))
            except Exception:  # noqa: BLE001 - isolate: retry eagerly
                # The batched forward died as a whole; rerun each request
                # alone so one poisoned input cannot sink its batchmates.
                pass
        return [served.get(id(request)) or self._run_eager(
                    shard, shard.artifacts[request.identifier], request)
                for request in requests]

    def _lanes(self, shard: CohortShard):
        """The shard's lane model over every individual whose solo builds.

        Built on first use and kept for the engine's life; ``None`` when
        no lane model builds, which is recorded so later flushes go eager
        without trying again.
        """
        key = id(shard)
        if key in self._shard_lanes:
            return self._shard_lanes[key]
        self.stats["lane_builds"] += 1
        rows, solos = {}, []
        for identifier in shard.artifacts:
            try:
                solo = self._solo_model(shard, identifier)
            except Exception:  # noqa: BLE001 - its requests fail eagerly
                continue
            rows[identifier] = len(solos)
            solos.append(solo)
        lanes = None
        if solos:
            try:
                lanes = (LaneSelector(stack_lanes(solos).eval()), rows)
            except Exception:  # noqa: BLE001 - the shard serves eagerly
                pass
        self._shard_lanes[key] = lanes
        return lanes

    def _solo_model(self, shard: CohortShard, identifier: str):
        key = (shard.version, shard.model_name, shard.dtype, identifier,
               shard.config_digest)
        model = self._solo_cache.get(key)
        if model is None:
            model = shard.materialize(identifier)
            self._solo_cache[key] = model
        return model

    def _run_eager(self, shard: CohortShard, artifact: CohortArtifact,
                   request: ForecastRequest):
        start = time.monotonic()
        try:
            model = self._solo_model(shard, request.identifier)
            prediction = model.predict(request.window[None])[0]
            if not np.isfinite(prediction).all():
                raise _non_finite(request, prediction)
            self.stats["eager"] += 1
            return ForecastResponse(
                request_id=request.request_id, identifier=request.identifier,
                model_name=request.model_name, prediction=prediction,
                batched=False, elapsed=time.monotonic() - start)
        except Exception as error:  # noqa: BLE001 - per-request isolation
            return _failure(request, error, time.monotonic() - start)

    def _run_stacked(self, shard: CohortShard,
                     requests: "list[ForecastRequest]") -> "list":
        start = time.monotonic()
        selector, rows = self._shard_lanes[id(shard)]
        lanes = selector.select([rows[request.identifier]
                                 for request in requests])
        # (K, 1, L, V): each request is one sample in its lane.  The
        # lane model stays in eval mode, so no per-call mode toggle.
        windows = np.stack([request.window[None] for request in requests])
        jit = self._plans.get((id(shard), len(requests)))
        if jit is None:
            jit = self._plans[id(shard), len(requests)] = ForwardJIT()
        was_ready, was_off = jit.ready, jit.off
        data = jit.replay(windows)
        if data is not None:
            self.stats["replayed"] += len(requests)
        else:
            inputs = Tensor(windows)
            with jit.capture(inputs):
                output = lanes(inputs)
            jit.seal(output)
            data = output.data
            self.stats["plan_builds"] += int(jit.ready and not was_ready)
        if jit.off and not was_off:
            key = match_reason(jit.disabled_reason)
            fallbacks = self.stats["replay_fallbacks"]
            fallbacks[key] = fallbacks.get(key, 0) + 1
        elapsed = time.monotonic() - start
        # One check per flush; rows only when it fails.
        finite = np.isfinite(data).reshape(len(requests), -1)
        finite = [True] * len(requests) if finite.all() else finite.all(axis=1)
        outcomes = [ForecastResponse(
            request_id=request.request_id, identifier=request.identifier,
            model_name=request.model_name,
            prediction=np.ascontiguousarray(data[k, 0]), batched=True,
            elapsed=elapsed)
            if finite[k] else _failure(
                request, _non_finite(request, data[k, 0]), elapsed)
            for k, request in enumerate(requests)]
        self.stats["batched"] += sum(map(bool, finite))
        return outcomes


def _non_finite(request: ForecastRequest,
                prediction: np.ndarray) -> FloatingPointError:
    """The error a forecast with NaN or inf values is served as."""
    bad = int(np.size(prediction) - np.isfinite(prediction).sum())
    return FloatingPointError(
        f"the {request.model_name} model forecast {bad} non-finite "
        f"value(s) for {request.identifier!r}")


def _failure(request: ForecastRequest, error: Exception,
             elapsed: float) -> RequestFailure:
    error_type, message, _ = describe_exception(error)
    return RequestFailure(
        request_id=request.request_id, identifier=request.identifier,
        kind="exception", error_type=error_type, message=message,
        elapsed=elapsed)
