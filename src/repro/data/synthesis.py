"""Synthetic EMA cohort generator (substitute for the paper's pilot data).

The paper's dataset — 269 Dutch university students, 8 beeps/day for 28
days, filtered to 100 individuals × 26 shared variables × ~140 time points —
is proprietary.  This module generates a cohort with the same *statistical
anatomy*, which is what Experiments A–C actually exercise:

* **Individual-specific variable graphs.**  Each participant's latent
  dynamics follow a VAR(1) process whose coefficient matrix is an
  individual perturbation of a community-structured template (negative
  affect / positive affect / stress–cognition / context blocks, the factor
  structure consistently reported for EMA items).  Similarity-based graph
  construction can therefore recover genuinely informative, person-specific
  structure — the paper's central premise.
* **Lead–lag responses to events.**  Random "daily events" inject shocks
  that propagate through a community with variable-specific lags and
  decays, giving DTW alignment something real to exploit (paper III-D).
* **Weak predictability.**  Noise dominates signal roughly 4:1, so on
  z-normalized data a perfect model attains MSE well below 1.0 while an
  uninformed one sits at ~1.0 — matching the paper's observed range
  (0.84–1.04).
* **Likert quantization, missed beeps, low-variance items.**  Responses are
  rounded onto the 1–7 scale; compliance varies across participants (some
  below the inclusion cutoff); a handful of rare-symptom items are
  near-constant so the preprocessing pipeline has real work to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .containers import EMADataset, Individual
from .likert import quantize_to_likert

__all__ = ["SynthesisConfig", "generate_cohort", "generate_individual",
           "DEFAULT_VARIABLE_NAMES", "LOW_VARIANCE_NAMES"]

#: 26 active EMA items in 4 communities (the shared subset the paper keeps).
DEFAULT_VARIABLE_NAMES: tuple[str, ...] = (
    # negative affect (8)
    "sad", "anxious", "irritated", "lonely", "guilty", "worried", "down", "ashamed",
    # positive affect (6)
    "cheerful", "relaxed", "energetic", "satisfied", "enthusiastic", "content",
    # stress / cognition (6)
    "stressed", "impulsive", "restless", "craving", "ruminating", "distracted",
    # context / behaviour (6)
    "in_company", "physically_active", "ate_healthy", "slept_well",
    "phone_use", "outdoors",
)

#: Rare-symptom items that end up nearly constant (removed in preprocessing).
LOW_VARIANCE_NAMES: tuple[str, ...] = (
    "panic_attack", "self_harm_urge", "substance_use", "hallucination",
)

#: Community memberships (index ranges into DEFAULT_VARIABLE_NAMES).
_COMMUNITY_SLICES = (slice(0, 8), slice(8, 14), slice(14, 20), slice(20, 26))


@dataclass
class SynthesisConfig:
    """Knobs of the synthetic cohort (defaults mirror the paper's protocol)."""

    num_individuals: int = 269
    num_days: int = 28
    beeps_per_day: int = 8
    #: VAR(1) spectral radius range across individuals (signal strength).
    spectral_radius: tuple[float, float] = (0.6, 0.8)
    #: Innovation noise scale range across variables.
    noise_scale: tuple[float, float] = (0.7, 1.0)
    #: Within-community VAR coupling of the shared template.
    community_coupling: float = 0.35
    #: Magnitude of the individual-specific perturbation of the template.
    individual_variation: float = 0.5
    #: Probability a community experiences an event at a given beep.
    event_rate: float = 0.10
    #: Event shock amplitude (standard deviation).
    event_scale: float = 1.5
    #: Beta distribution of per-individual compliance.
    compliance_alpha: float = 6.0
    compliance_beta: float = 3.0
    #: Fraction of individuals with systematically poor compliance.
    low_compliance_fraction: float = 0.25
    burn_in: int = 30
    seed: int = 0

    variable_names: tuple[str, ...] = field(
        default_factory=lambda: DEFAULT_VARIABLE_NAMES + LOW_VARIANCE_NAMES)

    def __post_init__(self):
        if self.num_individuals < 1:
            raise ValueError("num_individuals must be >= 1")
        if self.num_days < 1 or self.beeps_per_day < 1:
            raise ValueError("num_days and beeps_per_day must be >= 1")
        lo, hi = self.spectral_radius
        if not 0.0 < lo <= hi < 1.0:
            raise ValueError("spectral_radius must satisfy 0 < lo <= hi < 1")
        if not 0.0 <= self.event_rate <= 1.0:
            raise ValueError("event_rate must be in [0, 1]")
        if not 0.0 <= self.low_compliance_fraction <= 1.0:
            raise ValueError("low_compliance_fraction must be in [0, 1]")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in!r}")
        lo, hi = self.noise_scale
        if not 0.0 <= lo <= hi:
            raise ValueError("noise_scale must satisfy 0 <= lo <= hi, "
                             f"got {self.noise_scale!r}")
        if not self.event_scale >= 0.0:
            raise ValueError(f"event_scale must be >= 0, got {self.event_scale!r}")
        for name in ("compliance_alpha", "compliance_beta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if len(self.variable_names) < len(DEFAULT_VARIABLE_NAMES):
            raise ValueError(
                f"variable_names must hold at least "
                f"{len(DEFAULT_VARIABLE_NAMES)} names (the simulated items), "
                f"got {len(self.variable_names)}")

    @property
    def scheduled_beeps(self) -> int:
        return self.num_days * self.beeps_per_day

    @property
    def num_variables(self) -> int:
        return len(self.variable_names)


def _community_template(num_active: int, coupling: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Shared VAR-coefficient template with community block structure.

    The diagonal carries per-item *inertia* (emotions are sticky — the
    dominant temporal signal in EMA); off-diagonal blocks carry
    within-community spillover plus a few cross-community pathways
    (negative affect suppresses positive affect; stress feeds negative
    affect).  Spillover is mostly positive so couplings reinforce rather
    than cancel.
    """
    a = np.diag(rng.uniform(0.45, 0.8, size=num_active))
    for block in _COMMUNITY_SLICES:
        size = block.stop - block.start
        sign = rng.choice([1.0, 1.0, 1.0, 1.0, -1.0], size=(size, size))
        spill = coupling * sign * rng.uniform(0.3, 1.0, size=(size, size))
        np.fill_diagonal(spill, 0.0)
        a[block, block] += spill
    # Cross-community pathways: negative affect suppresses positive.
    na, pa = _COMMUNITY_SLICES[0], _COMMUNITY_SLICES[1]
    a[pa, na.start:na.stop] -= coupling * rng.uniform(0.1, 0.5, size=(6, 8)) * 0.5
    a[na, pa.start:pa.stop] -= coupling * rng.uniform(0.1, 0.5, size=(8, 6)) * 0.5
    # Stress couples into negative affect.
    st = _COMMUNITY_SLICES[2]
    a[na, st.start:st.stop] += coupling * rng.uniform(0.0, 0.4, size=(8, 6)) * 0.5
    return a


def _scale_spectral_radius(matrix: np.ndarray, target: float) -> np.ndarray:
    """Rescale a square matrix so its spectral radius equals ``target``."""
    radius = float(np.abs(np.linalg.eigvals(matrix)).max())
    if radius < 1e-12:
        return matrix
    return matrix * (target / radius)


def _event_shocks(num_steps: int, num_active: int, config: SynthesisConfig,
                  lags: np.ndarray, loadings: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Exogenous event input: per-community shocks with per-variable lag.

    An event at beep ``t`` adds ``(amplitude * loading) * decay[d]`` to
    member ``v`` at beep ``t + lags[v] + d``.  The decay steps are applied
    from the last one down, so every cell receives its shocks in ascending
    event time; within one step no cell is hit twice, so each fancy-index
    ``+=`` is exact and the sums match an event-by-event loop bitwise.
    """
    # Rows past num_steps absorb the tails of late events (lag 2 + decay 2).
    shocks = np.zeros((num_steps + 4, num_active))
    decay = np.array([1.0, 0.6, 0.3])
    for community in _COMMUNITY_SLICES:
        events = rng.random(num_steps) < config.event_rate
        times = np.nonzero(events)[0]
        amplitudes = rng.normal(0.0, config.event_scale, size=times.size)
        members = np.arange(community.start, community.stop)
        rows = times[:, None] + lags[members]                 # (events, members)
        values = amplitudes[:, None] * loadings[members]
        for d in range(decay.size - 1, -1, -1):
            shocks[rows + d, members] += values * decay[d]
    return shocks[:num_steps]


def _simulate_var(coefficients: np.ndarray, shocks: np.ndarray,
                  noise_scale: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Latent VAR(1) path: ``state = coefficients @ state + shock + noise``."""
    steps, num_active = shocks.shape
    latent = np.zeros((steps, num_active))
    state = rng.standard_normal(num_active)
    # One draw of every step's innovations: the same stream, in the same
    # order, as one standard_normal(num_active) call per step.
    noise = noise_scale * rng.standard_normal((steps, num_active))
    for t in range(steps):
        state = coefficients @ state + shocks[t] + noise[t]
        latent[t] = state
    return latent


def generate_individual(identifier: str, config: SynthesisConfig,
                        template: np.ndarray, low_compliance: bool,
                        rng: np.random.Generator) -> Individual:
    """Simulate one participant: latent VAR + events -> Likert -> missingness."""
    num_active = len(DEFAULT_VARIABLE_NAMES)
    num_total = config.num_variables
    # --- individual dynamics -----------------------------------------
    perturbation = config.individual_variation * rng.standard_normal(template.shape)
    mask = rng.random(template.shape) < 0.7  # perturb only a subset of entries
    coefficients = template * (1.0 + perturbation * mask)
    rho = rng.uniform(*config.spectral_radius)
    coefficients = _scale_spectral_radius(coefficients, rho)

    lags = rng.integers(0, 3, size=num_active)
    loadings = rng.uniform(0.3, 1.0, size=num_active) * rng.choice(
        [1.0, -1.0], size=num_active, p=[0.8, 0.2])
    steps = config.burn_in + config.scheduled_beeps
    shocks = _event_shocks(steps, num_active, config, lags, loadings, rng)
    noise_scale = rng.uniform(*config.noise_scale, size=num_active)

    latent = _simulate_var(coefficients, shocks, noise_scale, rng)
    latent = latent[config.burn_in:]
    # Standardize latent scale so Likert anchors are comparable across people.
    latent = (latent - latent.mean(axis=0)) / (latent.std(axis=0) + 1e-9)

    # --- response process --------------------------------------------
    likert_scale = rng.uniform(0.9, 1.5, size=num_active)
    active = quantize_to_likert(latent, center=4.0, scale=likert_scale)
    # Rare-symptom items: mostly "1", occasional blips.
    num_rare = num_total - num_active
    rare = np.ones((config.scheduled_beeps, num_rare))
    blips = rng.random(rare.shape) < 0.01
    rare[blips] = rng.integers(2, 5, size=int(blips.sum()))
    values = np.concatenate([active, rare], axis=1)

    # --- compliance / missingness ------------------------------------
    if low_compliance:
        compliance = rng.beta(1.5, 4.0)
    else:
        compliance = rng.beta(config.compliance_alpha, config.compliance_beta)
    answered = rng.random(config.scheduled_beeps) < compliance
    if answered.sum() < 2:  # pathological non-responders still yield 2 rows
        answered[:2] = True
    observed = values[answered]

    graph = np.abs(coefficients)
    graph = (graph + graph.T) / 2.0
    np.fill_diagonal(graph, 0.0)
    full_graph = np.zeros((num_total, num_total))
    full_graph[:num_active, :num_active] = graph

    return Individual(
        identifier=identifier,
        values=observed,
        variable_names=config.variable_names,
        compliance=float(answered.mean()),
        ground_truth_graph=full_graph,
    )


def generate_cohort(config: SynthesisConfig | None = None) -> EMADataset:
    """Generate the raw (pre-filtering) cohort."""
    config = config if config is not None else SynthesisConfig()
    rng = np.random.default_rng(config.seed)
    template = _community_template(len(DEFAULT_VARIABLE_NAMES),
                                   config.community_coupling, rng)
    n_low = int(round(config.low_compliance_fraction * config.num_individuals))
    low_flags = np.zeros(config.num_individuals, dtype=bool)
    low_flags[:n_low] = True
    rng.shuffle(low_flags)
    individuals = [
        generate_individual(f"p{i:03d}", config, template, bool(low_flags[i]), rng)
        for i in range(config.num_individuals)
    ]
    return EMADataset(individuals)
