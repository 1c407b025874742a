"""``generate_cohort`` is pinned bitwise to its reference loops.

The generator applies event shocks with one fancy-index ``+=`` per decay
step and draws every VAR innovation in one call.  The reference below is
the event-by-event loop and the per-step draw it replaced, plugged into the
same module; every byte of every generated individual must agree.
"""

import itertools

import numpy as np
import pytest

from repro.data import SynthesisConfig, generate_cohort, synthesis


def reference_event_shocks(num_steps, num_active, config, lags, loadings, rng):
    shocks = np.zeros((num_steps + 4, num_active))
    decay = np.array([1.0, 0.6, 0.3])
    for community in synthesis._COMMUNITY_SLICES:
        events = rng.random(num_steps) < config.event_rate
        times = np.nonzero(events)[0]
        amplitudes = rng.normal(0.0, config.event_scale, size=times.size)
        members = np.arange(community.start, community.stop)
        for t, amp in zip(times, amplitudes):
            for v in members:
                start = t + int(lags[v])
                for d, dec in enumerate(decay):
                    if start + d < shocks.shape[0]:
                        shocks[start + d, v] += amp * loadings[v] * dec
    return shocks[:num_steps]


def reference_simulate_var(coefficients, shocks, noise_scale, rng):
    steps, num_active = shocks.shape
    latent = np.zeros((steps, num_active))
    state = rng.standard_normal(num_active)
    for t in range(steps):
        state = (coefficients @ state + shocks[t]
                 + noise_scale * rng.standard_normal(num_active))
        latent[t] = state
    return latent


def _cases():
    # Every level of every factor appears; seeds, beeps, burn-in and the
    # low-compliance fraction cycle through the days x event-rate grid.
    seeds = itertools.cycle([0, 7, 42])
    beeps = itertools.cycle([1, 8])
    burn_ins = itertools.cycle([0, 30, 30, 0])
    low = itertools.cycle([0.0, 1.0, 1.0])
    for num_days, event_rate in itertools.product([1, 3, 24, 28],
                                                  [0.0, 0.1, 1.0]):
        yield SynthesisConfig(num_individuals=3, num_days=num_days,
                              beeps_per_day=next(beeps),
                              event_rate=event_rate, burn_in=next(burn_ins),
                              low_compliance_fraction=next(low),
                              seed=next(seeds))


def _generate_recording(config, monkeypatch, event_shocks, simulate_var):
    """``generate_cohort`` with the given helpers, plus every array they
    returned: Likert rounding would hide a one-ulp drift in the latents."""
    arrays = []

    def recording(helper):
        def wrapper(*args):
            out = helper(*args)
            arrays.append(out)
            return out
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(synthesis, "_event_shocks", recording(event_shocks))
        patch.setattr(synthesis, "_simulate_var", recording(simulate_var))
        return generate_cohort(config), arrays


@pytest.mark.parametrize("config", list(_cases()),
                         ids=lambda c: (f"s{c.seed}-d{c.num_days}"
                                        f"-b{c.beeps_per_day}-e{c.event_rate}"
                                        f"-burn{c.burn_in}"
                                        f"-low{c.low_compliance_fraction}"))
def test_cohort_matches_reference_loops_bitwise(config, monkeypatch):
    cohort, arrays = _generate_recording(
        config, monkeypatch, synthesis._event_shocks, synthesis._simulate_var)
    reference, want_arrays = _generate_recording(
        config, monkeypatch, reference_event_shocks, reference_simulate_var)

    assert len(arrays) == len(want_arrays) == 2 * config.num_individuals
    for got, want in zip(arrays, want_arrays):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert ([ind.identifier for ind in cohort]
            == [ind.identifier for ind in reference])
    for got, want in zip(cohort, reference):
        assert got.values.dtype == want.values.dtype
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert got.compliance == want.compliance
        assert (got.ground_truth_graph.tobytes()
                == want.ground_truth_graph.tobytes())


def test_grid_covers_every_level():
    cases = list(_cases())
    assert len({c.seed for c in cases}) >= 3
    assert {c.num_days for c in cases} == {1, 3, 24, 28}
    assert {c.beeps_per_day for c in cases} == {1, 8}
    assert {c.event_rate for c in cases} == {0.0, 0.1, 1.0}
    assert {c.burn_in for c in cases} == {0, 30}
    assert {c.low_compliance_fraction for c in cases} == {0.0, 1.0}
