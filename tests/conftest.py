"""Suite-wide fixtures.

Experiment runners legitimately switch the engine's default dtype to
float32 (``ExperimentConfig.apply_dtype``); gradient-check tests need
float64.  Class-scoped experiment fixtures run *before* function-scoped
autouse fixtures, so snapshotting "the previous dtype" per test would
capture the polluted value — instead, snapshot once at session start and
restore that after every test.
"""

import pytest

import repro.autodiff as ad


@pytest.fixture(scope="session")
def _session_default_dtype():
    return ad.get_default_dtype()


@pytest.fixture(autouse=True)
def _restore_default_dtype(_session_default_dtype):
    yield
    ad.set_default_dtype(_session_default_dtype)

