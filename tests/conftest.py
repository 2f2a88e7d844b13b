"""Fixtures shared by the test modules."""

from __future__ import annotations

import platform

import numpy as np
import pytest
from hypothesis import settings

# A deeper property sweep, selected with ``--hypothesis-profile=ci``; runs
# without that option keep hypothesis's default profile.
settings.register_profile("ci", max_examples=2000)

# The numpy version and architecture under which the whole-file digests of
# `test_sampler.py` and `test_cli.py` were recorded.
DIGEST_NUMPY = "2.4.6"


@pytest.fixture
def recorded_build():
    """Skip a digest pin on a numpy build or architecture it was not recorded under."""
    if np.__version__ != DIGEST_NUMPY:
        pytest.skip(f"digests recorded under numpy {DIGEST_NUMPY}, not {np.__version__}")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"digests recorded on x86-64, not {platform.machine()}")
