import os
from pathlib import Path

import numpy as np
import pytest

import sparselms
from sparselms import ExperimentConfig, run_experiment, steady_state


@pytest.fixture
def fd_gradient():
    """Central finite-difference gradient of a scalar function of a vector."""

    def _fd(f, w, h=1e-6):
        w = np.asarray(w, dtype=float)
        g = np.empty_like(w)
        for i in range(w.size):
            wp = w.copy()
            wm = w.copy()
            wp[i] += h
            wm[i] -= h
            g[i] = (f(wp) - f(wm)) / (2.0 * h)
        return g

    return _fd


@pytest.fixture
def package_env():
    """Environment for a child Python that imports the sparselms under test."""
    src = str(Path(sparselms.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


@pytest.fixture(scope="session")
def study():
    """The default study's steady-state summaries by cell, and its curves.

    The full protocol (16 cells x 200 runs x 8000 iterations) runs once per
    session; every test that reads it shares the one result.
    """
    config = ExperimentConfig()
    curves = run_experiment(config)
    summaries = {
        (c.variant, c.sparsity_level): steady_state(c, config.steady_state_window)
        for c in curves
    }
    return summaries, curves
