import os
from pathlib import Path

import numpy as np
import pytest

import sparselms


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
