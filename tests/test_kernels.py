"""Checks of the objective evaluated over an array of x, the numeric kernel
that the grid search oracle runs on."""

import numpy as np

from ghzdistill.solver import _objective
from helpers import make_decomposition


def test_objective_nonnegative_everywhere():
    rng = np.random.default_rng(4)
    xs = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 2001))
    for _ in range(50):
        d = make_decomposition(rng)
        assert np.all(_objective(d, xs) >= 0.0)
