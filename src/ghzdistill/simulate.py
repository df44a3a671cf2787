"""Monte Carlo simulation of the one-successful-branch protocol.

The parties measure in the order A, B, C; a trial succeeds only when all
three success outcomes occur, and any failure outcome ends the trial (the
failure branches carry no tripartite entanglement, so nothing further can
be distilled from them).

Randomness contract: a run draws one uniform block of shape (trials, 3)
from a seeded PCG64 generator, and trial i consumes only row i.  Outcomes
are therefore indexed by trial number and independent of evaluation order,
so sharded executions merged by trial index are bit-identical to the
sequential one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .solver import PovmTriple
from .tensor import (
    State3Q, _ops_for, apply_local, check_int, fidelity_with, ghz_state, normalize,
)
from .tolerances import FIDELITY_OVERSHOOT, UNDERFLOW


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    successes: int
    mean_success_fidelity: float
    seed: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    def __post_init__(self):
        if self.trials < 1:
            raise InvariantViolationError("a report needs at least one trial")
        if not 0 <= self.successes <= self.trials:
            raise InvariantViolationError("successes out of range")
        if not 0.0 <= self.mean_success_fidelity <= 1.0 + FIDELITY_OVERSHOOT:
            raise InvariantViolationError("mean fidelity outside [0, 1]")


def _effective_threshold(p0: float) -> float:
    """Sampling threshold for outcome 0 with the underflow rule applied.

    An outcome drawn with probability below UNDERFLOW is replaced by the
    other one, so the threshold collapses to 0 or 1 in the degenerate cases.
    """
    if p0 < UNDERFLOW:
        return 0.0
    if 1.0 - p0 < UNDERFLOW:
        return 1.0
    return p0


def trial_uniforms(seed: int, trials: int) -> np.ndarray:
    """The (trials, 3) uniform block a run with this seed consumes."""
    return np.random.default_rng(seed).random((trials, 3))


def run_protocol(state: State3Q, povms: PovmTriple, trials: int, seed: int) -> SimulationReport:
    """Simulate the full protocol for a number of independent trials.

    Every trial starts from the same state, so the three conditional
    success probabilities and post-measurement states are computed once and
    the per-trial sampling reduces to threshold comparisons on the uniform
    block; this is exactly equivalent to running the one-party sampler
    ``sample_branch`` of ``tests/oracles.py`` three times per trial on rows
    of trial_uniforms (asserted in the test-suite).  ``PovmTriple`` has
    already checked that each pair is complete.
    """
    check_int("trials", trials, 1)
    check_int("seed", seed, 0)

    thresholds = np.zeros(3)
    current = state
    for i, op in enumerate((povms.success_a, povms.success_b, povms.success_c)):
        raw, p = apply_local(current, *_ops_for("ABC"[i], op))
        thresholds[i] = _effective_threshold(p)
        if thresholds[i] <= 0.0:
            # no uniform falls below a zero threshold, so no trial succeeds
            break
        current = normalize(raw)

    u = trial_uniforms(seed, trials)
    # column by column: much cheaper than np.all(..., axis=1)
    success_mask = ((u[:, 0] < thresholds[0]) & (u[:, 1] < thresholds[1])
                    & (u[:, 2] < thresholds[2]))
    successes = int(np.count_nonzero(success_mask))
    fid = fidelity_with(current, ghz_state()) if successes > 0 else 0.0
    return SimulationReport(
        trials=trials,
        successes=successes,
        mean_success_fidelity=float(fid),
        seed=seed,
    )
