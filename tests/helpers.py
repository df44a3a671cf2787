"""Shared state and decomposition builders for the test-suite."""
import numpy as np

from ghzdistill import EntanglementClass, ProductDecomposition, apply_local, classify, normalize
from ghzdistill.sampling import haar_local_vector, haar_state, vector_with_overlap

SQ2 = 1.0 / np.sqrt(2.0)

# (|000> + 0.6|110> + 0.8|111>)/sqrt(2): weights 1/sqrt(2) each, only the
# third site non-orthogonal (overlap 0.6); optimal probability 0.4
PSI_B_AMPS = np.array([1, 0, 0, 0, 0, 0, 0.6, 0.8]) / np.sqrt(2.0)


def psi_b():
    return normalize(PSI_B_AMPS)


def exact_branch_probability(state, povms):
    """Probability of the all-success branch of a PovmTriple."""
    return apply_local(state, povms.success_a, povms.success_b, povms.success_c)[1]


def random_ghz_state(rng):
    """Haar-random state, resampled in the measure-zero non-GHZ cases."""
    while True:
        st = haar_state(rng)
        if classify(st) is EntanglementClass.GHZ_CLASS:
            return st


def make_decomposition(rng, mu1_sq=None, sa=None, sb=None, sc=None, phi=None, ratio=None):
    """Random decomposition data with any subset of parameters pinned; the
    weights by mu1^2 or, down to any ratio, by ``ratio`` = mu2/mu1."""
    if mu1_sq is None and ratio is None:
        mu1_sq = rng.uniform(0.52, 0.9)
    sa = rng.uniform(0.05, 0.85) if sa is None else sa
    sb = rng.uniform(0.05, 0.85) if sb is None else sb
    sc = rng.uniform(0.05, 0.85) if sc is None else sc
    phi = rng.uniform(0.0, 2.0 * np.pi) if phi is None else phi
    if ratio is None:
        m1, m2 = np.sqrt(mu1_sq), np.sqrt(1.0 - mu1_sq)
    else:
        m1 = 1.0 / np.sqrt(1.0 + ratio * ratio)
        m2 = ratio * m1
    norm = np.sqrt(m1 * m1 + m2 * m2 + 2.0 * m1 * m2 * np.cos(phi) * sa * sb * sc)
    a1 = haar_local_vector(rng)
    b1 = haar_local_vector(rng)
    c1 = haar_local_vector(rng)
    return ProductDecomposition(
        mu1=m1 / norm, mu2=m2 / norm, phi=phi,
        a1=a1, a2=vector_with_overlap(rng, a1, sa),
        b1=b1, b2=vector_with_overlap(rng, b1, sb),
        c1=c1, c2=vector_with_overlap(rng, c1, sc),
        sa=sa, sb=sb, sc=sc,
    )
