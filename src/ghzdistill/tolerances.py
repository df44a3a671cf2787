"""Every tolerance, cut-off and margin of the package, defined once.

The protocol of the paper is exact; these thresholds decide how its
floating-point evaluation is read.  Each entry gives the name, the value,
the modules that import it, and what it decides; the comment at each
definition says why it has its value.  No other module of the package
writes a float literal in (0, 1e-5].

Classification and decomposition

RANK_TOL = 1e-10  (tensor, decomposition, monotone, cli)
    an eigenvalue above RANK_TOL x the largest adds to a local rank; the
    default of every public ``tol`` and of the CLI's ``--tol``
COARSE_RANK_FACTOR = 1e3  (decomposition)
COARSE_RANK_FLOOR = 1e-7  (decomposition)
    cut of the rank retry after the quadratic vanished:
    max(tol x COARSE_RANK_FACTOR, COARSE_RANK_FLOOR)
VANISHING_QUADRATIC_RTOL = 1e-13  (decomposition)
    the product-vector quadratic vanishes when its largest coefficient is
    at most this times the squared norm of the larger half of the state
DOUBLE_ROOT_TOL = 1e-8  (decomposition)
    W class when the squared chordal distance of the roots is below it
PRODUCT_ANGLE_TOL = 1e-8  (decomposition)
    ill-conditioned when the product vectors are closer in angle
TIE_TOL = 1e-12  (decomposition)
    two term weights within it are tied (broken by the local vectors)
ZERO_OVERLAP = 1e-12  (decomposition, solver)
    a local overlap at or below it is exactly zero
OVERLAP_TOL = 1e-11  (decomposition)
    a stored overlap agrees with the overlap of its vectors
UNIT_VECTOR_TOL = 1e-10  (decomposition)
    a local vector of a decomposition has unit norm
NORM_IDENTITY_TOL = 1e-10  (decomposition)
    mu1^2 + mu2^2 + 2 mu1 mu2 cos(phi) sa sb sc = 1 holds
LSTSQ_RESIDUAL_TOL = 1e-8  (decomposition)
    the state lies in the span of its two product terms
PHASE_COMPONENT_CUT = 1e-6  (decomposition)
    the first vector component above it carries the phase convention

Vectors and states

NORM_ATOL = 1e-12  (tensor)
    a State3Q has norm^2 = 1
ZERO_NORM = 1e-12  (tensor, decomposition)
    a vector has zero norm
PARALLEL_TOL = 1e-10  (decomposition)
    two vectors are parallel when |cos| >= 1 - PARALLEL_TOL
NORM_WARN_TOL = 1e-6  (cli)
    an input file whose norm is off by more draws a warning

Optimal protocol

X_LO = 1e-6  (solver)
X_HI = 1e6  (solver)
    the x range of ``grid_search_probability``
U_TOL = 1e-12  (solver)
    width at which the bisection in u = log x stops
PLATEAU_RTOL = 1e-12  (solver)
    objective values this close, relative, are one maximum
ORTHOGONAL_SITE_TOL = 1e-10  (solver, monotone, cli)
    a site counts as orthogonal for the sa = 0 families: the closed
    forms, the diagonal family and ``audit --diagonal-scan``
SOLUTION_TOL = 1e-8  (solver)
    probabilities and coefficients agree: p against the coefficient
    product and the success branch, the balance, the rank-1 curves
PHASE_TOL = 1e-10  (solver)
    the operator phases cancel the decomposition phase
COMPLETE_TOL = 1e-10  (solver, monotone)
    a POVM pair is complete
FAILURE_RANK_RTOL = 1e-8  (solver)
    a failure operator has rank 1 (second singular value, relative)
ZERO_FAILURE_TOL = 1e-12  (solver)
    |f|^2 at or below it makes the failure operator 0
GHZ_INFIDELITY_TOL = 1e-10  (solver)
    the success branch is the GHZ state

Simulation, audits and LU fidelity

UNDERFLOW = 1e-14  (simulate)
    a sampled outcome less likely than this never occurs
RATE_TOL = 1e-15  (simulate)
    a report's success rate matches its counts
FIDELITY_OVERSHOOT = 1e-12  (simulate)
    a mean fidelity may exceed 1 by this much
NEGLIGIBLE_BRANCH = 1e-18  (monotone)
    an audit branch less likely than this is not decomposed
CONTRACTION_TOL = 1e-12  (monotone)
    I - N^dag N may have an eigenvalue down to -CONTRACTION_TOL
BRANCH_SUM_TOL = 1e-10  (monotone)
    the branch probabilities of an audit sum to 1
DIAGONAL_X_SLACK = 1e-12  (monotone)
    x may leave the diagonal family's feasible range by this much
SWEEP_TOL = 1e-15  (fidelity)
    a sweep raising no start's F by more ends the search
MAX_SWEEPS = 1000  (fidelity)
    cap on the number of sweeps
TIE_MARGIN = 1e-12  (fidelity)
    an F gain within it does not displace an earlier start
UNITARY_TOL = 1e-12  (fidelity)
    a LocalUnitaryTriple's matrices are unitary
"""

# eigenvalues of a reduction are squared amplitudes, so the cut drops
# relative amplitudes below ~1e-5, far above the ~1e-16 rounding of a Gram
RANK_TOL = 1e-10
# a vanishing quadratic forces a local rank of 1, so the retry may cut 1000
# times coarser, and always drops relative amplitudes below ~3e-4
COARSE_RANK_FACTOR = 1e3
COARSE_RANK_FLOOR = 1e-7
# the coefficients are 2x2 determinants of amplitudes, rounded at ~1e-16
# of the scale; 1000 times that is still rounding
VANISHING_QUADRATIC_RTOL = 1e-13
# the quadratic scale makes the label stable under 1e-13 amplitude noise,
# which splits an exact double root by ~sqrt(noise) in linear distance
DOUBLE_ROOT_TOL = 1e-8
# GHZ-class roots are already 1e-4 apart; product vectors nearer than this
# mean the map from roots to vectors is too ill-conditioned to part them
PRODUCT_ANGLE_TOL = 1e-8
# far above the rounding of the weights lstsq returns
TIE_TOL = 1e-12
# an overlap of unit vectors carries ~1e-16 error; rounding to 0 below this
# keeps an orthogonal site on the exact sa = 0 form
ZERO_OVERLAP = 1e-12
# what build_povms can use: its failure operator is exact for the stored
# overlap, and the completeness check allows COMPLETE_TOL
OVERLAP_TOL = 1e-11
# a normalized 2-vector rounds within ~1e-16; vectors built by hand get room
UNIT_VECTOR_TOL = 1e-10
# as tight as the POVM checks that consume the decomposition
NORM_IDENTITY_TOL = 1e-10
# far above the rounding of the 8x4 fit, far below the order-1 residual of
# a wrong product pair
LSTSQ_RESIDUAL_TOL = 1e-8
# keeps the chosen component's phase well above rounding noise (a unit
# vector cannot have both components below it)
PHASE_COMPONENT_CUT = 1e-6

# a unit vector's norm^2 rounds within ~1e-15 of 1
NORM_ATOL = 1e-12
# a vector this short is rounding noise and has no direction
ZERO_NORM = 1e-12
# |cos| >= 1 - 1e-10 is an angle below ~1.4e-5, where the dual basis
# vectors grow beyond ~7e4
PARALLEL_TOL = 1e-10
# amplitudes typed with six or seven digits stay silent
NORM_WARN_TOL = 1e-6

# x* lies in [1, mu1/mu2]; the grid covers mu2/mu1 down to 1e-6
X_LO = 1e-6
X_HI = 1e6
# pins x* to relative 1e-12, which the closed-form coefficients need to
# meet SOLUTION_TOL
U_TOL = 1e-12
# ties on the sa = sb = sc = 0 plateau resolve to the lowest x
PLATEAU_RTOL = 1e-12
# decompose reports such overlaps as exactly 0; hand-built ones may carry
# more rounding
ORTHOGONAL_SITE_TOL = 1e-10
# the acceptance margin for branch probabilities (absolute, so it certifies
# little once p is far below it)
SOLUTION_TOL = 1e-8
# the phases are assigned exactly (-phi, 0, 0); only the mod 2 pi rounds
PHASE_TOL = 1e-10
# the completion is exact up to rounding amplified by the dual basis
COMPLETE_TOL = 1e-10
# F = f f^dag / |f| is rank 1 by construction; its second singular value
# is rounding
FAILURE_RANK_RTOL = 1e-8
# |f|^2 this small happens only at a zero-overlap site with the trivial
# pair, where f is rounding
ZERO_FAILURE_TOL = 1e-12
# ten times tighter than the acceptance margin on the branch infidelity
GHZ_INFIDELITY_TOL = 1e-10

# no feasible trial count observes it, and its branch would be normalized
# out of noise
UNDERFLOW = 1e-14
# successes / trials is recomputed; the slack absorbs only rounding
RATE_TOL = 1e-15
# |<a|b>|^2 of unit vectors can round above 1
FIDELITY_OVERSHOOT = 1e-12
# its post-measurement state is rounding; it adds at most 1e-18 to a sum
NEGLIGIBLE_BRANCH = 1e-18
# rounding of I - N^dag N for a contraction at its limit
CONTRACTION_TOL = 1e-12
# a pair complete to COMPLETE_TOL sums to 1 within a small multiple of it
BRANCH_SUM_TOL = 1e-10
# the ends of the range, 2 mu1^2 - 1 and 1, round by ~1e-16
DIAGONAL_X_SLACK = 1e-12
# F itself rounds at ~1e-16; smaller gains are noise
SWEEP_TOL = 1e-15
# near W one start can keep gaining more than SWEEP_TOL for thousands of
# sweeps long after the best has settled; the cap bounds that tail
MAX_SWEEPS = 1000
# keeps the earliest start on ties (the identity triple wins when the
# optimum is a manifold through it), so the triple is deterministic
TIE_MARGIN = 1e-12
# su2 of any angles is unitary to ~1e-16
UNITARY_TOL = 1e-12
