"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines with the measured extremes and runtimes.
"""
import json
import time

import numpy as np
import pytest

from ghzdistill import (
    apply_local,
    audit_povm,
    build_povms,
    closed_form_one_site,
    closed_form_two_sites,
    decompose,
    ghz_fidelity,
    ghz_state,
    grid_search_probability,
    normalize,
    optimal_lu_fidelity,
    optimal_probability,
    optimal_probability_value,
    random_povm_pair,
    reconstruct,
    reduced_density,
    run_protocol,
    scan_diagonal_family,
)
from ghzdistill.cli import main
from ghzdistill.fidelity import _fidelity_and_grad, sampled_fidelity_bound
from ghzdistill.sampling import apply_local_unitaries, haar_state, random_local_unitaries
from ghzdistill.simulate import exact_branch_probability
from ghzdistill.tensor import basis_state, fidelity_with
from helpers import make_decomposition, random_ghz_state
from oracles import solve_coefficients
from test_cli import parse_matrix, write_state


def _report(num, name, detail, elapsed):
    print(f"PASS  criterion {num:2d}  {name}: {detail}  [{elapsed:.2f} s]")


def test_criterion_01_ghz_perfection(capsys, tmp_path):
    path = write_state(tmp_path / "ghz.json", ghz_state().amps, "ghz")
    t0 = time.perf_counter()
    rc = main(["distill", path])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    p = doc["result"]["p_opt"]
    assert abs(p - 1.0) <= 1e-9
    dev = 0.0
    for party in "ABC":
        m = parse_matrix(doc["result"]["povms"][party]["success"])
        dev = max(dev, float(np.max(np.abs(m - np.eye(2)))))
    assert dev <= 1e-9
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "GHZ perfection", f"|p-1|={abs(p - 1):.1e}, identity dev={dev:.1e}", elapsed)


def test_criterion_02_one_site_closed_form(capsys):
    rng = np.random.default_rng(20)
    t0 = time.perf_counter()
    worst_formula, worst_eig = 0.0, 0.0
    for _ in range(100):
        d = make_decomposition(rng, sa=0.0, sb=0.0)
        state = reconstruct(d)
        p = optimal_probability_value(decompose(state))
        worst_formula = max(worst_formula, abs(p - closed_form_one_site(d)))
        lam = np.linalg.eigvalsh(reduced_density(state, "C"))[0]
        worst_eig = max(worst_eig, abs(p - 2.0 * lam))
    elapsed = time.perf_counter() - t0
    assert worst_formula <= 1e-7
    assert worst_eig <= 1e-7
    assert elapsed < 10.0
    with capsys.disabled():
        _report(2, "one-site closed form",
                f"max |p-closed|={worst_formula:.1e}, max |p-2*min_eig|={worst_eig:.1e}", elapsed)


def test_criterion_03_two_site_closed_form(capsys):
    rng = np.random.default_rng(21)
    t0 = time.perf_counter()
    worst_p, worst_ratio = 0.0, 0.0
    for _ in range(100):
        d = decompose(reconstruct(make_decomposition(rng, sa=0.0)))
        sol = optimal_probability(d)
        cf = closed_form_two_sites(d)
        worst_p = max(worst_p, abs(sol.p_opt - cf.p))
        worst_ratio = max(worst_ratio,
                          abs((sol.beta1 / sol.beta2) ** 2 - cf.ratio_beta),
                          abs((sol.gamma1 / sol.gamma2) ** 2 - cf.ratio_gamma))
    hand = make_decomposition(rng, mu1_sq=0.5, sa=0.0, sb=0.5, sc=0.5)
    p_hand = optimal_probability_value(hand)
    elapsed = time.perf_counter() - t0
    assert worst_p <= 1e-7
    assert worst_ratio <= 1e-6
    assert abs(p_hand - 0.25) <= 1e-9
    with capsys.disabled():
        _report(3, "two-site closed form",
                f"max |p-closed|={worst_p:.1e}, max ratio dev={worst_ratio:.1e}, "
                f"|p(hand)-0.25|={abs(p_hand - 0.25):.1e}", elapsed)


def test_criterion_04_oracle_equivalence(capsys):
    rng = np.random.default_rng(22)
    t0 = time.perf_counter()
    worst_routes, worst_grid = 0.0, 0.0
    for _ in range(200):
        d = decompose(random_ghz_state(rng))
        p1 = optimal_probability_value(d)
        c = solve_coefficients(d)
        p2 = 2.0 * (c[0] * c[2] * c[4] * d.mu1) ** 2
        pg, _ = grid_search_probability(d, points=100_000)
        worst_routes = max(worst_routes, abs(p1 - p2))
        worst_grid = max(worst_grid, abs(p1 - pg), abs(p2 - pg))
    elapsed = time.perf_counter() - t0
    assert worst_routes <= 1e-6
    assert worst_grid <= 1e-6
    assert elapsed < 120.0
    with capsys.disabled():
        _report(4, "oracle equivalence",
                f"max |1D-2D|={worst_routes:.1e}, max grid dev={worst_grid:.1e}", elapsed)


def test_criterion_05_exact_distillation(capsys):
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    worst_fid, worst_p, worst_rank = 0.0, 0.0, 0.0
    for _ in range(100):
        state = random_ghz_state(rng)
        d = decompose(state)
        sol = optimal_probability(d)
        triple = build_povms(d, sol)
        raw, p = apply_local(state, triple.success_a, triple.success_b, triple.success_c)
        worst_fid = max(worst_fid, 1.0 - fidelity_with(normalize(raw), ghz_state()))
        worst_p = max(worst_p, abs(exact_branch_probability(state, triple) - sol.p_opt))
        for _, fail, _ in triple.pairs():
            sv = np.linalg.svd(fail, compute_uv=False)
            if sv[0] > 0:
                worst_rank = max(worst_rank, sv[1] / sv[0])
    elapsed = time.perf_counter() - t0
    assert worst_fid <= 1e-9
    assert worst_p <= 1e-8
    assert worst_rank <= 1e-8
    with capsys.disabled():
        _report(5, "exact distillation",
                f"max infidelity={worst_fid:.1e}, max |p-p_opt|={worst_p:.1e}, "
                f"max sv ratio={worst_rank:.1e}", elapsed)


def test_criterion_06_monte_carlo(capsys):
    rng = np.random.default_rng(24)
    t0 = time.perf_counter()
    trials, hits = 100_000, 0
    for k in range(20):
        state = random_ghz_state(rng)
        d = decompose(state)
        sol = optimal_probability(d)
        triple = build_povms(d, sol)
        rep = run_protocol(state, triple, trials, seed=500 + k)
        assert rep == run_protocol(state, triple, trials, seed=500 + k)
        sigma = np.sqrt(max(sol.p_opt * (1 - sol.p_opt), 1e-12) / trials)
        if abs(rep.success_rate - sol.p_opt) <= 4 * sigma:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 19
    assert elapsed < 60.0
    with capsys.disabled():
        _report(6, "Monte Carlo", f"{hits}/20 within 4 sigma, reruns bit-identical", elapsed)


def test_criterion_07_monotonicity(capsys):
    rng = np.random.default_rng(25)
    t0 = time.perf_counter()
    min_slack = np.inf
    for k in range(1000):
        state = random_ghz_state(rng)
        p_before = optimal_probability_value(decompose(state))
        party = "ABC"[int(rng.integers(3))]
        rep = audit_povm(state, random_povm_pair(10_000 + k), party, p_before=p_before)
        min_slack = min(min_slack, rep.slack)
    elapsed = time.perf_counter() - t0
    assert min_slack >= -1e-7
    assert elapsed < 300.0
    with capsys.disabled():
        _report(7, "monotonicity", f"min slack over 1000 audits = {min_slack:.3e}", elapsed)


def test_criterion_08_diagonal_saturation(capsys):
    rng = np.random.default_rng(26)
    t0 = time.perf_counter()
    worst_offset = 0.0
    for _ in range(20):
        d = make_decomposition(rng, sa=0.0)
        table = scan_diagonal_family(reconstruct(d), 101)
        step = table[1, 0] - table[0, 0]
        x_min = table[int(np.argmin(table[:, 1])), 0]
        worst_offset = max(worst_offset, abs(x_min - d.mu1 ** 2) / step)
        assert np.min(table[:, 1]) >= -1e-8
    elapsed = time.perf_counter() - t0
    assert worst_offset <= 1.0 + 1e-9
    with capsys.disabled():
        _report(8, "diagonal-family saturation",
                f"worst argmin offset = {worst_offset:.2f} grid steps", elapsed)


def test_criterion_09_fidelity_properties(capsys):
    rng = np.random.default_rng(27)
    t0 = time.perf_counter()
    f_ghz, _ = optimal_lu_fidelity(ghz_state(), restarts=8, seed=0)
    assert abs(f_ghz - 1.0) <= 1e-10

    f_000, _ = optimal_lu_fidelity(basis_state("000"), restarts=32, seed=1)
    oracle = sampled_fidelity_bound(basis_state("000"), 1_000_000, seed=2)
    assert f_000 >= oracle - 1e-12
    assert oracle > 0.45
    assert abs(f_000 - 0.5) <= 1e-6

    worst_inv = 0.0
    for _ in range(3):
        st = haar_state(rng)
        f0, _ = optimal_lu_fidelity(st, restarts=32, seed=3)
        assert f0 >= ghz_fidelity(st) - 1e-12
        st2 = apply_local_unitaries(st, *random_local_unitaries(rng))
        f1, _ = optimal_lu_fidelity(st2, restarts=32, seed=4)
        worst_inv = max(worst_inv, abs(f0 - f1))
    assert worst_inv <= 1e-8

    worst_grad = 0.0
    h = 1e-6
    psi = haar_state(rng).tensor
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi, 9)
        _, grad = _fidelity_and_grad(theta, psi)
        k = int(rng.integers(9))
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fd = (_fidelity_and_grad(tp, psi)[0] - _fidelity_and_grad(tm, psi)[0]) / (2 * h)
        worst_grad = max(worst_grad, abs(fd - grad[k]) / max(abs(grad[k]), 1e-7))
    assert worst_grad <= 1e-5
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(9, "fidelity properties",
                f"|F(GHZ)-1|={abs(f_ghz - 1):.1e}, |F(000)-0.5|={abs(f_000 - 0.5):.1e}, "
                f"oracle={oracle:.4f}, LU dev={worst_inv:.1e}, grad dev={worst_grad:.1e}",
                elapsed)


def test_criterion_10_roundtrip_and_covariance(capsys):
    rng = np.random.default_rng(28)
    t0 = time.perf_counter()
    worst_fid, worst_inv = 0.0, 0.0
    for _ in range(1000):
        state = random_ghz_state(rng)
        d0 = decompose(state)
        worst_fid = max(worst_fid, 1.0 - fidelity_with(reconstruct(d0), state))
        d1 = decompose(apply_local_unitaries(state, *random_local_unitaries(rng)))
        dphi = abs(d0.phi - d1.phi)
        worst_inv = max(worst_inv, abs(d0.mu1 - d1.mu1), abs(d0.mu2 - d1.mu2),
                        abs(d0.sa - d1.sa), abs(d0.sb - d1.sb), abs(d0.sc - d1.sc),
                        min(dphi, 2 * np.pi - dphi))
    elapsed = time.perf_counter() - t0
    assert worst_fid <= 1e-9
    assert worst_inv <= 1e-8
    with capsys.disabled():
        _report(10, "decomposition roundtrip/covariance",
                f"max infidelity={worst_fid:.1e}, max invariant drift={worst_inv:.1e}", elapsed)
