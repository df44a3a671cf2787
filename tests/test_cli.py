import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghzdistill
from ghzdistill import (
    PovmTriple,
    ProductDecomposition,
    closed_form_one_site,
    decompose,
    ghz_state,
    normalize,
    reconstruct,
)
from ghzdistill.cli import main
from helpers import PSI_B_AMPS, exact_branch_probability, make_decomposition

SQ2 = 1.0 / np.sqrt(2.0)


def write_state(path, amps, label=None):
    doc = {"amps": [[float(np.real(a)), float(np.imag(a))] for a in amps]}
    if label is not None:
        doc["label"] = label
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    return write_state(tmp_path / "ghz.json", ghz_state().amps, "ghz")


@pytest.fixture
def w_file(tmp_path):
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1 / np.sqrt(3)
    return write_state(tmp_path / "w.json", amps, "w")


@pytest.fixture
def psi_b_file(tmp_path):
    return write_state(tmp_path / "psi_b.json", PSI_B_AMPS, "psi_b")


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return rc, doc, out.err


def strip_timings(doc):
    doc = json.loads(json.dumps(doc))
    doc["diagnostics"].pop("timings_ms")
    return doc


def parse_matrix(m):
    return np.array([[complex(*m[i][j]) for j in range(2)] for i in range(2)])


def triple_from_result(result):
    p = result["povms"]
    return PovmTriple(
        parse_matrix(p["A"]["success"]), parse_matrix(p["A"]["failure"]),
        parse_matrix(p["B"]["success"]), parse_matrix(p["B"]["failure"]),
        parse_matrix(p["C"]["success"]), parse_matrix(p["C"]["failure"]),
    )


# ----------------------------------------------------------------- classify

def test_classify_ghz(capsys, ghz_file):
    rc, doc, _ = run_cli(capsys, ["classify", ghz_file])
    assert rc == 0
    assert doc["command"] == "classify"
    assert doc["input_label"] == "ghz"
    assert doc["result"]["class"] == "GHZClass"
    assert doc["result"]["single_party_ranks"] == {"A": 2, "B": 2, "C": 2}


def test_classify_w(capsys, w_file):
    rc, doc, _ = run_cli(capsys, ["classify", w_file])
    assert rc == 0
    assert doc["result"]["class"] == "WClass"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1", "5"])
def test_bad_tol_exits_2(capsys, ghz_file, tol):
    rc, doc, err = run_cli(capsys, ["classify", "--tol", tol, ghz_file])
    assert rc == 2
    assert doc is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_json_flag_is_a_usage_error(ghz_file):
    # compact output is the default; there is no flag for it
    with pytest.raises(SystemExit) as info:
        main(["classify", "--json", ghz_file])
    assert info.value.code == 2


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, doc, err = run_cli(capsys, ["classify", str(bad)])
    assert rc == 2
    assert doc is None
    assert "malformed JSON" in err


def test_missing_amps_exits_2(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text('{"label": "x"}')
    rc, _, err = run_cli(capsys, ["classify", str(f)])
    assert rc == 2


def test_wrong_length_exits_3(capsys, tmp_path):
    f = tmp_path / "short.json"
    f.write_text('{"amps": [[1, 0], [0, 0]]}')
    rc, _, err = run_cli(capsys, ["classify", str(f)])
    assert rc == 3


def test_zero_norm_exits_3(capsys, tmp_path):
    f = write_state(tmp_path / "zero.json", np.zeros(8))
    rc, _, err = run_cli(capsys, ["classify", f])
    assert rc == 3


def test_off_norm_renormalizes_with_warning(capsys, tmp_path):
    f = write_state(tmp_path / "offnorm.json", 1.5 * ghz_state().amps)
    rc, doc, err = run_cli(capsys, ["classify", f])
    assert rc == 0
    assert "renormalizing" in err
    assert doc["result"]["class"] == "GHZClass"


def test_overflowing_amplitudes_renormalize(capsys, tmp_path, psi_b_file):
    # the squared norm of 1e200-sized amplitudes overflows; the file is still
    # a valid unnormalized state, and the warning gives its true norm
    f = write_state(tmp_path / "huge.json", 1e200 * np.sqrt(2.0) * PSI_B_AMPS)
    rc, doc, err = run_cli(capsys, ["distill", f])
    assert rc == 0
    assert err == f"warning: {f}: state norm 1.41421e+200 differs from 1; renormalizing\n"
    _, reference, _ = run_cli(capsys, ["distill", psi_b_file])
    assert doc["result"]["p_opt"] == pytest.approx(reference["result"]["p_opt"], abs=1e-15)


_EIGHT_ZEROS = ", ".join(["[0, 0]"] * 7)


@pytest.mark.parametrize("content,code", [
    (b"\xff\xfe{}", 2),
    (b"[" * 100_000, 2),
    (b'{"amps": [[1' + b"0" * 400 + b", 0], " + _EIGHT_ZEROS.encode() + b"]}", 3),
    (b'{"amps": [[1e400, 0], ' + _EIGHT_ZEROS.encode() + b"]}", 3),
    (b'{"amps": [[NaN, 0], ' + _EIGHT_ZEROS.encode() + b"]}", 3),
    (b'{"amps": [[0, -Infinity], ' + _EIGHT_ZEROS.encode() + b"]}", 3),
    (b'{"amps": ["10", "00", "00", "00", "00", "00", "00", "10"]}', 2),
    (b'{"amps": [[1, 0, 0], ' + _EIGHT_ZEROS.encode() + b"]}", 2),
    (b'{"amps": [[true, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [true, false]]}', 2),
], ids=["non-utf8", "deep-nesting", "401-digit-integer", "1e400", "nan", "infinity",
        "string-pairs", "triple", "booleans"])
def test_bad_state_file_exits_with_one_error_line(capsys, tmp_path, content, code):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc, doc, err = run_cli(capsys, ["classify", str(path)])
    assert rc == code
    assert doc is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# ------------------------------------------------------------------ distill

def test_distill_ghz(capsys, ghz_file):
    rc, doc, _ = run_cli(capsys, ["distill", ghz_file])
    assert rc == 0
    res = doc["result"]
    assert res["p_opt"] == pytest.approx(1.0, abs=1e-9)
    for party in "ABC":
        np.testing.assert_allclose(parse_matrix(res["povms"][party]["success"]),
                                   np.eye(2), atol=1e-9)


def test_distill_psi_b(capsys, psi_b_file):
    rc, doc, _ = run_cli(capsys, ["distill", psi_b_file])
    assert rc == 0
    res = doc["result"]
    assert res["p_opt"] == pytest.approx(0.4, abs=1e-9)
    g = np.sqrt(0.4)
    assert res["coefficients"]["gamma1"] == pytest.approx(g, abs=1e-9)
    assert res["coefficients"]["gamma2"] == pytest.approx(g, abs=1e-9)


def test_distill_w_exits_4(capsys, w_file):
    rc, doc, err = run_cli(capsys, ["distill", w_file])
    assert rc == 4
    assert doc is None
    assert "WClass" in err


def test_distill_not_ghz_found_by_decompose_exits_4(capsys, tmp_path):
    # |000> + 1e-6|111> is biseparable at the default rank tolerance, and
    # GHZ class at --tol 1e-14, which must reach the decomposition
    amps = np.zeros(8)
    amps[0], amps[7] = 1.0, 1e-6
    path = write_state(tmp_path / "near_product.json", amps)
    rc, doc, err = run_cli(capsys, ["distill", path])
    assert rc == 4
    assert doc is None
    assert err.startswith("error:")
    assert "Traceback" not in err
    rc, doc, _ = run_cli(capsys, ["distill", "--tol", "1e-14", path])
    assert rc == 0
    d = decompose(normalize(amps), tol=1e-14)
    assert doc["result"]["p_opt"] == pytest.approx(closed_form_one_site(d), rel=1e-12)


def test_distill_coefficients_realize_a_tiny_p_opt(capsys, tmp_path):
    # mu2/mu1 = 1e-6: p_opt is about 1e-12, below any absolute tie between
    # the ends of the search range and the optimum, so the reported
    # coefficients must come from the optimum itself
    d = make_decomposition(np.random.default_rng(1), ratio=1e-6, sa=0.5, sb=0.5, sc=0.5)
    path = write_state(tmp_path / "tiny.json", reconstruct(d).amps)
    rc, doc, _ = run_cli(capsys, ["distill", "--tol", "1e-14", path])
    assert rc == 0
    res = doc["result"]
    c = res["coefficients"]
    p = 2.0 * (c["alpha1"] * c["beta1"] * c["gamma1"] * res["decomposition"]["mu1"]) ** 2
    assert abs(p / res["p_opt"] - 1.0) <= 1e-14


def test_distill_vanishing_quadratic_exits_4(capsys, tmp_path):
    # every local rank is 2 at --tol 1e-20; the coarse rank retry of the
    # vanishing product-vector quadratic finds a product state
    path = write_state(tmp_path / "coarse.json", [1, 0, 0, 0, 0, 1e-7, 1e-7, 0])
    rc, doc, err = run_cli(capsys, ["distill", "--tol", "1e-20", path])
    assert rc == 4
    assert doc is None
    assert "FullyProduct" in err


def test_distill_package_error_exits_3(capsys, tmp_path):
    # W + 1e-6|111> classifies as GHZ, but the POVM construction fails one
    # of its invariant checks
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1 / np.sqrt(3)
    amps[7] = 1e-6
    path = write_state(tmp_path / "near_w.json", amps)
    rc, doc, err = run_cli(capsys, ["distill", path])
    assert rc == 3
    assert doc is None
    assert err.startswith("error: InvariantViolationError")
    assert "Traceback" not in err


def test_distill_povms_roundtrip_through_json(capsys, psi_b_file):
    rc, doc, _ = run_cli(capsys, ["distill", psi_b_file])
    triple = triple_from_result(doc["result"])
    p = exact_branch_probability(normalize(PSI_B_AMPS), triple)
    assert p == pytest.approx(doc["result"]["p_opt"], abs=1e-8)


# ----------------------------------------------------------------- simulate

def test_simulate_psi_b(capsys, psi_b_file):
    rc, doc, _ = run_cli(capsys, ["simulate", psi_b_file, "--trials", "100000",
                                  "--seed", "42"])
    assert rc == 0
    res = doc["result"]
    sigma = np.sqrt(0.4 * 0.6 / 100000)
    assert abs(res["success_rate"] - 0.4) < 4 * sigma
    assert res["mean_success_fidelity"] >= 1 - 1e-9
    assert res["trials"] == 100000 and res["seed"] == 42


def test_simulate_reproducible(capsys, psi_b_file):
    rc1, doc1, _ = run_cli(capsys, ["simulate", psi_b_file, "--trials", "5000", "--seed", "9"])
    rc2, doc2, _ = run_cli(capsys, ["simulate", psi_b_file, "--trials", "5000", "--seed", "9"])
    assert strip_timings(doc1) == strip_timings(doc2)


def test_simulate_ghz_rate_one(capsys, ghz_file):
    rc, doc, _ = run_cli(capsys, ["simulate", ghz_file, "--trials", "10"])
    assert rc == 0
    assert doc["result"]["success_rate"] == 1.0


def test_simulate_zero_trials_exits_2(capsys, psi_b_file):
    rc, doc, err = run_cli(capsys, ["simulate", psi_b_file, "--trials", "0"])
    assert rc == 2


@pytest.fixture
def sa_file(tmp_path):
    # GHZ class with a non-orthogonal Alice pair (sa = 0.5)
    d = make_decomposition(np.random.default_rng(3), sa=0.5)
    return write_state(tmp_path / "sa.json", reconstruct(d).amps, "sa")


@pytest.mark.parametrize("command,state,extra", [
    ("simulate", "psi_b_file", ["--seed", "-1"]),
    ("audit", "psi_b_file", ["--seed", "-1"]),
    ("fidelity", "psi_b_file", ["--seed", "-1"]),
    ("simulate", "psi_b_file", ["--trials", "0"]),
    ("fidelity", "psi_b_file", ["--restarts", "0"]),
    ("audit", "psi_b_file", ["--diagonal-scan", "2"]),
    ("audit", "sa_file", ["--diagonal-scan", "5"]),
    ("audit", "psi_b_file", ["--povms", "0"]),
    # the counts are checked before the state is read, so a non-GHZ state
    # exits 2 for them too, not 4
    ("simulate", "w_file", ["--trials", "0"]),
    ("audit", "w_file", ["--povms", "0"]),
    ("audit", "w_file", ["--diagonal-scan", "2"]),
    ("fidelity", "w_file", ["--restarts", "0"]),
])
def test_argument_outside_its_domain_exits_2(capsys, request, command, state, extra):
    rc, doc, err = run_cli(capsys, [command, request.getfixturevalue(state), *extra])
    assert rc == 2
    assert doc is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command,extra", [
    ("simulate", ["--trials", "0"]), ("audit", ["--povms", "0"]),
    ("audit", ["--diagonal-scan", "2"]), ("fidelity", ["--restarts", "0"]),
])
def test_count_is_checked_before_the_state_file_is_read(capsys, tmp_path, command, extra):
    rc, doc, err = run_cli(capsys, [command, str(tmp_path / "missing.json"), *extra])
    assert rc == 2
    assert err.startswith("error: " + extra[0] + " must be an integer")


@pytest.mark.parametrize("command,module,attr,extra", [
    ("simulate", "simulate", "trial_uniforms", ["--trials", "10"]),
    ("fidelity", "fidelity", "su2", ["--restarts", "2"]),
])
def test_out_of_memory_exits_2(capsys, monkeypatch, psi_b_file, command, module, attr, extra):
    # a count too large for the machine (--trials 10**12) makes these
    # allocations raise MemoryError; the stand-in raises it without allocating
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 21.8 TiB for an array")

    monkeypatch.setattr(getattr(ghzdistill, module), attr, no_memory)
    rc, doc, err = run_cli(capsys, [command, psi_b_file, *extra])
    assert rc == 2
    assert doc is None
    assert err.startswith("error: not enough memory") and err.count("\n") == 1
    assert "Traceback" not in err


# -------------------------------------------------------------------- audit

def test_audit_random_povms(capsys, ghz_file):
    rc, doc, _ = run_cli(capsys, ["audit", ghz_file, "--povms", "10", "--seed", "1"])
    assert rc == 0
    res = doc["result"]
    assert res["audits"] == 30
    assert res["min_slack"] >= -1e-7
    assert set(res["per_party"]) == {"A", "B", "C"}


def test_audit_diagonal_scan(capsys, psi_b_file):
    rc, doc, _ = run_cli(capsys, ["audit", psi_b_file, "--diagonal-scan", "101"])
    assert rc == 0
    res = doc["result"]
    assert res["min_slack_x"] == pytest.approx(0.5, abs=0.01)
    assert min(res["slack"]) >= -1e-8


def test_audit_diagonal_scan_decomposes_at_tol(capsys, tmp_path):
    # sa = 0, sb = sc = 0.5, mu2/mu1 = 3e-6: fully product at the default
    # rank tolerance, GHZ class at --tol 1e-14, which the scan must use too
    m1 = 1.0 / np.sqrt(1.0 + 9e-12)
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    v = np.array([0.5, np.sqrt(0.75)])
    d = ProductDecomposition(mu1=m1, mu2=3e-6 * m1, phi=0.0, a1=e0, a2=e1,
                             b1=e0, b2=v, c1=e0, c2=v, sa=0.0, sb=0.5, sc=0.5)
    path = write_state(tmp_path / "near_product.json", reconstruct(d).amps)
    rc, distilled, _ = run_cli(capsys, ["distill", path, "--tol", "1e-14"])
    assert rc == 0
    rc, doc, err = run_cli(capsys, ["audit", path, "--tol", "1e-14", "--diagonal-scan", "5"])
    assert rc == 0, err
    assert doc["result"]["p_before"] == distilled["result"]["p_opt"]
    assert len(doc["result"]["slack"]) == 5
    rc, _, err = run_cli(capsys, ["audit", path, "--diagonal-scan", "5"])
    assert rc == 4 and "FullyProduct" in err


def test_audit_random_povms_value_branches_at_tol(capsys, tmp_path):
    # |000> + 1e-6|111>: fully product at the default rank tolerance, GHZ
    # class at --tol 1e-14, and so are the branches of the random POVMs, so
    # each audit values them (at the default tol every branch counted 0 and
    # each slack equalled p_before)
    amps = np.zeros(8)
    amps[0], amps[7] = 1.0, 1e-6
    path = write_state(tmp_path / "near_product.json", amps)
    rc, doc, err = run_cli(capsys, ["audit", path, "--tol", "1e-14", "--povms", "3"])
    assert rc == 0, err
    res = doc["result"]
    assert res["p_before"] > 0.0
    for party in "ABC":
        assert res["per_party"][party]["mean_slack"] < 0.5 * res["p_before"]


def test_audit_w_exits_4(capsys, w_file):
    rc, _, _ = run_cli(capsys, ["audit", w_file, "--povms", "1"])
    assert rc == 4


# ----------------------------------------------------------------- fidelity

def test_fidelity_ghz(capsys, ghz_file):
    rc, doc, _ = run_cli(capsys, ["fidelity", ghz_file, "--restarts", "4"])
    assert rc == 0
    assert doc["result"]["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_fidelity_basis_state(capsys, tmp_path):
    f = write_state(tmp_path / "000.json", np.eye(8)[0])
    rc, doc, _ = run_cli(capsys, ["fidelity", f, "--restarts", "16"])
    assert rc == 0
    assert doc["result"]["fidelity"] == pytest.approx(0.5, abs=1e-6)


def test_fidelity_works_for_w_class(capsys, w_file):
    rc1, doc1, _ = run_cli(capsys, ["fidelity", w_file, "--restarts", "12", "--seed", "3"])
    rc2, doc2, _ = run_cli(capsys, ["fidelity", w_file, "--restarts", "12", "--seed", "8"])
    assert rc1 == 0 and rc2 == 0
    assert abs(doc1["result"]["fidelity"] - doc2["result"]["fidelity"]) < 1e-8


# ------------------------------------------------------------ output format

def test_floats_carry_full_precision(capsys, psi_b_file):
    main(["distill", psi_b_file])
    out = capsys.readouterr().out
    floats = re.findall(r"-?\d+\.\d+(?:e[+-]\d+)?", out)
    assert floats
    for f in floats:
        digits = re.sub(r"e[+-]\d+$", "", f).replace("-", "").replace(".", "")
        assert len(digits.lstrip("0")) >= 15 or float(f) == 0.0


def test_deterministic_output(capsys, psi_b_file):
    _, doc1, _ = run_cli(capsys, ["distill", psi_b_file])
    _, doc2, _ = run_cli(capsys, ["distill", psi_b_file])
    assert strip_timings(doc1) == strip_timings(doc2)
    assert json.dumps(strip_timings(doc1)) == json.dumps(strip_timings(doc2))


def test_pretty_output_parses(capsys, ghz_file):
    rc, doc, _ = run_cli(capsys, ["classify", ghz_file, "--pretty"])
    assert rc == 0
    assert doc["result"]["class"] == "GHZClass"


def test_console_entry_point(tmp_path, ghz_file):
    # the child imports the same package as this process, installed or not
    src = str(Path(ghzdistill.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "ghzdistill.cli", "classify", ghz_file],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["class"] == "GHZClass"


def test_package_does_not_import_scipy():
    # nothing in the package needs SciPy, the LU fidelity included
    src = str(Path(ghzdistill.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import sys\n"
        "import ghzdistill as g\n"
        "st = g.normalize([1, 0, 0, 0, 0, 0, 0.6, 0.8])\n"
        "d = g.decompose(st)\n"
        "povms = g.build_povms(d, g.optimal_probability(d))\n"
        "g.run_protocol(st, povms, trials=100, seed=0)\n"
        "g.audit_povm(st, g.random_povm_pair(0), 'A')\n"
        "g.optimal_lu_fidelity(st, restarts=4, seed=0)\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
