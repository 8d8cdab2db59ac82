import contextlib
import hashlib
import io
import json
import tempfile
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaring import cli, ring, sigmatr, tableau
from sigmaring.cli import main
from sigmaring.matrices import EvalContext, random_matrix
from sigmaring.quiver import Quiver
from sigmaring.sigmatr import sigma_lin, sigma_tr
from sigmaring.tableau import build_T

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def golden(name):
    return json.loads((GOLDEN / name).read_text())


def test_canon_text(capsys):
    code, out, _ = run(capsys, "canon", "[z y x]")
    assert code == 0
    assert out == "[x z y]\n"


def test_canon_power_and_json(capsys):
    code, out, _ = run(capsys, "canon", "[x' x' x']")
    assert (code, out) == (0, "[x] ^ 3\n")
    code, out, _ = run(capsys, "canon", "[y' z]", "--json")
    assert code == 0
    assert json.loads(out) == {"word": "y z'", "power": 1}


def test_sigma_tr_golden(capsys):
    code, out, _ = run(capsys, "sigma-tr", "-t", "1", "-r", "1", "--json")
    assert code == 0
    assert json.loads(out) == golden("sigma_tr_1_1.json")


def test_sigma_tr_text(capsys):
    _, out, _ = run(capsys, "sigma-tr", "-t", "0", "-r", "1")
    assert out == "-tr[y z] + tr[y z']\n"


def test_power_golden(capsys):
    code, out, _ = run(capsys, "power", "-t", "2", "-l", "2", "--json")
    assert code == 0
    assert json.loads(out) == golden("power_2_2.json")


def test_power_text(capsys):
    _, out, _ = run(capsys, "power", "-t", "1", "-l", "2")
    assert out == "tr[a]^2 - 2*s2[a]\n"


def test_power_beyond_guard_exits_two(capsys, monkeypatch):
    # power_reduce(30, 2) would run for minutes; the guard on t * l
    # refuses it before the expansion starts
    calls = []
    power_reduce = cli.power_reduce

    def expansion(t, l):
        if t < 1 or l < 1:
            return power_reduce(t, l)  # refuses them itself
        if t * l > 28:
            raise AssertionError("expanded past the power guard")
        calls.append((t, l))
        return power_reduce(1, 2)

    monkeypatch.setattr(cli, "power_reduce", expansion)
    code, out, err = run(capsys, "power", "-t", "30", "-l", "2")
    assert (code, out, err) == (2, "", "error: t * l = 60 exceeds guard 28\n")
    code, _, err = run(capsys, "power", "-t", "1", "-l", "29")
    assert (code, err) == (2, "error: t * l = 29 exceeds guard 28\n")
    code, _, err = run(capsys, "power", "-t", "-30", "-l", "-2")
    assert (code, err) == (2, "error: need t >= 1 and l >= 1\n")
    assert calls == []
    assert run(capsys, "power", "-t", "14", "-l", "2")[0] == 0 and calls == [(14, 2)]


def test_amitsur_golden(capsys):
    code, out, _ = run(capsys, "amitsur", "-t", "2", "[a] + [b]", "--json")
    assert code == 0
    assert json.loads(out) == golden("amitsur_2_ab.json")


def test_amitsur_beyond_degree_guard_exits_two(capsys, monkeypatch):
    # s_30 of a sum of two letters would run amitsur_expand for minutes;
    # the guard that gl certificates use refuses it before the expansion
    def expansion(*args):
        raise AssertionError("expanded past the degree guard")

    monkeypatch.setattr(ring, "amitsur_expand", expansion)
    code, out, err = run(capsys, "amitsur", "-t", "30", "[a] + [b]")
    assert (code, out) == (2, "")
    assert err == "error: total degree 30 exceeds guard 10\n"
    code, _, err = run(capsys, "amitsur", "-t", "6", "[a b] + [c]")
    assert (code, err) == (2, "error: total degree 12 exceeds guard 10\n")


def test_cycles_golden(capsys):
    code, out, _ = run(capsys, "cycles", "-t", "1", "-r", "1", "--json")
    assert code == 0
    assert json.loads(out) == golden("cycles_1_1.json")


def test_cycles_json_digest_pinned(capsys):
    # any change of the cycles, their order or their fields shows here
    code, out, _ = run(capsys, "cycles", "-t", "4", "-r", "3", "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "1684f3add66056aa4c7b87a8d17f89f011163508de2eb840b6c4dcdbdcf95765"


def test_cycles_beyond_degree_guard_exits_two(capsys, monkeypatch):
    # cycles shares the guard of sigma-tr on t + 2r: -t 6 -r 6 ran past 30 s
    code, out, err = run(capsys, "cycles", "-t", "0", "-r", "5")
    assert (code, err) == (0, "") and out

    def enumeration(*args):
        raise AssertionError("enumerated past the degree guard")

    monkeypatch.setattr(Quiver, "closed_cycles", enumeration)
    for t, r, degree in (("6", "6", 18), ("7", "3", 13), ("11", "0", 11)):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "cycles", "-t", t, "-r", r, *extra)
            assert (code, out) == (2, "")
            assert err == f"error: total degree {degree} exceeds guard 10\n"


def test_lin_beyond_degree_guard_exits_two(capsys, monkeypatch):
    # s_11 of a sum of eleven letters expands through sigma_partial of degree
    # 11, which is refused before any index set is enumerated
    def enumeration(*args):
        raise AssertionError("enumerated past the degree guard")

    monkeypatch.setattr(sigmatr, "_signed_sum", enumeration)
    code, out, err = run(capsys, "lin", "-d", "1", "s11[x1]")
    assert (code, out, err) == (2, "", "error: total degree 11 exceeds guard 10\n")


def test_lin_round_trip(capsys):
    # Lin of s2[x1] lives in letters x1, x2.
    code, out, _ = run(capsys, "lin", "-d", "1", "s2[x1]")
    assert code == 0
    assert out == "tr[x1]*tr[x2] - tr[x1 x2]\n"


def test_dp_matches_sigma_tr(capsys):
    for n in range(8):
        for r in range(n // 2 + 1):
            for extra in ([], ["--json"]):
                dp = run(capsys, "dp", "-n", str(n), "-r", str(r), *extra)
                tr = run(capsys, "sigma-tr", "-t", str(n - 2 * r), "-r", str(r), *extra)
                assert dp == tr and dp[0] == 0, (n, r, extra)


def test_dp_beyond_degree_guard_exits_two(capsys):
    code, out, err = run(capsys, "dp", "-n", "11", "-r", "0")
    assert (code, out) == (2, "")
    assert err == run(capsys, "sigma-tr", "-t", "11", "-r", "0")[2]
    assert err == "error: total degree 11 exceeds guard 10\n"


def test_dp_rejects_large_r(capsys):
    for n, r in ((2, 2), (-1, 0)):
        code, out, err = run(capsys, "dp", "-n", str(n), "-r", str(r))
        assert (code, out, err) == (2, "", "error: need 0 <= 2r <= n\n")


def test_bpf_value_and_mod_p(capsys):
    _, out_q, _ = run(capsys, "bpf", "-t", "1", "-r", "1", "--seed", "7")
    _, out_p, _ = run(capsys, "bpf", "-t", "1", "-r", "1", "--seed", "7",
                      "--field", "fp:5")
    q = int(out_q.strip())
    assert out_p.strip() == str(q % 5)


def test_bpf_json_fields(capsys):
    code, out, _ = run(capsys, "bpf", "-t", "2", "-r", "0", "--seed", "3",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and data["seed"] == 3
    int(data["value"])


def test_bpf_empty_tableau_prints_one(capsys):
    # T(0, 0) has no arrows and no labels: its value is the empty product,
    # as `dp -n 0 -r 0` and `sigma-tr -t 0 -r 0` print.
    for field in ("Q", "fp:5"):
        code, out, err = run(capsys, "bpf", "-t", "0", "-r", "0", "--field", field)
        assert (code, out, err) == (0, "1\n", "")
    assert run(capsys, "dp", "-n", "0", "-r", "0")[:2] == (0, "1\n")


@pytest.mark.parametrize("extra", [["--multilinear"], ["--form", "full"], ["--form", "Q"]])
def test_bpf_beyond_n6_matches_sigma(capsys, extra):
    # n = 7 is read off the Pfaffian like every other size: the multilinear
    # T(1, 3) is sigma_lin(1, 3), the full form 1! 3! 3! sigma_tr(1, 3)
    code, out, err = run(capsys, "bpf", "-t", "1", "-r", "3", "--field", "fp:7", *extra)
    assert (code, err) == (0, "")
    T = build_T(1, 3, multilinear=extra == ["--multilinear"])
    mats = {k: random_matrix(7, k, field=7) for k in T.labels()}
    if extra == ["--multilinear"]:
        want = EvalContext(mats).eval_poly(sigma_lin(1, 3))
    else:
        want = EvalContext(mats).eval_poly(sigma_tr(1, 3)) * (36 if "full" in extra else 1) % 7
    assert out == f"{want}\n"


def test_bpf_multilinear_beyond_guard_exits_two(capsys):
    code, out, err = run(capsys, "bpf", "-t", "1", "-r", "5", "--multilinear")
    assert (code, out) == (2, "")
    assert err == "error: total degree 11 exceeds guard 10\n"


@pytest.mark.parametrize("p", [3, 5])
def test_bpf_form_q_vanishing_factorial_exits_two(capsys, monkeypatch, p):
    # 1/p! has no value mod p; bpf must refuse before any Pfaffian
    monkeypatch.setattr(tableau, "_pfaffian", None)
    code, out, err = run(capsys, "bpf", "-t", str(p), "-r", "0", "--form", "Q",
                         "--field", f"fp:{p}")
    assert (code, out) == (2, "")
    assert err == f"error: denominator of 1/{factorial(p)} vanishes mod {p}\n"


def test_cycles_negative_budget_exits_two(capsys):
    for t, r in (("-1", "0"), ("0", "-2")):
        code, out, err = run(capsys, "cycles", "-t", t, "-r", r)
        assert code == 2
        assert out == "" and err == "error: negative degree budget\n"


@pytest.mark.parametrize("extra", [
    ["-n", "-1", "-d", "1", "--verify", "exact"],
    ["-n", "0", "-d", "1"],
    ["-n", "2", "-d", "0"],
    ["-n", "2", "-d", "-1", "--verify", "randomized"],
    ["-n", "2", "-d", "1", "--limit", "-1"],
    ["-n", "2", "-d", "1", "--limit", "five"],
])
def test_relations_rejects_bad_sizes(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["relations", "--max-deg", "3", *extra])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "expected an integer" in err


@pytest.mark.parametrize("argv", [
    ["relations", "-n", "1", "-d", "1", "--max-deg", "2", "--json"],
    ["verify", "certs.json", "--json"],
])
def test_json_rejected_where_ignored(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --json" in err


@pytest.mark.parametrize("option,value", [
    ("--max-deg", "-1"),
    ("--max-word-len", "-1"),
    ("--max-word-len", "0"),
])
def test_relations_rejects_bad_budgets(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["relations", "-n", "1", "-d", "1", option, value, "--verify", "randomized"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "expected an integer" in err


def test_relations_zero_degree_budget_is_accepted(capsys):
    code, out, _ = run(capsys, "relations", "-n", "1", "-d", "1",
                       "--max-deg", "0", "--verify", "randomized")
    assert code == 0 and "0 relations, 0 falsified" in out


def test_relations_limit_zero_lists_all(capsys):
    code, out, _ = run(capsys, "relations", "-n", "2", "-d", "1",
                       "--max-deg", "3", "--limit", "0")
    _, capped, _ = run(capsys, "relations", "-n", "2", "-d", "1",
                       "--max-deg", "3", "--limit", "5")
    assert code == 0
    assert len(out.splitlines()) > 5 and out.startswith(capped)


def test_relations_listing(capsys):
    code, out, _ = run(capsys, "relations", "-n", "2", "-d", "1",
                       "--max-deg", "3", "--limit", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("o[") for line in lines)


def test_relations_verify_and_replay(capsys, tmp_path):
    certs = tmp_path / "certs.json"
    code, out, _ = run(capsys, "relations", "-n", "2", "-d", "1",
                       "--max-deg", "3", "--limit", "4",
                       "--verify", "randomized", "--trials", "2",
                       "--out", str(certs))
    assert code == 0
    assert "0 falsified" in out
    code, out, _ = run(capsys, "verify", str(certs))
    assert code == 0
    assert out.count("OK") == 4 and "MISMATCH" not in out


def test_relations_rejects_zero_trials(capsys, tmp_path):
    for trials in ("0", "-2", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["relations", "-n", "2", "-d", "1", "--max-deg", "3",
                  "--verify", "randomized", "--trials", trials])
        assert exc.value.code == 2
    certs = tmp_path / "certs.json"
    code, _, _ = run(capsys, "relations", "-n", "2", "-d", "1",
                     "--max-deg", "3", "--limit", "1",
                     "--verify", "randomized", "--out", str(certs))
    assert code == 0
    data = json.loads(certs.read_text())
    data["certificates"][0]["trials"] = 0
    certs.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(certs))
    assert code == 2 and "error:" in err and "OK" not in out


def test_relations_gl_exact(capsys):
    code, out, _ = run(capsys, "relations", "-n", "2", "-d", "1",
                       "--kind", "gl", "--max-deg", "4", "--limit", "3",
                       "--verify", "exact")
    assert code == 0
    assert "FALSIFIED" not in out


@pytest.mark.parametrize("n, d", [("3", "1"), ("2", "3")])
def test_relations_exact_refuses_sizes_before_generating(capsys, n, d):
    # every relation would be skipped, so no summary may claim success
    code, out, err = run(capsys, "relations", "-n", n, "-d", d, "--max-deg", "4",
                         "--verify", "exact")
    assert code == 2
    assert out == "" and err == "error: exact mode is capped at n <= 2, d <= 2\n"


def test_relations_exact_counts_skipped(capsys):
    code, out, _ = run(capsys, "relations", "-n", "2", "-d", "1", "--max-deg", "5",
                       "--verify", "exact", "--limit", "0")
    assert out == (GOLDEN / "relations_exact_2_1_5.txt").read_text()
    lines = out.splitlines()
    skipped = [s for s in lines if s.startswith("SKIPPED ")]
    assert len(skipped) == 346
    assert all(s.endswith("(exact mode is capped at degree 4)") for s in skipped)
    assert lines[-1] == "633 relations, 0 falsified, 346 skipped"
    assert code == 0
    # nothing skipped: the summary keeps its old form
    code, out, _ = run(capsys, "relations", "-n", "2", "-d", "1", "--max-deg", "4",
                       "--verify", "exact", "--limit", "0")
    assert code == 0 and "SKIPPED" not in out
    assert out.splitlines()[-1].endswith(" relations, 0 falsified")


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            "-n 3 -d 2 --max-deg 5 --verify randomized --limit 0",
            7450,
            "6e9da65b830b5997b90e58b5cfc683ee631c5d6ccd83b54d56f1d0661bdea62f",
        ),
        (
            "-n 2 -d 2 --max-deg 5 --verify exact --limit 0",
            12226,
            "c67d4fcdabf4b35ee2d92bd48b2a156450094f32fa94cce9656b3ab3f22333e9",
        ),
    ],
)
def test_relations_sweep_output_pinned(capsys, argv, lines, digest):
    """The full listing and verdicts of two sweeps in which most relations
    share a polynomial object, and its verdicts, with others."""
    code, out, _ = run(capsys, "relations", *argv.split())
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_eval_assignment(capsys, tmp_path):
    assign = tmp_path / "m.json"
    assign.write_text(json.dumps({
        "n": 2,
        "field": "Q",
        "assign": {
            "x": [["1", "2"], ["3", "4"]],
            "y": [["0", "1"], ["1/2", "1"]],
        },
    }))
    code, out, _ = run(capsys, "eval", "s2[x] - tr[x y]",
                       "--assign", str(assign))
    assert code == 0
    # det([[1,2],[3,4]]) = -2, tr(xy) = 8
    assert out.strip() == "-10"


def test_eval_fp_assignment(capsys, tmp_path):
    assign = tmp_path / "m.json"
    assign.write_text(json.dumps({
        "n": 2,
        "field": "Fp",
        "p": 7,
        "assign": {"x": [["1", "2"], ["3", "4"]]},
    }))
    code, out, _ = run(capsys, "eval", "s2[x]", "--assign", str(assign))
    assert code == 0
    assert out.strip() == "5"  # -2 mod 7


def test_eval_fp_vanishing_denominator_exits_two(capsys, tmp_path):
    assign = tmp_path / "m.json"
    assign.write_text(json.dumps({
        "n": 2,
        "field": "Fp",
        "p": 5,
        "assign": {"x": [["1/5", "2"], ["3", "4"]]},
    }))
    code, out, err = run(capsys, "eval", "s2[x]", "--assign", str(assign))
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("data, message", [
    ({"field": "Z"}, """field must be "Q" or "Fp", got 'Z'"""),
    ({"field": "Z", "p": 7}, """field must be "Q" or "Fp", got 'Z'"""),
    ({"field": "Fp"}, 'an "Fp" matrix needs its prime "p"'),
])
def test_eval_field_errors_name_the_field(capsys, tmp_path, data, message):
    assign = tmp_path / "m.json"
    assign.write_text(json.dumps({"n": 1, **data, "assign": {"x": [["2"]]}}))
    code, out, err = run(capsys, "eval", "tr[x]", "--assign", str(assign))
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("field", [{"field": "Q"}, {"field": "Fp", "p": 7}])
def test_eval_traces(capsys, tmp_path, field):
    """s_1 at n = 0 is 0; a letter with no matrix is refused at s_1, of a
    one-letter word and of a longer one."""
    assign = tmp_path / "m.json"
    assign.write_text(json.dumps({"n": 0, **field, "assign": {"x": []}}))
    code, out, _ = run(capsys, "eval", "tr[x] + tr[x x']", "--assign", str(assign))
    assert code == 0 and out == "0\n"
    assign.write_text(json.dumps({"n": 2, **field, "assign": {"x": [["1", "2"], ["3", "4"]]}}))
    for poly in ("tr[x] + tr[y]", "tr[x y]", "tr[x x' y]"):
        code, out, err = run(capsys, "eval", poly, "--assign", str(assign))
        assert code == 2
        assert out == "" and err == "error: no matrix for letter index 2\n", poly


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sigma-tr", "-t", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bpf", "-t", "1", "-r", "0", "--field", "fp:4"])
    assert exc.value.code == 2


def test_large_prime_field(capsys):
    code, out, _ = run(capsys, "bpf", "-t", "1", "-r", "1", "--field", "fp:2305843009213693951")
    assert code == 0 and out.strip().isdigit()
    for p in ("4", "3215031751", "3317044064679887385961981"):
        with pytest.raises(SystemExit) as exc:
            main(["bpf", "-t", "1", "-r", "1", "--field", f"fp:{p}"])
        assert exc.value.code == 2
        assert f"'fp:{p}' is not an odd prime field" in capsys.readouterr().err


def test_runtime_errors_exit_two(capsys):
    code, _, err = run(capsys, "eval", "tr[x]", "--assign", "/no/such/file")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "canon", "x y")  # brackets are mandatory
    assert code == 2


def test_recursion_error_exits_two(capsys, monkeypatch):
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_sigma_tr", overflow)
    code, out, err = run(capsys, "sigma-tr", "-t", "1", "-r", "1")
    assert code == 2
    assert out == "" and err.startswith("error: maximum recursion depth")


CERT = {
    "version": 1, "kind": "o", "n": 2, "d": 1,
    "shape": {"t": [1], "r": [1], "s": [1]}, "words": ["x1", "x1", "x1"],
    "mode": "randomized", "verified": True, "trials": 2, "seed": 0, "field": "Q",
}
ASSIGN = {"n": 2, "field": "Q", "assign": {"x": [["1", "2"], ["3", "4"]]}}


@pytest.mark.parametrize("data", [
    {"version": 1, "certificates": 5},
    {"version": 1, "certificates": [{**CERT, "d": "2"}]},
    [1],
    {"version": 1, "certificates": [{**CERT, "field": "fp"}]},
    {"version": 1, "certificates": [{**CERT, "n": 0}]},
    {"version": 1, "certificates": [{**CERT, "n": -3}]},
])
def test_malformed_certificate_file_exits_two(capsys, tmp_path, data):
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:")


GL_CERT = {
    "version": 1, "kind": "gl", "n": 1, "d": 1,
    "shape": {"t": [2], "r": [], "s": []}, "words": ["x1"],
    "mode": "exact", "verified": True,
}


@pytest.mark.parametrize("cert", [
    {**GL_CERT, "shape": {"t": [], "r": [], "s": []}},
    {**GL_CERT, "shape": {"t": [2, 5], "r": [1], "s": []}},
    {**GL_CERT, "shape": {"t": [2], "r": [], "s": [1]}},
    {**GL_CERT, "words": []},
    {**GL_CERT, "words": ["x1", "x1'", "x1 x1'"]},
    {**CERT, "words": ["x1", "x1"]},
    {**CERT, "words": ["x1", "x1", "x1", "x1"]},
])
def test_certificate_shape_must_fit_its_words(capsys, tmp_path, cert):
    path = tmp_path / "certs.json"
    path.write_text(json.dumps({"version": 1, "certificates": [GL_CERT, cert]}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: malformed certificate {")
    path.write_text(json.dumps({"version": 1, "certificates": [GL_CERT, CERT]}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.count("OK") == 2


@pytest.mark.parametrize("d, words", [(1, ["x1 x1"]), (2, ["x1", "x2"])])
def test_oversized_gl_certificate_exits_two(capsys, tmp_path, monkeypatch, d, words):
    # s_30 of these words would run power_reduce or amitsur_expand for
    # minutes; the degree guard must refuse before either starts
    def expansion(*args):
        raise AssertionError("expanded past the degree guard")

    monkeypatch.setattr(ring, "power_reduce", expansion)
    monkeypatch.setattr(ring, "amitsur_expand", expansion)
    cert = {**GL_CERT, "d": d, "shape": {"t": [30], "r": [], "s": []}, "words": words}
    path = tmp_path / "certs.json"
    path.write_text(json.dumps({"version": 1, "certificates": [cert]}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == "" and err == f"error: total degree {30 * len(words[0].split())} exceeds guard 10\n"


def test_malformed_assignment_exits_two(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**ASSIGN, "assign": {"x": 5}}))
    code, out, err = run(capsys, "eval", "tr[x]", "--assign", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:")


def exit_code(argv) -> int:
    """main's return value with its output discarded; an exception or an
    argparse exit propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def exit_code_with_file(data, argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(data))
        return exit_code([str(path) if a is None else a for a in argv])


JSON_SCALARS = st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(
    ["", "Q", "Fp", "fp", "fp:5", "fp:4", "o", "gl", "exact", "randomized",
     "x", "x1", "x1'", "x1 x2", "1/2", "1/5", "5"]
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=2)
    | st.dictionaries(st.sampled_from(["t", "r", "s", "x", "n", "version"]), kids, max_size=3),
    max_leaves=6,
)
MISSING = object()


def edited(base: dict, key, value) -> dict:
    out = json.loads(json.dumps(base))
    if value is MISSING:
        out.pop(key, None)
    else:
        out[key] = value
    return out


def cert_files():
    """Whole files of random JSON, and valid files with one certificate
    field, one shape entry or the certificate list replaced or removed."""
    value = JSON_VALUES | st.just(MISSING)
    cert = st.builds(edited, st.just(CERT), st.sampled_from(sorted(CERT)), value)
    cert |= st.builds(
        lambda k, v: edited(CERT, "shape", edited(CERT["shape"], k, v)),
        st.sampled_from("trs"), value,
    )
    files = st.builds(lambda c: {"version": 1, "certificates": [c]}, cert)
    files |= st.builds(
        edited, st.just({"version": 1, "certificates": [CERT]}),
        st.sampled_from(["version", "certificates"]), value,
    )
    return files | JSON_VALUES


def assign_files():
    value = JSON_VALUES | st.just(MISSING)
    files = st.builds(edited, st.just(ASSIGN), st.sampled_from(sorted(ASSIGN)), value)
    files |= st.builds(
        lambda v: edited(ASSIGN, "assign", {"x": v}),
        JSON_VALUES | st.lists(st.lists(JSON_SCALARS, max_size=3), max_size=3),
    )
    return files | JSON_VALUES


POLY_TEXT = st.text(alphabet="[]xy' +-*/12^strabc", max_size=16)


@settings(max_examples=150, deadline=None)
@given(cert_files())
def test_verify_never_raises(data):
    assert exit_code_with_file(data, ["verify", None]) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(assign_files(), st.sampled_from(["tr[x]", "s2[x] - tr[x x]", "tr[x]^2"]))
def test_eval_assignment_never_raises(data, poly):
    assert exit_code_with_file(data, ["eval", "--assign", None, "--", poly]) in (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(POLY_TEXT)
def test_text_inputs_never_raise(text):
    assert exit_code_with_file(ASSIGN, ["eval", "--assign", None, "--", text]) in (0, 1, 2)
    assert exit_code(["amitsur", "-t", "2", "--", text]) in (0, 1, 2)
    assert exit_code(["canon", "--", text]) in (0, 1, 2)
