import json
from pathlib import Path

import pytest

from sigmaring import cli
from sigmaring.cli import main

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


def test_amitsur_golden(capsys):
    code, out, _ = run(capsys, "amitsur", "-t", "2", "[a] + [b]", "--json")
    assert code == 0
    assert json.loads(out) == golden("amitsur_2_ab.json")


def test_cycles_golden(capsys):
    code, out, _ = run(capsys, "cycles", "-t", "1", "-r", "1", "--json")
    assert code == 0
    assert json.loads(out) == golden("cycles_1_1.json")


def test_lin_round_trip(capsys):
    # Lin of s2[x1] lives in letters x1, x2.
    code, out, _ = run(capsys, "lin", "-d", "1", "s2[x1]")
    assert code == 0
    assert out == "tr[x1]*tr[x2] - tr[x1 x2]\n"


def test_dp_matches_sigma_tr(capsys):
    _, dp_out, _ = run(capsys, "dp", "-n", "3", "-r", "1", "--json")
    _, tr_out, _ = run(capsys, "sigma-tr", "-t", "1", "-r", "1", "--json")
    assert json.loads(dp_out) == json.loads(tr_out)


def test_dp_rejects_large_r(capsys):
    code, _, err = run(capsys, "dp", "-n", "2", "-r", "2")
    assert code == 2
    assert "2r" in err


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


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sigma-tr", "-t", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bpf", "-t", "1", "-r", "0", "--field", "fp:4"])
    assert exc.value.code == 2


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
