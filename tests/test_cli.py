import json

import pytest

from padicint.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


UNIT_CELL = {
    "center": "0", "lower": -1, "upper": None, "mod": 1, "res": 0,
    "acDepth": 1, "acValue": 1, "p": 2,
}


def test_ord_and_ac(capsys):
    assert run(capsys, "ord", "--p", "2", "12") == (0, "2", "")
    assert run(capsys, "ord", "--p", "2", "0") == (0, "INFINITY", "")
    assert run(capsys, "ord", "--p", "2", "8/3") == (0, "3", "")
    assert run(capsys, "ac", "--p", "2", "--m", "2", "8/3") == (0, "3", "")
    code, out, _ = run(capsys, "ord", "--p", "5", "0", "--json")
    assert code == 0 and json.loads(out) == {"ord": "INFINITY"}


def test_measure_subcommand(capsys, tmp_path):
    cellfile = write(tmp_path, "cell.json", UNIT_CELL)
    code, out, _ = run(capsys, "measure", "--p", "2", cellfile, "--json")
    assert code == 0
    assert json.loads(out)["value"] == "1"
    code, _, err = run(capsys, "measure", "--p", "3", cellfile)
    assert code == 1 and "DomainError" in err


def test_gsum_subcommand(capsys, tmp_path):
    cellfile = write(tmp_path, "gcell.json", {"lower": 1, "upper": None, "mod": 1, "res": 0})
    code, out, _ = run(capsys, "gsum", "--N", "1", "--p", "2", cellfile, "--json")
    data = json.loads(out)
    assert code == 0
    assert data["aq"] == "q^-2 / (1-q^-1)"
    assert data["value"] == "1/2"


def test_wmin_subcommand(capsys, tmp_path):
    cellsfile = write(
        tmp_path, "cells.json", [{"lower": None, "upper": -2, "mod": 3, "res": 1}]
    )
    assert run(capsys, "wmin", cellsfile) == (0, "-5", "")


def test_integrate_subcommand(capsys, tmp_path):
    domfile = write(
        tmp_path, "dom.json",
        {"p": 2, "vars": [{"name": "x1", "sort": "K", "region": "unit_ball"}]},
    )
    code, out, _ = run(capsys, "integrate", "q^(-ord(x1))", "--domain", domfile, "--json")
    assert code == 0
    assert json.loads(out)["value"] == "2/3"
    code, out, _ = run(
        capsys, "integrate", "q^(-ord(x1))", "--domain", domfile,
        "--oracle", "--depth", "6", "--growth", "1,-1,0", "--json",
    )
    data = json.loads(out)
    assert code == 0
    assert data["skipped"] == 1
    from fractions import Fraction

    assert abs(Fraction(data["value"]) - Fraction(2, 3)) <= Fraction(data["tailBound"])


def test_poincare_subcommand(capsys):
    code, out, _ = run(capsys, "poincare", "--p", "3", "--mmax", "11", "x1^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rational"] == {"num": "1 + T", "den": "(1 - 3*T^2)"}
    assert data["counts"][:6] == [1, 1, 3, 3, 9, 9]
    assert all(ok for _, ok in data["checks"])
    assert data["guard"] == 5


def test_json_output_is_reproducible(capsys):
    _, first, _ = run(capsys, "poincare", "--p", "2", "--mmax", "8", "x1", "--json")
    _, second, _ = run(capsys, "poincare", "--p", "2", "--mmax", "8", "x1", "--json")
    assert first == second


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "ord", "--p", "2", "notanumber")
    assert code == 2 and "ParseError" in err
    code, _, err = run(capsys, "poincare", "--p", "2", "--mmax", "3", "x1^")
    assert code == 2
    code, _, err = run(capsys, "ord", "--p", "9", "4")
    assert code == 1 and "DomainError" in err
    code, _, err = run(capsys, "ord", "4")
    assert code == 1
    code, _, err = run(
        capsys, "poincare", "--p", "3", "--mmax", "11", "x1*x2", "--budget", "1000"
    )
    assert code == 3 and "BudgetExceeded" in err


def test_budget_env_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("PADIC_BUDGET", "10")
    code, _, err = run(
        capsys, "poincare", "--p", "3", "--mmax", "11", "x1^2", "--budget", "10000000"
    )
    assert code == 3
    monkeypatch.delenv("PADIC_BUDGET")
    code, _, _ = run(capsys, "poincare", "--p", "3", "--mmax", "6", "x1^2")
    assert code == 0


def test_check_subcommand_runs_clean(capsys):
    code, out, _ = run(capsys, "check", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["checks"]) >= 10


def test_malformed_json_is_a_named_parse_error(capsys, tmp_path):
    no_region = write(tmp_path, "noregion.json", {"p": 2, "vars": [{"name": "x1", "sort": "K"}]})
    code, out, err = run(capsys, "integrate", "1", "--domain", no_region)
    assert (code, out) == (2, "") and "ParseError" in err and "'region'" in err
    no_res = write(
        tmp_path, "nores.json",
        {"p": 2, "vars": [{"name": "g1", "sort": "Gamma", "region": [{"lower": 0, "upper": 5, "mod": 1}]}]},
    )
    code, out, err = run(capsys, "integrate", "1", "--domain", no_res)
    assert (code, out) == (2, "") and "ParseError" in err and "'res'" in err
    cell = {k: v for k, v in UNIT_CELL.items() if k != "acDepth"}
    code, _, err = run(capsys, "measure", write(tmp_path, "cell.json", cell))
    assert code == 2 and "'acDepth'" in err


def test_wrong_json_types_are_named_parse_errors(capsys, tmp_path):
    gamma = {"lower": 0, "upper": 5, "mod": 1, "res": 0}
    cases = [
        ({"p": 2, "vars": 5}, "'vars' must be an array"),
        ({"p": 2, "vars": [{"name": "g1", "sort": "Gamma", "region": 7}]}, "'region' must be an array"),
        ({"p": 2, "vars": [{"name": "g1", "sort": "Gamma", "region": [dict(gamma, lower="a")]}]}, "'lower' must be"),
        ({"p": "3", "vars": []}, "'p' must be an integer"),
        ({"p": 2, "vars": [{"name": "x1", "sort": "K", "region": "ball"}]}, "'ball'"),
    ]
    for i, (payload, message) in enumerate(cases):
        code, out, err = run(capsys, "integrate", "1", "--domain", write(tmp_path, f"d{i}.json", payload))
        assert (code, out) == (2, "") and err.startswith("ParseError") and message in err, err


def test_growth_must_be_rational_with_integer_exponents(capsys, tmp_path):
    domfile = write(
        tmp_path, "dom.json",
        {"p": 3, "vars": [{"name": "x1", "sort": "K", "region": "unit_ball"}]},
    )
    oracle = ("integrate", "q^(-ord(x1))", "--domain", domfile, "--oracle", "--depth", "3")
    code, _, err = run(capsys, *oracle, "--growth", "a,b,c")
    assert code == 2 and "ParseError" in err
    code, _, err = run(capsys, *oracle, "--growth", "1,0,1/2")
    assert code == 1 and "ValueError" in err and "integers" in err


def test_options_belong_to_the_subcommands_that_read_them(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--guard", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --guard" in capsys.readouterr().err
