import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicint.cli as cli
from padicint import geom_sum, selfcheck
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
    # --p is checked as ord and poincare check it
    assert run(capsys, "gsum", "--N", "1", "--p", "4", cellfile) == (1, "", "DomainError: 4 is not prime")


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


def test_the_oracle_takes_an_argument_over_a_higher_index_variable(capsys, monkeypatch):
    # ord(x3) also names x1 and x2, which the domain does not declare
    domain = '{"p": 3, "vars": [{"name": "x3", "sort": "K", "region": "unit_ball"}]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(domain))
    argv = ("integrate", "q^(-ord(x3))", "--domain", "-", "--oracle", "--depth", "3", "--json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "classes": 27, "depth": 3, "skipped": 1, "skippedMeasure": "1/27",
        "tailBound": "1/18", "value": "182/243",
    }


def test_poincare_subcommand(capsys):
    code, out, _ = run(capsys, "poincare", "--p", "3", "--mmax", "11", "x1^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rational"] == {"num": "1 + T", "den": "(1 - 3*T^2)"}
    assert data["counts"][:6] == [1, 1, 3, 3, 9, 9]
    assert all(ok for _, ok in data["checks"])
    assert data["guard"] == 5


SRC = str(Path(__file__).resolve().parents[1] / "src")

COLD_START = """
import json, sys
before = set(sys.modules)
import padicint.cli
loaded = [m for m in ("dataclasses", "inspect", "padicint.poincare") if m in set(sys.modules) - before]
import padicint
print(json.dumps([loaded, padicint.poincare_report.__module__]))
"""


def test_a_cold_start_loads_neither_dataclasses_nor_poincare():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PADIC_BUDGET", None)
    out = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [[], "padicint.poincare"]
    out = subprocess.run(
        [sys.executable, "-m", "padicint.cli", "poincare", "--p", "3", "--mmax", "6", "x1^2", "--json"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == (
        '{"checks":[[0,true],[1,true],[2,true]],"counts":[1,1,3,3,9,9,27],'
        '"guard":5,"rational":null,"shape":null}\n'
    )


def test_json_output_is_reproducible(capsys):
    _, first, _ = run(capsys, "poincare", "--p", "2", "--mmax", "8", "x1", "--json")
    _, second, _ = run(capsys, "poincare", "--p", "2", "--mmax", "8", "x1", "--json")
    assert first == second


def test_exit_codes(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "ord", "--p", "2", "notanumber")
    assert code == 2 and "ParseError" in err
    code, _, err = run(capsys, "poincare", "--p", "2", "--mmax", "3", "x1^")
    assert code == 2
    code, _, err = run(capsys, "ord", "--p", "9", "4")
    assert code == 1 and "DomainError" in err
    code, _, err = run(capsys, "ord", "4")
    assert code == 1
    code, _, err = run(
        capsys, "poincare", "--p", "3", "--mmax", "11", "(x1-x2)^2", "--budget", "1000"
    )
    assert code == 3 and "BudgetExceeded" in err
    code, out, err = run(capsys, "poincare", "--p", "3", "--mmax", "-1", "x1")
    assert (code, out) == (1, "") and err.startswith("ValueError") and "mmax" in err
    code, out, err = run(capsys, "poincare", "--p", "3", "--mmax", "3", "--check-mmax", "-3", "x1")
    assert (code, out) == (1, "") and "check_mmax must be >= 0" in err
    # the oracle's budget bounds the boxes its walk settles: 225 here
    domfile = write(
        tmp_path, "dom.json",
        {"p": 3, "vars": [{"name": name, "sort": "K", "region": "unit_ball"} for name in ("x1", "x2")]},
    )
    oracle = (
        "integrate", "q^(-ord(x1) - ord(x2))", "--domain", domfile,
        "--oracle", "--depth", "7", "--growth", "1,-1,0",
    )
    code, _, err = run(capsys, *oracle, "--budget", "224")
    assert code == 3 and "BudgetExceeded" in err and "depth 7" in err and "224" in err
    assert run(capsys, *oracle, "--budget", "225")[0] == 0
    # the root box counts too: "1" is decided there
    root = ("integrate", "1", "--domain", domfile, "--oracle", "--depth", "2")
    code, out, err = run(capsys, *root, "--budget", "0")
    assert (code, out) == (3, "") and "BudgetExceeded" in err and "budget of 0" in err
    assert run(capsys, *root, "--budget", "1") == (0, "value 1  tail bound 0  (depth 2, 0 skipped classes)", "")
    code, out, err = run(capsys, "integrate", "q^(-ord(0*x1))", "--domain", domfile)
    assert (code, out) == (1, "") and err.startswith("UndefinedAtPoint") and "zero polynomial" in err
    with pytest.raises(SystemExit) as exc:
        main([*oracle, "--refine", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --refine" in capsys.readouterr().err
    monkeypatch.setenv("PADIC_BUDGET", "abc")
    code, out, err = run(capsys, "poincare", "--p", "3", "--mmax", "3", "x1")
    assert (code, out) == (2, "") and err.startswith("ParseError") and "PADIC_BUDGET" in err


def test_budget_env_overrides_flag(capsys, monkeypatch):
    # (x1-x2)^2 at p = 3, mmax 6 splits 81 undecided classes' children last
    args = ("poincare", "--p", "3", "--mmax", "6", "(x1-x2)^2")
    monkeypatch.setenv("PADIC_BUDGET", "80")
    code, _, err = run(capsys, *args, "--budget", "10000000")
    assert code == 3 and "80" in err
    monkeypatch.setenv("PADIC_BUDGET", "81")
    assert run(capsys, *args, "--budget", "80")[0] == 0
    monkeypatch.delenv("PADIC_BUDGET")
    assert run(capsys, *args, "--budget", "80")[0] == 3


CHECK_NAMES = [
    "aqring.cancellation_vs_long_division",
    "presburger.sums_vs_enumeration",
    "presburger.additivity",
    "presburger.wellorder_min",
    "kcells.normalization",
    "kcells.translation",
    "kcells.counting",
    "integrate.oracle_agreement",
    "integrate.linearity",
    "integrate.additivity",
    "integrate.fubini",
    "poincare.counting_vs_symbolic",
    "poincare.lifting_vs_enumeration",
]


def test_check_subcommand_runs_clean(capsys):
    code, out, _ = run(capsys, "check", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["checks"] == [[name, True] for name in CHECK_NAMES]


def test_a_failing_check_keeps_its_name(monkeypatch):
    # so the keys of `check --json` change only when a check is added or
    # removed; the failing comparison is named in the detail
    monkeypatch.setattr(selfcheck, "geom_sum", lambda cell, N: geom_sum(cell, N) + 1)
    results = selfcheck.run_all_checks()
    failing = "presburger.sums_vs_enumeration"
    assert [(name, ok) for name, ok, _ in results] == [(name, name != failing) for name in CHECK_NAMES]
    assert results[1][2].startswith("geom_sum ")
    assert all(detail == "" for _, ok, detail in results if ok)
    monkeypatch.setattr(selfcheck, "measure_identity_check", lambda f, prime, m: False)
    name, ok, detail = selfcheck.check_poincare()
    assert (name, ok) == ("poincare.counting_vs_symbolic", False)
    assert detail == "measure identity: x1 p=2 m=0"


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


def test_text_that_is_not_json_is_a_parse_error_at_its_position(capsys, tmp_path, monkeypatch):
    cut = '{"p": 3, "vars": [\n'
    path = tmp_path / "cut.json"
    path.write_text(cut)
    for argv in (("integrate", "1", "--domain"), ("measure",), ("gsum", "--N", "1"), ("wmin",)):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, ""), argv
        assert err == "ParseError: malformed JSON: Expecting value (line 2, column 1)"
    no_comma = tmp_path / "nocomma.json"
    no_comma.write_text('{"center": "0"\n  "lower": -1}')
    code, out, err = run(capsys, "measure", str(no_comma))
    assert (code, out) == (2, "")
    assert err == "ParseError: malformed JSON: Expecting ',' delimiter (line 2, column 3)"
    monkeypatch.setattr(sys, "stdin", io.StringIO(cut))
    code, out, err = run(capsys, "integrate", "1", "--domain", "-")
    assert (code, out, err) == (2, "", "ParseError: malformed JSON: Expecting value (line 2, column 1)")


def test_wrong_json_types_are_named_parse_errors(capsys, tmp_path):
    gamma = {"lower": 0, "upper": 5, "mod": 1, "res": 0}
    cases = [
        ({"p": 2, "vars": 5}, "'vars' must be an array"),
        ({"p": 2, "vars": [{"name": "g1", "sort": "Gamma", "region": 7}]}, "'region' must be an array"),
        ({"p": 2, "vars": [{"name": "g1", "sort": "Gamma", "region": [dict(gamma, lower="a")]}]}, "'lower' must be"),
        ({"p": "3", "vars": []}, "'p' must be an integer"),
        ({"p": 2, "vars": [{"name": "x1", "sort": "K", "region": "ball"}]}, "'ball'"),
        ({"p": 2, "vars": [{"name": "x1", "sort": "K", "region": [dict(UNIT_CELL, center="abc")]}]}, "'center'"),
        ({"p": 2, "vars": [{"name": "x1", "sort": "K", "region": [dict(UNIT_CELL, center="1/0")]}]}, "'center'"),
        # an unknown sort is refused before the region is read, whatever its shape
        ({"p": 2, "vars": [{"name": "x1", "sort": "Q", "region": "unit_ball"}]}, "x1 has the unknown sort 'Q'"),
        ({"p": 2, "vars": [{"name": "x1", "sort": "Q", "region": [gamma]}]}, "x1 has the unknown sort 'Q'"),
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


def test_oracle_options_need_the_oracle(capsys, tmp_path, monkeypatch):
    domfile = write(
        tmp_path, "dom.json",
        {"p": 2, "vars": [{"name": "x1", "sort": "K", "region": "unit_ball"}]},
    )
    symbolic = ("integrate", "q^(-ord(x1))", "--domain", domfile)
    for option, value in (("--depth", "3"), ("--budget", "1"), ("--growth", "9,9,9")):
        code, out, err = run(capsys, *symbolic, option, value)
        assert (code, out) == (2, "")
        assert err == f"ParseError: {option} applies only with --oracle"
    # the oracle reads them, and the environment budget leaves the symbolic engine alone
    code, out, _ = run(capsys, *symbolic, "--oracle", "--depth", "3", "--budget", "100", "--json")
    assert code == 0 and json.loads(out)["depth"] == 3
    monkeypatch.setenv("PADIC_BUDGET", "1")
    assert run(capsys, *symbolic) == (0, "(1 - q^-1) / (1-q^-2) = 2/3 at q = 2", "")


def test_only_a_domain_cell_bound_may_be_an_object(capsys, tmp_path):
    ref = {"var": "g1", "a": 1, "k": 0, "n": 1, "delta": 0}
    cell = {"lower": ref, "upper": None, "mod": 1, "res": 0}
    code, out, err = run(capsys, "gsum", "--N", "1", write(tmp_path, "gcell.json", cell))
    assert (code, out) == (2, "")
    assert err == "ParseError: value-group cell JSON field 'lower' must be an integer or null, not an object"
    code, out, err = run(capsys, "wmin", write(tmp_path, "cells.json", [cell]))
    assert (code, out) == (2, "") and err.startswith("ParseError")
    domain = {"p": 2, "vars": [
        {"name": "g1", "sort": "Gamma", "region": [{"lower": -1, "upper": 3, "mod": 1, "res": 0}]},
        {"name": "g2", "sort": "Gamma", "region": [cell]},
    ]}
    code, out, _ = run(capsys, "integrate", "q^(-lin(1,0,1,0;g2))", "--domain", write(tmp_path, "d.json", domain))
    assert code == 0 and out.endswith("= 7/4 at q = 2")


def test_usage_errors_print_the_usage_of_every_subcommand(capsys):
    usage = "usage: padicint [-h] {ord,ac,measure,gsum,wmin,integrate,poincare,check} ...\n"
    for argv, error in (
        ([], "the following arguments are required: command"),
        (["integ", "x"], "argument command: invalid choice: 'integ'"),
        (["ord", "--p", "2", "1", "--bogus"], "unrecognized arguments: --bogus"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(usage + "padicint: error: " + error), err


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["nosuch"], ["integ", "x"], ["integrate", "--help"], ["integrate"], ["integrate", "x"],
    ["integrate", "x", "--domain", "d.json", "--bogus"], ["integrate", "x", "--domain", "d.json", "--depth", "two"],
    ["integrate", "--orac", "x", "--domain", "d.json"], ["ord", "--p", "2", "12", "extra"], ["ord", "--p=2", "8"],
    ["ac", "--p", "2", "12", "--m", "2", "--json"], ["check", "--guard", "5"], ["--json", "ord", "--p", "2", "1"],
    ["poincare", "--p", "3", "--mmax", "4", "--check", "3", "x1^2"],
    *([name, "--help"] for name in ("ord", "ac", "measure", "gsum", "wmin", "poincare", "check")),
])
def test_main_parses_as_the_parser_of_every_subcommand(capsys, monkeypatch, argv):
    # the arguments main hands to a subcommand, its help texts and its usage
    # errors are those of build_parser(), the one parser of every subcommand
    def outcome(parse_args):
        try:
            result = vars(parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    expected = outcome(cli.build_parser().parse_args)
    parsed = []
    table = {name: (parsed.append, *entry[1:]) for name, entry in cli._SUBCOMMANDS.items()}
    monkeypatch.setattr(cli, "_SUBCOMMANDS", table)
    assert outcome(lambda argv: cli.main(argv) or parsed[-1]) == expected


def test_exact_values_of_any_size_print_and_parse(capsys, tmp_path):
    # 7^6000 has 5,071 digits, past Python's default limit of 4,300 digits on
    # an int <-> str conversion: main lifts the limit and restores the caller's
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        caller_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
    try:
        domfile = write(tmp_path, "dom.json", {"p": 7, "vars": [{"name": "x1", "sort": "K", "region": "unit_ball"}]})
        code, out, err = run(capsys, "integrate", "7^6000", "--domain", domfile, "--json")
        value = json.loads(out)["value"]
        assert (code, err, len(value)) == (0, "", 5071)
        code, out, _ = run(capsys, "integrate", "7^6000", "--domain", domfile)
        assert code == 0 and out == f"{value} = {value} at q = 7"
        assert run(capsys, "ord", "--p", "7", value) == (0, "6000", "")
        assert not limited or sys.get_int_max_str_digits() == 4300
    finally:
        if limited:
            sys.set_int_max_str_digits(caller_limit)
