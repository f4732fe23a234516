import importlib
import json
import math
import pkgutil
import time
from pathlib import Path

import pytest

import dsums
from dsums import cli, eisenstein, meansquare, verify
from dsums.cli import _intexpr, main
from dsums.verify import VerifyReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dedekind_fast(capsys):
    code, out, _ = run(capsys, "dedekind", "2", "7")
    assert code == 0 and out.strip() == "1/14"


def test_dedekind_closed_form_case(capsys):
    code, out, _ = run(capsys, "dedekind", "1", "9")
    assert code == 0 and out.strip() == "14/27"


def test_dedekind_naive_flag(capsys):
    code, out, _ = run(capsys, "dedekind", "4", "27", "--naive")
    assert code == 0 and out.strip() == "73/162"


def test_dedekind_decimal(capsys):
    code, out, _ = run(capsys, "dedekind", "1", "9", "--decimal", "6")
    assert code == 0 and out.strip() == "0.518518"


def test_dedekind_non_coprime_is_usage_error(capsys):
    code, _, err = run(capsys, "dedekind", "2", "8")
    assert code == 2 and "not coprime" in err


def test_survey_json(capsys):
    code, out, _ = run(capsys, "survey", "--n", "9", "--limit", "1e4")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"n": 9, "range": "p <= 10000", "c_prime": 203, "c_leq0": 116, "rho": blob["rho"]}
    assert blob["rho"].startswith("0.5")


def test_survey_csv_out(capsys):
    code, out, _ = run(capsys, "survey", "--n", "5", "--limit", "3000", "--out", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,range,c_prime,c_leq0,rho"
    assert row.startswith("5,p <= 3000,")


def test_survey_empty_range(capsys):
    code, out, _ = run(capsys, "survey", "--n", "9", "--limit", "0")
    assert code == 0
    assert json.loads(out) == {"n": 9, "range": "p <= 0", "c_prime": 0, "c_leq0": 0, "rho": "undefined"}
    code, out, _ = run(capsys, "survey", "--n", "9", "--limit", "0", "--out", "csv")
    assert code == 0 and out.strip().splitlines()[1] == "9,p <= 0,0,0,undefined"


def test_survey_records_and_checkpoint(tmp_path, capsys):
    rc = str(tmp_path / "r.csv")
    ck = str(tmp_path / "c.json")
    code, out, _ = run(capsys, "survey", "--n", "9", "--limit", "5000",
                       "--records", rc, "--checkpoint", ck)
    assert code == 0
    assert Path(rc).read_text().splitlines()[0] == "p,n,two_S,N,nonpositive"
    assert json.loads(Path(ck).read_text())["last_p"] == 5000


def test_survey_rerun_without_its_records_exits_2(tmp_path, capsys):
    rc, ck = str(tmp_path / "r.csv"), str(tmp_path / "c.json")
    assert run(capsys, "survey", "--n", "9", "--limit", "5000", "--records", rc, "--checkpoint", ck)[0] == 0
    code, out, err = run(capsys, "survey", "--n", "9", "--limit", "5000", "--checkpoint", ck)
    assert (code, out) == (2, "") and err.startswith("error: checkpoint") and "Traceback" not in err


def test_verify_seed_goes_with_the_seeded_suites(capsys):
    for suite in ("reciprocity", "denominators"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-modulus", "60", "--seed", "5")
        assert code == 0 and out.startswith(f"suite {suite}:")


def test_survey_all_odd(capsys):
    code, out, _ = run(capsys, "survey", "--all-odd", "--limit", "7")
    blob = json.loads(out)
    assert code == 0 and blob["n"] == "all" and blob["c_prime"] == 4


def test_survey_all_odd_takes_the_scan_options(capsys, tmp_path):
    outs = []
    for threads in ("1", "2"):
        rc, ck = str(tmp_path / f"r{threads}.csv"), str(tmp_path / f"c{threads}.json")
        code, out, _ = run(capsys, "survey", "--all-odd", "--limit", "3000", "--threads", threads,
                           "--records", rc, "--checkpoint", ck)
        assert code == 0 and json.loads(Path(ck).read_text())["n"] is None
        outs.append((out, Path(rc).read_text()))
    assert outs[0] == outs[1] and json.loads(outs[0][0])["c_prime"] == 2002


def test_tables_row(capsys):
    code, out, _ = run(capsys, "tables", "--table", "rho9", "--limit", "1e4")
    assert code == 0 and out.strip() == "10^4 | 203 | 116 | 0.57142..."
    code, out, _ = run(capsys, "tables", "--table", "rho9", "--limit", "0")  # an empty range, not the default
    assert code == 0 and out.strip() == "0 | 0 | 0 | undefined"
    code, out, _ = run(capsys, "tables", "--table", "rho9-window", "--from", "1e6", "--span", "0")
    assert code == 0 and out.strip() == "10^6 | 0 | 0 | 0 | undefined"


def test_tables_window_requires_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["tables", "--table", "rho9-window"])


def test_verify_suite_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kernel-theorem")
    assert code == 0
    assert "kernel-theorem" in out and "passed" in out
    for suite in ("kernel-theorem", "eisenstein"):  # no case fits under 5: nothing verified is a failure
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-modulus", "5")
        assert code == 1 and out == f"suite {suite}: 0/0 checks passed\n"


def test_verify_counts_a_failed_audit_as_a_failed_check(capsys, monkeypatch):
    # with s(2,7) broken, the divisor check fails for the ratio 2 mod 7
    good = verify.dedekind_sum
    monkeypatch.setattr(verify, "dedekind_sum", lambda c, d: good(c, d) + ((c, d) == (2, 7)))
    code, out, err = run(capsys, "verify", "--suite", "eisenstein", "--max-modulus", "100")
    assert code == 1 and err == ""
    head, failure = out.splitlines()
    assert head == "suite eisenstein: 96/100 checks passed"  # each check counted once, as when all pass
    assert failure == "  first failure: s(2 mod 7, 7) = 15/14 != 1/14"


def test_verify_counts_an_escaped_audit_as_a_failed_check(capsys, monkeypatch):
    # with 2 mod 7 read as order 1, e_f's audit raises once per loop over f = 7
    good = eisenstein.element_order
    monkeypatch.setattr(eisenstein, "element_order", lambda r, f: 1 if (r, f) == (2, 7) else good(r, f))
    code, out, err = run(capsys, "verify", "--suite", "eisenstein", "--max-modulus", "100")
    assert (code, err) == (1, "")
    assert out == "suite eisenstein: 91/93 checks passed\n  first failure: ratio 2 mod 7 not of order 3\n"
    monkeypatch.undo()

    def broken_mask(sub):
        raise ArithmeticError(f"character count mismatch mod {sub.modulus}")

    monkeypatch.setattr(meansquare, "odd_character_mask", broken_mask)  # every numeric mean square fails
    code, out, err = run(capsys, "verify", "--suite", "mean-square", "--max-modulus", "100")
    assert (code, err) == (1, "")
    assert out == "suite mean-square: 731/776 checks passed\n  first failure: character count mismatch mod 5\n"
    monkeypatch.undo()
    # an audit that fails before the suite's first check (cross_check_pairs reads E_91) ends the suite
    monkeypatch.setattr(eisenstein, "element_order", lambda r, f: 1 if f == 91 else good(r, f))
    code, out, err = run(capsys, "verify", "--suite", "mean-square")
    assert (code, err) == (1, "")
    assert out == "suite mean-square: 0/1 checks passed\n  first failure: ratio 9 mod 91 not of order 3\n"


def test_verify_json(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--suite", "kernel-theorem", "--json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["suite"] == "kernel-theorem" and rep["ok"] and rep["passed"] == rep["run"] > 0
    assert rep["first_failure"] is None and rep["seconds"] >= 0
    failing = VerifyReport("demo", 2, 1, "case 2", 0.5)
    monkeypatch.setattr(cli, "run_suite", lambda *args: [failing])
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 1
    assert json.loads(out) == [{"suite": "demo", "run": 2, "passed": 1, "first_failure": "case 2",
                                "seconds": 0.5, "ok": False}]
    code, out, _ = run(capsys, "verify")
    assert code == 1 and out == "suite demo: 1/2 checks passed\n  first failure: case 2\n"


def test_ef_json(capsys):
    code, out, _ = run(capsys, "ef", "--f", "91")
    assert code == 0
    blob = json.loads(out)
    assert blob["ratios"] == [9, 16, 74, 81]
    assert blob["representations"] == [[9, 1], [6, 5]]
    assert sorted(map(tuple, blob["subgroups"])) == [(1, 9, 81), (1, 16, 74)]
    assert blob["closed_form_tilde_S"] == "666/91"
    assert all(blob["closed_form_holds"].values())


def test_ef_rejects_bad_modulus(capsys):
    code, _, err = run(capsys, "ef", "--f", "15")
    assert code == 2 and "not 1 mod 3" in err


def test_class_number_json(capsys):
    code, out, _ = run(capsys, "class-number", "--p", "13", "--degree", "4")
    assert code == 0
    blob = json.loads(out)
    assert blob["h_minus"] == 1 and blob["satisfied"]
    assert blob["bound_eq10"] > 0


def test_class_number_bounds_beyond_float_range(capsys, monkeypatch):
    # the full-field 2p (p/24)^((p-1)/4) passes 1e308 near p = 1000; h^- is stubbed, the decision stays exact
    monkeypatch.setattr(cli, "relative_class_number", lambda p, m: 1)
    code, out, _ = run(capsys, "class-number", "--p", "1009")
    blob = json.loads(out)
    assert code == 0 and blob["satisfied"]
    assert blob["bound_eq10"] == blob["bound_eq12_or_13"] == math.inf


def test_class_number_beyond_the_crt_primes_exits_2(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "class-number", "--p", "1000003")
    assert code == 2 and out == "" and "Traceback" not in err and "primes l = 1" in err
    assert time.perf_counter() - t0 < 10


def test_mean_square_json(capsys):
    code, out, _ = run(capsys, "mean-square", "--f", "7", "--order", "3", "--numeric")
    assert code == 0
    blob = json.loads(out)
    assert blob["subgroup"] == [1, 2, 4]
    assert blob["S"] == "1/2" and blob["tilde_S"] == "1/2"
    assert blob["M"]["coef_num"] == 1 and blob["M"]["coef_den"] == 7
    assert abs(blob["M_numeric"] - 1.4099434859) < 1e-9


def test_mean_square_kernel(capsys):
    code, out, _ = run(capsys, "mean-square", "--f", "9", "--kernel", "3")
    blob = json.loads(out)
    assert code == 0 and blob["M"] == {"coef_num": 1, "coef_den": 27,
                                       "approx_decimal": blob["M"]["approx_decimal"]}


@pytest.mark.parametrize("argv, elements", [
    (["--elements", "1,9,81"], [1, 9, 81]),
    (["--gen", "9"], [1, 9, 81]),
    ([], [1]),  # the trivial H by default
])
def test_mean_square_subgroup_options(capsys, argv, elements):
    code, out, _ = run(capsys, "mean-square", "--f", "91", *argv)
    blob = json.loads(out)
    assert code == 0 and blob["subgroup"] == elements
    assert (blob["M"]["coef_num"], blob["M"]["coef_den"]) == ((1332, 8281) if len(elements) == 3 else (1308, 8281))


def test_survey_window(capsys):
    code, out, _ = run(capsys, "survey", "--from", "1e4", "--span", "1e4")
    assert code == 0
    assert json.loads(out) == {"n": 9, "range": "10000 <= p <= 20000", "c_prime": 169, "c_leq0": 92,
                               "rho": "0.54437"}


@pytest.mark.parametrize("text, value", [("1e23", 10**23), ("10**5", 10**5), ("25e4", 250000), ("7", 7)])
def test_intexpr_is_exact(text, value):
    assert _intexpr(text) == value


@pytest.mark.parametrize("argv, threads_env", [
    (["survey", "--limit", "10**-1"], None),
    (["survey", "--limit", "1e400"], None),
    (["survey", "--limit", "100"], "x"),
    (["survey", "--limit", "100", "--threads", "0"], None),
    (["tables", "--table", "rho9-window"], None),
    (["survey", "--from", "100"], None),
    (["survey", "--all-odd", "--from", "100", "--records", "r.csv"], None),
    (["survey", "--all-odd", "--limit", "2**50", "--checkpoint", "c.json"], None),
    (["survey", "--all-odd", "--limit", "7", "--threads", "0"], None),
    (["class-number", "--p", "7", "--degree", "0"], None),
    (["survey", "--limit", "2**50"], None),
    (["class-number", "--p", "7", "--dps", "80"], None),
    # options that the chosen scan would ignore
    (["tables", "--table", "rho5", "--from", "10", "--span", "100"], None),
    (["tables", "--table", "rho9-window", "--from", "1e3", "--span", "1e3", "--limit", "7"], None),
    (["survey", "--from", "100", "--span", "50", "--limit", "7"], None),
    (["survey", "--all-odd", "--n", "5"], None),
    # options that would go unread or out of range
    (["mean-square", "--f", "7", "--gen", "2", "--order", "3"], None),
    (["dedekind", "1", "9", "--decimal", "-1"], None),
    (["verify", "--max-modulus", "0"], None),
    (["verify", "--suite", "kernel-theorem", "--max-modulus", "1"], None),
    (["verify", "--suite", "kernel-theorem", "--seed", "5"], None),  # a suite that draws no random cases
    # paths where no file can be written
    (["survey", "--n", "9", "--limit", "1e3", "--records", "."], None),
    (["survey", "--n", "9", "--limit", "1e3", "--checkpoint", "."], None),
    (["survey", "--n", "9", "--limit", "1e3", "--records", "missing/r.csv"], None),
    (["survey", "--n", "9", "--limit", "1e3", "--checkpoint", "missing/c.json"], None),
    (["survey", "--n", "9", "--limit", "1e3", "--records", ""], None),
    (["survey", "--n", "9", "--limit", "1e3", "--checkpoint", ""], None),
    (["verify", "--suite", "class-number", "--max-modulus", "100"], None),  # a suite with no size
    # digits other than ASCII ones (int() reads ARABIC-INDIC ONE as 1)
    (["tables", "--table", "rho9", "--limit", "\u0661e3"], None),
    (["survey", "--limit", "1e\u0663"], None),
    (["survey", "--limit", "100", "--threads", "\u0661"], None),
    (["survey", "--limit", "100"], "\u0661"),
    # plain integers take ASCII digits and a sign only: no other digits, "_" or spaces
    (["dedekind", "\u0661", "\u0669"], None),
    (["dedekind", "1", "9", "--decimal", "\u0663"], None),
    (["class-number", "--p", " 2_3"], None),
    (["class-number", "--p", "13", "--degree", "4 "], None),
    (["survey", "--n", "\u0669", "--limit", "1e3"], None),
    (["verify", "--suite", "reciprocity", "--seed", "1_0"], None),
    (["ef", "--f", "9\u0661"], None),
    (["mean-square", "--f", "91", "--gen", "\u0669"], None),
    (["mean-square", "--f", "7", "--order", "\u0663"], None),
    (["mean-square", "--f", "9", "--kernel", "\u0663"], None),
    (["mean-square", "--f", "91", "--elements", "1,\u0669,81"], None),
    (["mean-square", "--f", "91", "--elements", "1, 9, 81"], None),
])
def test_bad_input_exits_2_without_traceback(capsys, monkeypatch, tmp_path, argv, threads_env):
    monkeypatch.chdir(tmp_path)
    if threads_env is not None:
        monkeypatch.setenv("DSUMS_THREADS", threads_env)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2 and "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_every_export_resolves():
    modules = [importlib.import_module(f"dsums.{m.name}") for m in pkgutil.iter_modules(dsums.__path__)]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert len({mod.__name__ for mod, _ in exported}) == 8
    assert [(mod.__name__, name) for mod, name in exported if not hasattr(mod, name)] == []
