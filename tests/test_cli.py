"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import doctest
import inspect
import json
import math
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from twinlcs import cli
from twinlcs.bounds import union_bound
from twinlcs.cli import build_parser, load_word, main
from twinlcs.constructions import FAMILY_BUILDERS
from twinlcs.experiments import ExperimentConfig
from twinlcs.lcs import _SUBSET_CELLS, DEFAULT_BUDGET_CELLS
from twinlcs.perm import minimize_expected_lcs
from twinlcs.twins import DEFAULT_NODE_BUDGET
from twinlcs.verify import verify_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- words in and out ------------------------------------------------------------


def test_lcs_pair(capsys):
    code, out, _ = run(capsys, "lcs", "1212", "2121")
    assert code == 0
    assert "length: 3" in out
    assert "common: k=2;w=1,2,1" in out
    assert "first: 0 1 2" in out


def test_lcs_json_envelope(capsys):
    code, out, _ = run(capsys, "--json", "lcs", "1212", "2121")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["length"] == 3


# a command that reads each setting
_READER = {"--seed": ("experiment", "conjecture", "--k", "2",
                     "--starts", "1"),
           "--budget-cells": ("lcs", "1212", "2121"),
           "--budget-nodes": ("twins", "0110010010101101")}


@pytest.mark.parametrize("flag", list(_READER))
def test_global_flags_after_subcommand(tmp_path, capsys, flag):
    # --json and --out go on either side of the command, the setting after it
    argv = (*_READER[flag], flag, "777")
    dest = flag[2:].replace("-", "_")
    assert getattr(build_parser().parse_args(argv), dest) == 777
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    code_a, out_a, _ = run(capsys, "--json", "--out", str(before), *argv)
    code_b, out_b, _ = run(capsys, *argv, "--out", str(after), "--json")
    code_c, out_c, _ = run(capsys, "--out", str(after), *argv, "--json")
    code_d, out_d, _ = run(capsys, "--json", *argv)
    assert code_a == code_b == code_c == code_d == 0
    assert out_a == out_b == out_c == ""
    assert before.read_text() == after.read_text() == out_d
    assert json.loads(out_d)["schema_version"] == 1


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "res.json"
    code, out, _ = run(capsys, "--json", "--out", str(target),
                       "lcs", "1212", "2121")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["length"] == 3


def test_word_from_file(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("k=2;w=1,2,1,2\n")
    code, out, _ = run(capsys, "lcs", f"@{path}", "2121")
    assert code == 0
    assert "length: 3" in out
    assert load_word(f"@{path}").letters == (1, 2, 1, 2)


def test_missing_word_file(capsys):
    code, _, err = run(capsys, "lcs", "@/nonexistent/word", "12")
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize("argv", [
    ("lcs", "@{dir}", "12"),
    ("lcs", "12", "12", "--out", "{dir}"),
])
def test_directory_as_file_exits_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Is a directory" in err


@pytest.mark.parametrize("argv", [
    ("twins", "0110", "--budget-nodes", "-5"),
    ("lcs", "12", "21", "--budget-cells", "0"),
])
def test_non_positive_budget_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: budgets must be positive\n")


def test_bad_word_literal(capsys):
    code, _, err = run(capsys, "lcs", "1,2", "12")
    assert code == 2
    assert "malformed word literal" in err


def test_lcs_set(capsys):
    code, out, _ = run(capsys, "lcs-set", "123", "321", "213", "--t", "2")
    assert code == 0
    assert "joint value: 2" in out
    assert "best subset: 0 2" in out


# -- twins -------------------------------------------------------------------------


def test_twins_exact_default(capsys):
    code, out, _ = run(capsys, "twins", "0110010010101101")
    assert code == 0
    assert "length: 7" in out
    assert "roles: 0120111211221222" in out


def test_twins_oracle_matches(capsys):
    _, exact_out, _ = run(capsys, "twins", "011001001010")
    code, oracle_out, _ = run(capsys, "twins", "011001001010", "--oracle")
    assert code == 0
    exact_len = next(l for l in exact_out.splitlines() if "length" in l)
    oracle_len = next(l for l in oracle_out.splitlines() if "length" in l)
    assert exact_len == oracle_len


def test_twins_heuristics(capsys):
    code, out, _ = run(capsys, "twins", "111222", "--runs")
    assert code == 0
    assert "length: 2" in out
    code, out, _ = run(capsys, "twins", "121221122112", "--blocks")
    assert code == 0
    assert "block values" in out


def test_twins_budget_exceeded(capsys):
    word = "123412341234123412341234123412341234"
    code, _, err = run(capsys, "twins", word, "--budget-nodes", "10")
    assert code == 3
    assert "budget" in err.lower()


def test_twins_oracle_budget_exceeded(capsys):
    # twin length 11: the m=11 role table would hold 276 * Catalan(11) rows
    word = "000001111100000111110001"
    code, out, err = run(capsys, "twins", word, "--oracle",
                         "--max-length", "24")
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded: twin oracle at n=24, m=11 ")


@pytest.mark.parametrize("method", ["--exact", "--oracle"])
@pytest.mark.parametrize("limit", ["0", "3"])
def test_twins_explicit_max_length_is_honoured(capsys, method, limit):
    code, out, err = run(capsys, "twins", "0110", method, "--max-length", limit)
    assert code == 2
    assert out == ""
    assert f"length <= {limit}, got 4" in err


# -- constructions -----------------------------------------------------------------


def test_construct_with_check(capsys):
    code, out, _ = run(capsys, "construct", "cube", "--n", "2", "--check")
    assert code == 0
    assert "family: cube" in out
    assert out.count("ok") >= 6


def test_construct_grid_auto(capsys):
    code, out, _ = run(capsys, "construct", "grid", "--k", "9", "--s", "2",
                       "--check")
    assert code == 0
    assert "k1=3 k2=3" in out
    assert "lcs[0, 1] <= 6: value 6 ok" in out


def test_construct_not_prime(capsys):
    code, _, err = run(capsys, "construct", "quadratic", "--p", "4")
    assert code == 2
    assert "not prime" in err


CONSTRUCT_GOLDEN = {
    "quadratic --p 2 --k 6": """\
family: quadratic
params: p=2 k=6
words: 2
  k=6;w=1,5,3,2,6,4
  k=6;w=1,6,4,2,5,3
ceilings: 1
  lcs[0, 1] <= 6
""",
    "cube --n 2": """\
family: cube
params: n=2
words: 4
  k=8;w=1,2,3,4,5,6,7,8
  k=8;w=7,8,5,6,3,4,1,2
  k=8;w=6,5,8,7,2,1,4,3
  k=8;w=4,3,2,1,8,7,6,5
ceilings: 6
  lcs[0, 1] <= 2
  lcs[0, 2] <= 2
  lcs[0, 3] <= 2
  lcs[1, 2] <= 2
  lcs[1, 3] <= 2
  lcs[2, 3] <= 2
""",
    "grid --s 2 --k1 2 --k2 1": """\
family: grid
params: k=2 s=2 k1=2 k2=1 auto=False
words: 2
  k=2;w=1,1,2,2
  k=2;w=1,1,2,2
ceilings: 2
  lcs[0, 1] <= 4
  rev[0, 1] <= 2
""",
    "multiperm --s 1 --k 4": """\
family: multiperm
params: s=1 k=4 k1=2 k2=1 k3=2 auto=True
words: 4
  k=4;w=1,2,3,4
  k=4;w=3,4,1,2
  k=4;w=4,3,2,1
  k=4;w=2,1,4,3
ceilings: 6
  lcs[0, 1] <= 2
  lcs[2, 3] <= 2
  lcs[0, 3] <= 2
  lcs[1, 2] <= 2
  lcs[0, 2] <= 1
  lcs[1, 3] <= 1
""",
    "tuplet --t 2 --kappa 2 --check": """\
family: tuplet
params: t=2 kappa=2 k=8
words: 4
  k=8;w=8,7,6,5,4,3,2,1
  k=8;w=2,1,4,3,6,5,8,7
  k=8;w=3,4,1,2,7,8,5,6
  k=8;w=5,6,7,8,1,2,3,4
ceilings: 6
  set[0, 1] <= 2: value 2 ok
  set[0, 2] <= 2: value 2 ok
  set[0, 3] <= 2: value 2 ok
  set[1, 2] <= 2: value 2 ok
  set[1, 3] <= 2: value 2 ok
  set[2, 3] <= 2: value 2 ok
""",
    "stratified --k 2 --n 8 --ms 1,4 --check": """\
family: stratified
params: k=2 n=8 ms=(1, 4)
words: 5
  k=2;w=1,2,1,2,1,2,1,2
  k=2;w=1,1,1,1,2,2,2,2
  k=2;w=1,1,1,1,1,1,1,1
  k=2;w=2,2,2,2,2,2,2,2
  k=2;w=2,2,2,2,1,1,1,1
ceilings: 9
  lcs[0, 1] <= 6: value 5 ok
  lcs[2, 3] <= 0: value 0 ok
  lcs[0, 2] <= 4: value 4 ok
  lcs[0, 3] <= 4: value 4 ok
  lcs[1, 2] <= 4: value 4 ok
  lcs[1, 3] <= 4: value 4 ok
  lcs[2, 4] <= 4: value 4 ok
  lcs[3, 4] <= 4: value 4 ok
  lcs[1, 4] <= 4: value 4 ok
""",
}


def test_construct_golden_every_family(capsys):
    assert {cmd.split()[0] for cmd in CONSTRUCT_GOLDEN} == set(FAMILY_BUILDERS)
    for cmd, expected in CONSTRUCT_GOLDEN.items():
        assert run(capsys, "construct", *cmd.split()) == (0, expected, ""), cmd


def test_construct_json_golden(capsys):
    code, out, err = run(capsys, "--json", "construct", "grid", "--s", "1",
                         "--k1", "2", "--k2", "1", "--check")
    assert (code, err) == (0, "")
    lcs_ceiling = {"bound": 2, "indices": [0, 1], "mode": "lcs"}
    rev_ceiling = {"bound": 1, "indices": [0, 1], "mode": "rev"}
    assert json.loads(out) == {
        "schema_version": 1, "family": "grid",
        "params": {"auto": False, "k": 2, "k1": 2, "k2": 1, "s": 1},
        "words": [{"k": 2, "letters": [1, 2]}, {"k": 2, "letters": [1, 2]}],
        "ceilings": [lcs_ceiling, rev_ceiling],
        "checks": [{"ceiling": lcs_ceiling, "ok": True, "value": 2},
                   {"ceiling": rev_ceiling, "ok": True, "value": 1}]}


# One --json document per result type that no other test pins, without the
# schema_version key; the dump sorts keys, so equal documents print equal bytes.
JSON_GOLDEN = {
    "lcs 12312 21321 --reversible": {
        "detail": {"indices": [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]],
                   "length": 5, "word": "k=3;w=1,2,3,1,2"},
        "length": 5, "orientation": "reverse"},
    "lcs-set 1212 2121 1122 --t 3": {
        "best_subset": [0, 1, 2],
        "pairwise": [[4, 3, 3], [3, 4, 2], [3, 2, 4]], "t": 3, "value": 2},
    "twins 0110010010101101": {
        "first": [1, 4, 5, 6, 8, 9, 12], "length": 7, "monotone": True,
        "roles": "0120111211221222", "second": [2, 7, 10, 11, 13, 14, 15],
        "word": {"k": 2, "letters": [1, 2, 2, 1, 1, 2, 1, 1, 2, 1, 2, 1, 2,
                                     2, 1, 2]}},
    "twins 112122112212211221 --blocks": {
        "block_values": [1, 1, 1],
        "certificate": {
            "first": [0, 6, 12], "length": 3, "monotone": True,
            "roles": "120000120000100020", "second": [1, 7, 16],
            "word": {"k": 2, "letters": [1, 1, 2, 1, 2, 2, 1, 1, 2, 2, 1, 2,
                                         2, 1, 1, 2, 2, 1]}},
        "floor_met": True, "per_block_floor": 0.8735804647362989},
    "bound threshold --k 4": {
        "alpha": 0.49315688037872313,
        "bracket": [0.4931568794250488, 0.49315688037872313], "k": 4,
        "theta": -2.313046822653708e-09},
    "bound constants --k 3": {
        "asymptotic": {"coarse": -0.8936179542494518, "k": 3,
                       "leading": 1.569400745394098,
                       "refined": -1.0602846209161187},
        "lower_bounds": {
            "improved": "17/50", "k": 3, "linear_offset": 1.0,
            "linear_slope": 0.11111111111111113,
            "minmax": {"exact_value": 0.3416876048223001,
                       "exact_x": 0.3166247903553998,
                       "value": 0.34168760482230004,
                       "x": 0.3166247903553999},
            "per_letter": "1/3"}},
    "verify bounds": {
        "checks": [
            {"detail": "k=4 alpha=0.493157, k=5 alpha=0.479976",
             "name": "density thresholds", "ok": True},
            {"detail": "theta stays negative up to 1/2",
             "name": "exponent negative above threshold", "ok": True},
            {"detail": "threshold below coarse form at k=4000, gap "
                       "19.3k^-3/2",
             "name": "asymptotic ordering", "ok": True},
            {"detail": "min-max constant 0.341687605",
             "name": "lower-bound constants", "ok": True}],
        "ok": True, "suite": "bounds"},
}


@pytest.mark.parametrize("cmd", JSON_GOLDEN)
def test_json_golden(capsys, cmd):
    code, out, err = run(capsys, "--json", *cmd.split())
    assert (code, err) == (0, "")
    assert out == json.dumps({"schema_version": 1, **JSON_GOLDEN[cmd]},
                             indent=2, sort_keys=True) + "\n"


def test_construct_bad_ms_exits_2(capsys):
    code, out, err = run(capsys, "construct", "stratified", "--k", "2",
                         "--n", "8", "--ms", "1,x")
    assert (code, out) == (2, "")
    assert err == ("error: --ms expects comma-separated integers: invalid "
                   "literal for int() with base 10: 'x'\n")


def test_construct_tuplet_k_prints_the_words_it_checks(capsys):
    code, out, err = run(capsys, "--json", "construct", "tuplet", "--t", "3",
                         "--kappa", "3", "--k", "40", "--check")
    doc = json.loads(out)
    assert (code, err) == (0, "") and doc["params"]["k"] == 40
    assert [len(w["letters"]) for w in doc["words"]] == [40] * 6
    assert all(w["k"] == 40 for w in doc["words"])
    assert [c["value"] for c in doc["checks"]] == [3, 3, 3, 2, *[1] * 12,
                                                   2, 3, 3, 3]


@pytest.mark.parametrize("k", ["0", "-3", "1025"])
def test_construct_tuplet_k_outside_its_letters_exits_2(capsys, k):
    # k = 0 would delete every letter, so each set ceiling would read 0;
    # the family has 2^10 letters
    code, out, err = run(capsys, "construct", "tuplet", "--t", "3",
                         "--kappa", "2", "--check", "--k", k)
    assert (code, out) == (2, "")
    assert err == f"error: k must lie in [1, 1024], got {k}\n"


def test_construct_k_with_explicit_sides_exits_2(capsys):
    code, out, err = run(capsys, "construct", "grid", "--k", "5", "--k1", "3",
                         "--k2", "3")
    assert (code, out) == (2, "")
    assert err == "error: give k, or k1 and k2, not both\n"


def _subparsers(parser):
    return next((action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), {})


def test_construct_subcommands_are_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["construct", "--help"])
    names = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1)
    assert set(names.split(",")) == set(FAMILY_BUILDERS)
    # each family's options are its builder's parameters, with their
    # defaults, and its help shows the builder's docstring
    families = _subparsers(_subparsers(build_parser())["construct"])
    shared = {"help", "check", "budget_cells", "json", "out"}
    for name, build in FAMILY_BUILDERS.items():
        params = inspect.signature(build).parameters.values()
        expected = {p.name: (p.default is p.empty,
                             None if p.default is p.empty else p.default)
                    for p in params}
        options = {a.dest: (a.required, a.default)
                   for a in families[name]._actions if a.dest not in shared}
        assert options == expected, name
        assert inspect.getdoc(build) in families[name].format_help(), name


def test_only_families_with_joint_ceilings_take_the_cell_budget(capsys):
    # checking a joint ("set") ceiling is the only family check that
    # charges the cell budget; the goldens build one instance of each family
    families = _subparsers(_subparsers(build_parser())["construct"])
    for cmd in CONSTRUCT_GOLDEN:
        code, out, _ = run(capsys, "--json", "construct", *cmd.split())
        joint = any(c["mode"] == "set" for c in json.loads(out)["ceilings"])
        dests = {a.dest for a in families[cmd.split()[0]]._actions}
        assert code == 0 and ("budget_cells" in dests) == joint, cmd


def test_construct_over_the_letter_cap_exits_3(capsys):
    # np.indices alone would take 3 * 1009**3 int64, about 25 GB
    code, out, err = run(capsys, "construct", "quadratic", "--p", "1009")
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: family needs 1036488922561 ")


# -- bounds ------------------------------------------------------------------------


def test_bound_threshold(capsys):
    code, out, _ = run(capsys, "bound", "threshold", "--k", "4")
    assert code == 0
    assert "alpha: 0.493156880" in out

    code, out, _ = run(capsys, "bound", "threshold", "--k", "2")
    assert code == 0
    assert "certifies nothing" in out


def test_bound_theta(capsys):
    code, out, _ = run(capsys, "bound", "theta", "--alpha", "0.5", "--k", "2")
    assert code == 0
    assert "theta(0.5, 2) = 0.188226406" in out
    assert "match: 0.346573590" in out


def test_bound_theta_domain_error(capsys):
    code, _, err = run(capsys, "bound", "theta", "--alpha", "0.1", "--k", "4")
    assert code == 2
    assert "error" in err


def test_bound_union_count_prob(capsys):
    code, out, _ = run(capsys, "bound", "union", "--k", "2", "--n", "12",
                       "--m", "6")
    assert code == 0
    assert "8989/4096" in out

    code, out, _ = run(capsys, "bound", "count", "--n", "12", "--m", "4",
                       "--p", "2", "--z", "1")
    assert code == 0
    assert "5940" in out

    code, out, _ = run(capsys, "bound", "prob", "--k", "2", "--roles",
                       "012112021200")
    assert code == 0
    assert "1/512" in out

    code, _, err = run(capsys, "bound", "prob", "--k", "2")
    assert code == 2
    assert "--roles" in err

    code, out, err = run(capsys, "bound", "union", "--k", "0", "--n", "1",
                         "--m", "1")
    assert (code, out) == (2, "")
    assert err == "error: alphabet size must be >= 1, got 0\n"


def test_bound_count_writes_its_count_once(monkeypatch, capsys):
    # each form charges the count's text, then converts it once: under
    # --json in main, with no text line built
    events = []
    charge, lift = cli.check_budget, cli._integer_text_of_any_size
    monkeypatch.setattr(cli, "check_budget", lambda *args, **kwargs: (
        events.append("charge") or charge(*args, **kwargs)))
    monkeypatch.setattr(cli, "_integer_text_of_any_size", lambda: (
        events.append("convert") or lift()))
    argv = ["bound", "count", "--n", "12", "--m", "4", "--p", "2", "--z", "1"]
    for head in ([], ["--json"]):
        events.clear()
        code, out, _ = run(capsys, *head, *argv)
        assert code == 0 and events == ["charge", "convert"], head
    assert json.loads(out)["count"] == 5940


def test_bound_union_past_the_float_range(capsys):
    # at k = 2 and m = 470 the bound still fits a float at n = 1330, not at
    # n = 1340
    code, out, _ = run(capsys, "bound", "union", "--k", "2", "--n", "1330",
                       "--m", "470")
    assert code == 0 and out.endswith(" ~ 1.23273e+306\n")
    code, out, _ = run(capsys, "bound", "union", "--k", "2", "--n", "1340",
                       "--m", "470")
    exact = union_bound(2, 1340, 470)
    assert code == 0 and out == f"union bound: {exact}\n"
    code, out, _ = run(capsys, "--json", "bound", "union", "--k", "2",
                       "--n", "1340", "--m", "470")
    doc = json.loads(out)
    assert code == 0 and doc["float"] is None
    assert Fraction(doc["bound"]) == exact > 10**308


@pytest.mark.parametrize("what, values", [
    ("union", {"k": 10**30, "n": 500, "m": 3}),
    ("prob", {"k": 10**30, "n": 5000, "m": 3, "p": 0, "z": 0}),
    ("count", {"n": 100000, "m": 30000, "p": 1000, "z": 0}),
])
def test_exact_values_of_any_size(monkeypatch, capsys, what, values):
    # 29,951, 299,754 and 33,044 bytes of text, past Python's cap of 4300
    # digits for integer text; the value is computed once, for both runs
    name, key, label = {"union": ("union_bound", "bound", "union bound"),
                        "prob": ("role_prob", "probability", "probability"),
                        "count": ("role_count", "count", "role words")}[what]
    computed = cache(getattr(cli, name))
    monkeypatch.setattr(cli, name, computed)
    argv = ["bound", what]
    for field, value in values.items():
        argv += [f"--{field}", str(value)]
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = cap()
    code, out, _ = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, "--json", *argv)
    assert code == json_code == 0 and cap() == before
    with cli._integer_text_of_any_size():
        expected = str(computed(*values.values()))
        assert out.split(" ~ ")[0].rstrip("\n") == f"{label}: {expected}"
        assert str(json.loads(json_out)[key]) == expected
    assert len(expected) > 4300 and cap() == before


def test_bound_constants(capsys):
    code, out, _ = run(capsys, "bound", "constants", "--k", "3")
    assert code == 0
    assert "per-letter: 1/3" in out
    assert "improved: 17/50" in out
    assert "min-max constant: 0.341687605" in out


@pytest.mark.parametrize("k", ["2", "7"])
def test_bound_constants_minmax_only_at_k3(capsys, k):
    code, out, _ = run(capsys, "bound", "constants", "--k", k)
    assert code == 0
    assert "min-max constant: n/a\n" in out
    code, out, _ = run(capsys, "--json", "bound", "constants", "--k", k)
    assert json.loads(out)["lower_bounds"]["minmax"] is None


# -- experiments ---------------------------------------------------------------------


def test_experiment_lt_tail_exhaustive(capsys):
    code, out, _ = run(capsys, "experiment", "lt-tail", "--k", "2", "--n",
                       "12", "--alpha", "0.5")
    assert code == 0
    assert "method: exhaustive" in out
    assert "exact: 317/1024" in out


def test_experiment_lt_tail_seeded_json(capsys):
    args = ("--json", "experiment", "lt-tail", "--k", "3", "--n", "10",
            "--alpha", "0.4", "--trials", "40", "--seed", "5")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    assert doc["method"] == "monte-carlo"
    assert doc["trials"] == 40


@pytest.mark.parametrize("argv, trials", [
    (("lt-tail", "--k", "2", "--n", "12", "--alpha", "0.5"), 1000),
    (("lt-tail", "--k", "3", "--n", "10", "--alpha", "0.4", "--trials", "5"),
     5),
    (("conjecture", "--k", "2", "--starts", "3"), 1000),
    (("lt-tail", "--trials", "6", "--k", "3", "--n", "10", "--alpha", "0.4"),
     6),
])
def test_experiment_json_config_has_four_keys(capsys, argv, trials):
    code, out, _ = run(capsys, "--json", "experiment", *argv, "--seed", "7")
    assert code == 0
    assert json.loads(out)["config"] == {
        "seed": 7, "trials": trials, "budget_nodes": DEFAULT_NODE_BUDGET,
        "budget_cells": DEFAULT_BUDGET_CELLS}


def _leaves(parser, path=()):
    """(command words, parser) for every leaf of a parser tree."""
    children = _subparsers(parser)
    if not children:
        yield path, parser
    for name, child in children.items():
        yield from _leaves(child, path + (name,))


def test_each_leaf_names_its_own_handler():
    handlers = {}
    for path, leaf in _leaves(build_parser()):
        methods = [a for a in leaf._actions if a.dest == "func"]
        for action in methods:  # the twins method flags
            handlers[path + (action.option_strings[0],)] = action.const
        if methods:
            assert leaf.get_default("func") is handlers[path + ("--exact",)]
        else:
            handlers[path] = leaf.get_default("func")
    assert len(handlers) == 15 + len(FAMILY_BUILDERS)
    assert all(callable(h) for h in handlers.values())
    # only the construct families share a handler, which reads the family
    construct = {h for path, h in handlers.items() if path[0] == "construct"}
    others = [h for path, h in handlers.items() if path[0] != "construct"]
    assert len(construct) == 1
    assert len(set(others)) == len(others) and construct.isdisjoint(others)


# the ExperimentConfig settings that each leaf command reads
_LEAF_SETTINGS = {
    ("lcs",): {"budget_cells"},
    ("lcs-set",): {"budget_cells"},
    ("twins",): {"budget_nodes"},
    **{("construct", name): set() for name in FAMILY_BUILDERS},
    ("construct", "tuplet"): {"budget_cells"},
    **{("bound", what): set() for what in
       ("theta", "threshold", "union", "count", "prob", "constants")},
    ("experiment", "lt-tail"): {"seed", "trials", "budget_nodes"},
    ("experiment", "conjecture"): {"seed"},
    ("verify",): {"seed"},
}


def _accepted_argv(path, leaf):
    """The command words of a leaf plus a value for each required argument."""
    argv = list(path)
    for action in leaf._actions:
        if action.required:
            value = next(iter(action.choices)) if action.choices else "1"
            argv += [action.option_strings[0], value] \
                if action.option_strings else [value]
    return argv


def test_each_leaf_takes_only_the_settings_it_reads(capsys):
    fields = list(inspect.signature(ExperimentConfig).parameters)
    parser = build_parser()
    leaves = dict(_leaves(parser))
    assert leaves.keys() == _LEAF_SETTINGS.keys()
    assert sum(map(len, _LEAF_SETTINGS.values())) == 9
    for path, leaf in leaves.items():
        argv = _accepted_argv(path, leaf)
        assert parser.parse_args(argv).func is leaf.get_default("func")
        for field in fields:
            flag = "--" + field.replace("_", "-")
            # before the leaf, under the root or a group, every setting is
            # an error
            wrong = [[*path[:depth], flag, "5", *argv[depth:]]
                     for depth in range(len(path))]
            if field in _LEAF_SETTINGS[path]:
                assert getattr(parser.parse_args([*argv, flag, "5"]),
                               field) == 5
            else:
                wrong.append([*argv, flag, "5"])
            for bad in wrong:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(bad)
                assert exc.value.code == 2, bad
    capsys.readouterr()


@pytest.mark.parametrize("field", list(inspect.signature(
    ExperimentConfig).parameters))
@pytest.mark.parametrize("head, tail", [
    ((), ("verify", "roles")),  # under the root
    (("experiment",), ("conjecture", "--k", "2")),  # under a group
])
def test_a_setting_before_the_command_is_named(capsys, field, head, tail):
    flag = "--" + field.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([*head, flag, "5", *tail])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.endswith(f"error: argument {flag}: a setting goes after the "
                        "command name\n"), err


def test_experiment_conjecture(capsys):
    code, out, _ = run(capsys, "experiment", "conjecture", "--k", "2",
                       "--starts", "5")
    assert code == 0
    assert "minimum found: 1.500000000" in out
    # without --starts the search takes minimize_expected_lcs's default
    starts = inspect.signature(
        minimize_expected_lcs).parameters["starts"].default
    code, out, _ = run(capsys, "experiment", "conjecture", "--k", "2")
    assert code == 0
    assert f"starts: {starts} (best: 0)" in out


# -- verify ------------------------------------------------------------------------


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "roles")
    assert code == 0
    assert "[PASS]" in out
    assert "suite roles: all checks passed" in out


def test_one_parser_per_process_keeps_no_state(monkeypatch, capsys):
    builds, seeds = [], []

    def counted_build():
        builds.append(1)
        return build_parser()

    def seen_suite(name, config):
        seeds.append(config.seed)
        return verify_suite(name, config)

    monkeypatch.setattr(cli, "build_parser", counted_build)
    monkeypatch.setattr(cli, "verify_suite", seen_suite)
    cli._parser.cache_clear()
    code, out, _ = run(capsys, "--json", "verify", "bounds", "--seed", "5")
    assert code == 0 and json.loads(out)["suite"] == "bounds"
    # the flags of one call are not defaults of the next
    code, out, _ = run(capsys, "verify", "bounds")
    assert code == 0 and out.startswith("[PASS] ")
    assert seeds == [5, ExperimentConfig.seed]
    # --help and an argparse error exit leave the parser as it was
    for argv in (["verify", "--help"], ["verify", "nope"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    code, out, _ = run(capsys, "--json", "verify", "bounds")
    assert code == 0 and json.loads(out)["ok"] is True
    assert seeds == [5, ExperimentConfig.seed, ExperimentConfig.seed]
    assert len(builds) == 1


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nope"])  # argparse rejects unknown choices


def test_no_arguments_shows_usage():
    with pytest.raises(SystemExit):
        main([])


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "twinlcs.cli", "lcs",
                           "12", "21"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "length: 1" in proc.stdout


def test_readme_library_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", None, 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted and not result.failed


def _readme_commands():
    """(argv, shown lines) for each ``$ twinlcs`` example of the README."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```\n(\$ twinlcs .*?)```", readme, re.S).group(1)
    for example in block.strip().split("\n\n"):
        command, *shown = example.splitlines()
        yield pytest.param(shlex.split(command)[2:], shown, id=command[2:])


@pytest.mark.parametrize("argv, shown", _readme_commands())
def test_readme_command_line_examples(capsys, argv, shown):
    code, out, _ = run(capsys, *argv)
    printed = out.splitlines()
    assert code == 0
    if "..." in shown:  # the README elides the middle of the output
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1:]
        assert printed[:len(head)] == head
        assert printed[len(printed) - len(tail):] == tail
    else:
        assert printed == shown


def test_python_m_twinlcs_prints_the_readme_block():
    argv, shown = next(p.values for p in _readme_commands()
                       if p.values[0][:2] == ["experiment", "lt-tail"])
    proc = subprocess.run([sys.executable, "-m", "twinlcs", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == shown


@pytest.mark.parametrize("alpha", ["inf", "1e308", "nan"])
def test_lt_tail_non_finite_alpha_exits_2(capsys, alpha):
    code, out, err = run(capsys, "experiment", "lt-tail", "--k", "2", "--n",
                         "12", "--alpha", alpha)
    assert code == 2 and out == ""
    assert err.startswith("error: alpha * n must be finite")


_HUGE = str(10**400)


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(("construct", "multiperm", "--s", "1", "--k", _HUGE), 2,
                 "error: ", id="multiperm-k"),
    pytest.param(("bound", "theta", "--alpha", "0.3", "--k", _HUGE), 2,
                 "error: ", id="theta-k"),
    pytest.param(("bound", "threshold", "--k", _HUGE), 2, "error: ",
                 id="threshold-k"),
    pytest.param(("bound", "constants", "--k", _HUGE), 2, "error: ",
                 id="constants-k"),
    pytest.param(("experiment", "lt-tail", "--k", "2", "--n", _HUGE,
                  "--alpha", "0.5"), 2, "error: ", id="lt-tail-n"),
    pytest.param(("construct", "tuplet", "--t", "20000", "--kappa", "1"), 3,
                 "budget exceeded: family needs at least 2^19999 key",
                 id="tuplet-t"),
    pytest.param(("bound", "union", "--k", "2", "--n", str(10**17),
                  "--m", "3"), 3, "budget exceeded: union_bound needs ",
                 id="union-n"),
    pytest.param(("bound", "prob", "--k", "2", "--n", str(10**18), "--m", "1",
                  "--p", "0", "--z", "0"), 3,
                 "budget exceeded: role_prob needs ", id="prob-n"),
    # role_prob's budget admits this value, but its 2.1 million digits of
    # text would take about a minute
    pytest.param(("bound", "prob", "--k", "2", "--n", str(7 * 10**6),
                  "--m", "1", "--p", "0", "--z", "0"), 3,
                 "budget exceeded: writing the exact value needs 2450000000 "
                 "cells (20000 squared bits each)", id="prob-text"),
    pytest.param(("bound", "count", "--n", str(10**7), "--m", str(3 * 10**6),
                  "--p", str(10**6), "--z", "0"), 3,
                 "budget exceeded: role_count needs 25600000000 cells ",
                 id="count-n"),
    # C(30, 15) ~ 1.6e8 subsets of one-letter words, refused by their count
    # before any is listed; their walk once took about half an hour
    pytest.param(("lcs-set", *["1"] * 30, "--t", "15"), 3,
                 "budget exceeded: joint LCS of three or more words needs "
                 f"{math.comb(30, 15) * _SUBSET_CELLS} cells and chain steps",
                 id="lcs-set-t"),
    # a count of more than 4300 digits is written by its size
    pytest.param(("bound", "union", "--k", "2", "--n", str(10**1500),
                  "--m", "3"), 3,
                 "budget exceeded: union_bound needs about 10^4496 cells "
                 "(20000 squared bits each), over the budget of 100000000\n",
                 id="union-n-digits"),
])
def test_huge_input_exits_with_one_line(capsys, argv, code, message):
    # a number too large for a float is bad input, and work too large for
    # a budget is refused before it starts
    start = time.process_time()
    got, out, err = run(capsys, *argv)
    assert time.process_time() - start < 1
    assert (got, out) == (code, "")
    assert err.startswith(message) and err.count("\n") == 1, err


def test_conjecture_bad_input_exits_cleanly(capsys):
    code, out, err = run(capsys, "experiment", "conjecture", "--k", "7")
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded:")
    for argv in (("--k", "0"), ("--k", "3", "--starts", "0")):
        code, out, err = run(capsys, "experiment", "conjecture", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "Traceback" not in err, argv
