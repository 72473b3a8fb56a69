import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from numsgps import cli
from numsgps.weighted import DELTA_MASK_BUDGET, DELTA_PROFILE_BUDGET, EXTREME_TABLE_BUDGET


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_process(argv):
    """(exit status, stdout, stderr) of ``python -m numsgps.cli`` in a new
    interpreter on this checkout's sources."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "numsgps.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class TestInvariants:
    def test_six_nine_twenty_values(self, capsys):
        code, out, _ = run(capsys, "invariants", "6", "9", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["frobenius"] == 43
        assert doc["genus"] == 22
        assert doc["type"] == 1
        assert doc["pseudo_frobenius"] == [43]
        assert doc["wilf_variant"] == 19
        assert doc["wilf_standard"] == 22
        assert doc["apery"] == {"base": 6, "elements": [0, 49, 20, 9, 40, 29]}

    def test_two_three(self, capsys):
        code, out, _ = run(capsys, "invariants", "2", "3", "--json")
        doc = json.loads(out)
        assert (doc["frobenius"], doc["genus"]) == (1, 1)

    def test_trivial_semigroup(self, capsys):
        code, out, _ = run(capsys, "invariants", "1", "--json")
        doc = json.loads(out)
        assert (doc["frobenius"], doc["genus"]) == (-1, 0)

    def test_gcd_two_omits_type(self, capsys):
        code, out, _ = run(capsys, "invariants", "4", "6", "--json")
        doc = json.loads(out)
        assert doc["gcd"] == 2 and doc["type"] is None

    def test_rejects_bad_generators(self, capsys):
        code, _, err = run(capsys, "invariants", "0")
        assert code == 1 and "error" in err

    def test_custom_apery_base(self, capsys):
        code, out, _ = run(capsys, "invariants", "6", "9", "20", "--apery", "9", "--json")
        doc = json.loads(out)
        assert doc["apery"]["base"] == 9 and len(doc["apery"]["elements"]) == 9

    @pytest.mark.parametrize("argv, modulus", [
        (["1000000007", "1000000009"], 1000000007),  # the residue table itself
        (["6", "9", "20", "--apery", "1000000000000"], 1000000000000),
    ])
    def test_apery_table_over_budget(self, capsys, argv, modulus):
        code, out, err = run(capsys, "invariants", *argv)
        assert code == 1 and out == ""
        assert f"error: an Apery table modulo {modulus} is over the budget of " in err


class TestMinpres:
    def test_six_nine_twenty(self, capsys):
        code, out, _ = run(capsys, "minpres", "6", "9", "20", "--json")
        doc = json.loads(out)
        assert sorted(r["degree"] for r in doc["relations"]) == [18, 60]
        first = next(r for r in doc["relations"] if r["degree"] == 18)
        assert {tuple(first["left"]), tuple(first["right"])} == {(3, 0, 0), (0, 2, 0)}

    def test_two_three(self, capsys):
        code, out, _ = run(capsys, "minpres", "2", "3", "--json")
        assert len(json.loads(out)["relations"]) == 1

    def test_example_71_member(self, capsys):
        code, out, _ = run(capsys, "minpres", "2704", "2757", "2809", "2811", "--json")
        doc = json.loads(out)
        assert sorted(r["degree"] for r in doc["relations"]) == [
            11028, 73008, 75843, 75871, 81305, 112440,
        ]


class TestDelta:
    def test_weighted(self, capsys):
        code, out, _ = run(
            capsys, "delta", "6", "9", "20", "--weights", "3", "1", "4",
            "--max-element", "400", "--json",
        )
        doc = json.loads(out)
        assert doc["min_delta"] == "1"
        assert doc["max_delta"] == "7"
        assert "union_over_betti_elements" in doc
        assert doc["brute_force"]["max_element"] == 400

    def test_unweighted_default(self, capsys):
        code, out, _ = run(capsys, "delta", "6", "9", "20", "--json")
        doc = json.loads(out)
        assert doc["min_delta"] == "1" and doc["max_delta"] == "4"

    def test_human_labels_betti_union(self, capsys):
        code, out, _ = run(capsys, "delta", "6", "9", "20")
        assert "union over Betti elements" in out

    def test_rejects_negative_max_element(self, capsys):
        code, out, err = run(capsys, "delta", "6", "9", "20", "--max-element", "-5")
        assert code == 1 and out == ""
        assert err == "error: --max-element must be non-negative, got -5\n"

    @pytest.mark.parametrize("weights", [[], ["--weights", "3", "1", "4"]])
    def test_max_element_over_budget(self, capsys, weights):
        code, out, err = run(capsys, "delta", "6", "9", "20", *weights, "--max-element", "100000000")
        assert code == 1 and out == ""
        assert err == (
            "error: a delta profile up to 100000000 is over the budget of "
            f"{DELTA_PROFILE_BUDGET} elements\n"
        )

    def test_weight_span_over_budget(self, capsys):
        code, out, err = run(capsys, "delta", "6", "9", "20", "--weights", "1", "1", "1000000000",
                             "--max-element", "400")
        assert code == 1 and out == ""
        assert err == (
            "error: a delta profile up to 400 with integer weights (1, 1, 1000000000) needs "
            f"masks of 67000000000 bits, over the budget of {DELTA_MASK_BUDGET} bits\n"
        )

    def test_max_element_zero(self, capsys):
        code, out, _ = run(capsys, "delta", "6", "9", "20", "--max-element", "0", "--json")
        assert code == 0 and json.loads(out)["brute_force"] == {"max_element": 0, "deltas": []}

    def test_zero_denominator_weight(self, capsys):
        code, out, err = run(capsys, "delta", "6", "9", "20", "--weights", "1", "1/0")
        assert code == 1 and out == ""
        assert err == "error: zero denominator in Fraction(1, 0)\n"

    def test_weight_count_mismatch(self, capsys):
        code, out, err = run(capsys, "delta", "6", "9", "20", "--weights", "1", "2")
        assert code == 1 and out == ""
        assert err == "error: 2 weights for 3 generators\n"


@pytest.fixture
def spec_file(tmp_path):
    def make(doc, name="fam.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return make


class TestFamily:
    def test_scan_csv(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        code, out, _ = run(
            capsys, "family", "--spec", spec, "scan",
            "--invariant", "frobenius", "--range", "5", "11", "--step", "2", "--csv",
        )
        assert code == 0
        assert out.splitlines() == ["5,23", "7,47", "9,79", "11,119"]

    def test_scan_range_from_spec(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1], "r": [0, 2], "range": [5, 7]})
        code, out, _ = run(capsys, "family", "--spec", spec, "scan",
                           "--invariant", "genus", "--step", "2", "--json")
        assert json.loads(out)["rows"] == [[5, 12], [7, 24]]

    def test_scan_without_range(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        code, out, err = run(capsys, "family", "--spec", spec, "scan", "--invariant", "genus")
        assert code == 1 and out == ""
        assert err == 'error: no parameter range: pass --range A B or put "range" in the spec file\n'

    def test_spec_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"w": [1, 1], "r": [0, 2]})))
        code, out, _ = run(capsys, "family", "--spec", "-", "scan",
                           "--invariant", "frobenius", "--range", "5", "11", "--step", "2", "--csv")
        assert code == 0
        assert out.splitlines() == ["5,23", "7,47", "9,79", "11,119"]

    def test_fit_from_stdin(self, capsys, spec_file, monkeypatch):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        fit = ["fit", "--invariant", "genus", "--degree", "2", "--period", "2", "--json"]
        code, out, _ = run(capsys, "family", "--spec", spec, *fit, "--range", "5", "41", "--step", "2")
        assert code == 0
        scanned = json.loads(out)
        code, out, _ = run(capsys, "family", "--spec", spec, "scan",
                           "--invariant", "genus", "--range", "5", "41", "--step", "2", "--csv")
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run(capsys, "family", "--spec", spec, *fit, "--from", "-")
        assert code == 0 and json.loads(out) == scanned

    def test_scan_shifted_parameters(self, capsys, spec_file):
        # <n+5, n+7> at the user's n equals <m, m+2> at m = n+5
        spec = spec_file({"w": [1, 1], "r": [5, 7]})
        code, out, _ = run(capsys, "family", "--spec", spec, "scan",
                           "--invariant", "frobenius", "--range", "0", "2", "--step", "2", "--json")
        assert json.loads(out)["rows"] == [[0, 23], [2, 47]]

    def test_verify_phi_pass(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1, 1], "r": [0, 1, 2]})
        code, out, _ = run(capsys, "family", "--spec", spec, "verify-phi", "--n", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["in_guaranteed_regime"]

    def test_verify_betti_bijection(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1, 1], "r": [0, 1, 2]})
        code, out, _ = run(capsys, "family", "--spec", spec,
                           "verify-betti-bijection", "--n", "5", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["ok"]
        assert doc["mapping"] == [[12, 16], [20, 35], [21, 36]]

    def test_verify_apery_range(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1, 1], "r": [0, 2, 3]})
        code, out, _ = run(capsys, "family", "--spec", spec, "verify-apery",
                           "--range", "10", "13", "--json")
        doc = json.loads(out)
        assert code == 0
        assert all(row["ok"] for row in doc["results"])

    def test_verify_apery_over_the_extreme_table_budget(self, capsys, spec_file):
        # the inner semigroup <1, 6> has Ap(<1, 6>; n) = {0, ..., n - 1}
        spec = spec_file({"w": [1, 1, 1], "r": [0, 1, 6]})
        n = EXTREME_TABLE_BUDGET + 1
        code, out, err = run(capsys, "family", "--spec", spec, "verify-apery", "--n", str(n))
        assert code == 1 and out == ""
        assert err == (
            f"error: extreme length tables up to {n - 1} are over the budget of "
            f"{EXTREME_TABLE_BUDGET} entries\n"
        )

    def test_verify_pf(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1, 1], "r": [0, 4, 6]})
        code, out, _ = run(capsys, "family", "--spec", spec, "verify-pf", "--n", "37", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["ok"]
        assert doc["type_n"] == doc["type_next"] == 2

    def test_verify_pf_shares_the_gcd_message(self, capsys, spec_file):
        # verify-apery and verify-pf run the one gcd(n, d) check
        golden = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
        spec = spec_file({"w": [1, 1, 1], "r": [0, 4, 6]})
        code, out, err = run(capsys, "family", "--spec", spec, "verify-pf", "--n", "10")
        assert err.startswith("error: gcd(n, 2) must be 1: ")
        assert (code, out, err) == (1, "", golden["cli"]["verify-apery-gcd2-human"]["stderr"])

    def test_scan_polynomial_family(self, capsys, spec_file):
        spec = spec_file({"polys": [[0, 1], [3, 1]]})  # <n, n+3>
        code, out, _ = run(capsys, "family", "--spec", spec, "scan",
                           "--invariant", "frobenius", "--range", "5", "7",
                           "--step", "2", "--json")
        doc = json.loads(out)
        assert doc["rows"] == [[5, 27], [7, 53]]  # n(n+3) - (2n+3)

    def test_fit(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        code, out, _ = run(capsys, "family", "--spec", spec, "fit",
                           "--invariant", "frobenius", "--range", "5", "61", "--step", "2",
                           "--degree", "2", "--period", "2", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["degree"] == 2 and doc["period"] == 2
        assert doc["leading_coefficient"] == "1"

    def test_fit_from_saved_scan(self, capsys, spec_file, tmp_path):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        code, out, _ = run(capsys, "family", "--spec", spec, "scan",
                           "--invariant", "genus", "--range", "5", "41", "--step", "2", "--csv")
        saved = tmp_path / "scan.csv"
        saved.write_text(out)
        code, out, _ = run(capsys, "family", "--spec", spec, "fit",
                           "--invariant", "genus", "--degree", "2", "--period", "2",
                           "--from", str(saved), "--json")
        doc = json.loads(out)
        assert code == 0 and doc["leading_coefficient"] == "1/2"

    @pytest.mark.parametrize(
        "invariant, value",
        [("betti_multiset", "(1,)"), ("minpres_degrees", "(35,)")],
    )
    def test_fit_rejects_tuple_valued_invariants(self, capsys, spec_file, invariant, value):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        code, out, err = run(capsys, "family", "--spec", spec, "fit", "--invariant", invariant,
                             "--range", "5", "11", "--degree", "1", "--period", "1")
        assert code == 1 and out == ""
        assert err == f"error: sample n=5, value {value}: needs an integer n and a rational value\n"

    def test_degenerate_family_errors(self, capsys, spec_file):
        spec = spec_file({"w": [2, 3], "r": [2, 3]})
        code, _, err = run(capsys, "family", "--spec", spec, "verify-phi", "--n", "10")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "subcommand",
        [
            ["scan", "--invariant", "frobenius"],
            ["verify-apery"],
            ["fit", "--invariant", "frobenius", "--degree", "2", "--period", "2"],
        ],
        ids=["scan", "verify-apery", "fit"],
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            (["--range", "5", "11", "--step", "0"], "--step must be positive"),
            (["--range", "5", "11", "--step", "-1"], "--step must be positive"),
            (["--range", "11", "5"], "start 11 exceeds end 5"),
        ],
        ids=["step-zero", "step-negative", "inverted-range"],
    )
    def test_rejects_empty_parameter_ranges(self, capsys, spec_file, subcommand, bad, message):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        code, out, err = run(capsys, "family", "--spec", spec, *subcommand, *bad)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"w": [1.5, 2], "r": [0, 1]}, 'spec "w" must be a list of integers, got [1.5, 2]'),
            ({"w": "12", "r": [0, 1]}, 'spec "w" must be a list of integers'),
            ({"w": [1, 2], "r": [0, None]}, 'spec "r" must be a list of integers'),
            ({"polys": [[0, 1], [3, 1.0]]}, 'spec "polys" must be a list of integers'),
            ({"w": [1, 2], "r": [0, 1], "range": [5]}, 'spec "range" must be [start, end]'),
            ({"polys": [[]]}, "empty coefficient list"),
            ([1, 2], "family spec must be a JSON object, got [1, 2]"),
            ({"polys": 5}, 'spec "polys" must be a list of integer lists, got 5'),
        ],
        ids=["float-weight", "string-weights", "null-entry", "float-coefficient", "short-range",
             "empty-polynomial", "not-an-object", "polys-not-a-list"],
    )
    def test_rejects_malformed_spec(self, capsys, spec_file, doc, message):
        spec = spec_file(doc)
        code, out, err = run(capsys, "family", "--spec", spec, "scan",
                             "--invariant", "frobenius", "--range", "6", "7")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_fit_from_scan_with_zero_denominator(self, capsys, spec_file, tmp_path):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        saved = tmp_path / "scan.csv"
        saved.write_text("5,1\n6,1/0\n")
        code, out, err = run(capsys, "family", "--spec", spec, "fit", "--invariant", "frobenius",
                             "--degree", "1", "--period", "1", "--from", str(saved))
        assert code == 1 and out == ""
        assert err == "error: zero denominator in Fraction(1, 0)\n"

    @pytest.mark.parametrize(
        "text",
        ['{"invariant": "genus"}', '{"rows": 5}', '{"rows": [[5, 1], [6]]}', '{"rows": [7]}'],
        ids=["no-rows", "rows-not-a-list", "short-pair", "bare-number"],
    )
    def test_fit_from_malformed_json_scan(self, capsys, spec_file, tmp_path, text):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        saved = tmp_path / "scan.json"
        saved.write_text(text)
        code, out, err = run(capsys, "family", "--spec", spec, "fit", "--invariant", "genus",
                             "--degree", "1", "--period", "1", "--from", str(saved))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and 'a "rows" list of [n, value] pairs' in err

    @pytest.mark.parametrize(
        "text, row",
        [('{"rows": [[5.5, 1], [6, 2], [7, 3]]}', "row 1: [5.5, 1]"),
         ('{"rows": [[5, 1], [true, 2], [7, 3]]}', "row 2: [true, 2]"),
         ('{"rows": [[5, 1], [6, 2], ["a", 3]]}', 'row 3: ["a", 3]')],
        ids=["float-n", "boolean-n", "string-n"],
    )
    def test_fit_from_json_scan_with_non_integer_n(self, capsys, spec_file, tmp_path, text, row):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        saved = tmp_path / "scan.json"
        saved.write_text(text)
        code, out, err = run(capsys, "family", "--spec", spec, "fit", "--invariant", "genus",
                             "--degree", "1", "--period", "1", "--from", str(saved))
        assert code == 1 and out == ""
        assert err == f"error: a JSON scan needs integer n in every row, got {row}\n"

    @pytest.mark.parametrize(
        "text, line",
        [("5,1\n6\n", "line 2: '6'"), ("5,1\nsix,2\n", "line 2: 'six,2'"),
         ("5,one\n", "line 1: '5,one'")],
        ids=["no-comma", "non-integer-n", "non-rational-value"],
    )
    def test_fit_from_malformed_csv_scan(self, capsys, spec_file, tmp_path, text, line):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        saved = tmp_path / "scan.csv"
        saved.write_text(text)
        code, out, err = run(capsys, "family", "--spec", spec, "fit", "--invariant", "genus",
                             "--degree", "1", "--period", "1", "--from", str(saved))
        assert code == 1 and out == ""
        assert err == f"error: a CSV scan needs n,value rows, got {line}\n"

    @pytest.mark.parametrize(
        "text, row",
        [('{"rows": [[5, 1], [6, true], [7, 3]]}', "row 2: [6, true]"),
         ('{"rows": [[5, null], [6, 2], [7, 3]]}', "row 1: [5, null]"),
         ('{"rows": [[5, 1], [6, 2], [7, [1]]]}', "row 3: [7, [1]]"),
         ('{"rows": [[5, 1], [6, "two"], [7, 3]]}', 'row 2: [6, "two"]')],
        ids=["boolean-value", "null-value", "list-value", "non-rational-string"],
    )
    def test_fit_from_json_scan_with_non_rational_value(self, capsys, spec_file, tmp_path, text, row):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        saved = tmp_path / "scan.json"
        saved.write_text(text)
        code, out, err = run(capsys, "family", "--spec", spec, "fit", "--invariant", "genus",
                             "--degree", "1", "--period", "1", "--from", str(saved))
        assert code == 1 and out == ""
        assert err == f"error: a JSON scan needs a rational value in every row, got {row}\n"

    def test_fit_from_json_scan_with_rational_strings(self, capsys, spec_file, tmp_path):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        saved = tmp_path / "scan.json"
        saved.write_text('{"rows": [[5, "1/2"], [6, 1], [7, "3/2"], [8, 2]]}')
        code, out, _ = run(capsys, "family", "--spec", spec, "fit", "--invariant", "genus",
                           "--degree", "1", "--period", "1", "--from", str(saved), "--json")
        assert code == 0 and json.loads(out)["leading_coefficient"] == "1/2"

    @pytest.mark.parametrize(
        "name, text, message",
        [("scan.csv", "5,1\n5,9\n6,2\n7,3\n8,4\n", "a CSV scan repeats n=5, got line 2: '5,9'"),
         ("scan.json", '{"rows": [[5, 1], [6, 2], [7, 3], [8, 4], [6, 9]]}',
          "a JSON scan repeats n=6, got row 5: [6, 9]")],
        ids=["csv", "json"],
    )
    def test_fit_from_scan_with_repeated_n(self, capsys, spec_file, tmp_path, name, text, message):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        saved = tmp_path / name
        saved.write_text(text)
        code, out, err = run(capsys, "family", "--spec", spec, "fit", "--invariant", "genus",
                             "--degree", "1", "--period", "1", "--from", str(saved))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "subcommand, gens",
        [(["scan", "--invariant", "genus", "--range", "2", "4"], "(-1, 2, 4)"),
         (["verify-betti-bijection", "--n", "1"], "(-2, 1, 3)")],
        ids=["scan", "verify-betti-bijection"],
    )
    def test_non_positive_member_names_no_internal_parameter(self, capsys, spec_file, subcommand, gens):
        # normalization shifts n by 3, so the internal parameter differs from the one given
        spec = spec_file({"w": [1, 1, 1], "r": [-3, 0, 2]})
        code, out, err = run(capsys, "family", "--spec", spec, *subcommand)
        assert code == 1 and out == ""
        assert err == f"error: non-positive generator in {gens}\n"

    def test_fit_from_file_closes_it(self, spec_file, tmp_path):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        saved = tmp_path / "scan.csv"
        saved.write_text("".join(f"{n},{n * n}\n" for n in range(5, 15)))
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "numsgps.cli",
             "family", "--spec", spec, "fit", "--invariant", "frobenius",
             "--degree", "2", "--period", "1", "--from", str(saved), "--json"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr
        assert json.loads(proc.stdout)["leading_coefficient"] == "1"

    def test_regime_mismatch_exit_code(self, capsys, spec_file, monkeypatch):
        # force a failing report inside the guaranteed regime: exit must be 2
        from numsgps.parametric import TransportReport

        fake = TransportReport(
            n=100, period=2, transport_bound=4,
            source=(), image=(), independent=(), problems=("forced",),
        )
        monkeypatch.setattr(cli, "transport_presentation", lambda fam, n: fake)
        spec = spec_file({"w": [1, 1, 1], "r": [0, 1, 2]})
        code, out, _ = run(capsys, "family", "--spec", spec, "verify-phi", "--n", "100")
        assert code == 2

    def test_out_of_regime_mismatch_exits_zero(self, capsys, spec_file, monkeypatch):
        from numsgps.parametric import TransportReport

        fake = TransportReport(
            n=3, period=2, transport_bound=4,
            source=(), image=(), independent=(), problems=("forced",),
        )
        monkeypatch.setattr(cli, "transport_presentation", lambda fam, n: fake)
        spec = spec_file({"w": [1, 1, 1], "r": [0, 1, 2]})
        code, out, _ = run(capsys, "family", "--spec", spec, "verify-phi", "--n", "3")
        assert code == 0 and "FAIL" in out


class TestLinearOnly:
    @pytest.mark.parametrize(
        "subcommand", ["verify-phi", "verify-betti-bijection", "verify-apery", "verify-pf"]
    )
    def test_verifications_reject_polynomial_spec(self, capsys, spec_file, subcommand):
        spec = spec_file({"polys": [[0, 1], [1, 1], [3, 1]]})
        code, out, err = run(capsys, "family", "--spec", spec, subcommand, "--n", "10")
        assert code == 1 and out == ""
        assert err == (
            f'error: {subcommand} needs a linear family spec {{"w": [...], "r": [...]}}, '
            'not a "polys" spec\n'
        )


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--spec", "{spec}", "verify-phi"],
            ["family", "--spec", "{spec}", "scan", "--invariant", "bogus", "--range", "5", "6"],
            ["family", "verify-pf", "--n", "5"],
            ["minpres"],
            ["invariants", "6", "9", "--json", "--csv"],
            ["nosuch"],
        ],
        ids=["missing-n", "bad-invariant", "missing-spec", "no-generators", "json-and-csv",
             "unknown-command"],
    )
    def test_usage_error_exits_one(self, capsys, spec_file, argv):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        code, out, err = run(capsys, *[spec if a == "{spec}" else a for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("usage: numsgps") and "error: " in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["family", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: numsgps family")

    def test_exit_status_of_the_command(self, spec_file):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        codes = [
            fresh_process(argv)[0]
            for argv in (["family", "--spec", spec, "verify-pf"], ["--help"])
        ]
        assert codes == [1, 0]

    def test_verify_apery_rejects_n_with_range(self, capsys, spec_file):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        code, out, err = run(capsys, "family", "--spec", spec, "verify-apery",
                             "--n", "7", "--range", "5", "9")
        assert code == 1 and out == ""
        assert err == "error: verify-apery takes --n or --range, not both\n"


class TestDeterminism:
    def test_json_round_trip_and_stability(self, capsys):
        code, out1, _ = run(capsys, "minpres", "6", "9", "20", "--json")
        code, out2, _ = run(capsys, "minpres", "6", "9", "20", "--json")
        assert out1 == out2
        doc = json.loads(out1)
        assert json.dumps(doc) == json.dumps(json.loads(out2))

    def test_fractions_are_the_only_conversion(self):
        assert json.dumps([(Fraction(-7, 2), Fraction(3))], default=cli._exact) == '[["-7/2", "3"]]'
        for value in (1.5, {1, 2}, frozenset(), object(), b"3", Decimal(1), np.int64(3)):
            with pytest.raises(TypeError, match="not JSON serializable"):
                cli._exact(value)


class TestParserReuse:
    """``main`` parses with one parser per process; no call may leave state
    behind that changes the next one."""

    def test_same_parser_every_call(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
        calls = [
            ["invariants", "6", "9", "--json", "--csv"],
            ["delta", "--help"],
            ["delta", "6", "9", "20", "--weights", "3", "1", "4", "--json"],
            ["delta", "6", "9", "20", "--json"],
        ]
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == fresh_process(argv), argv
        assert json.loads(out.out)["weights"] == ["1", "1", "1"]

    def test_handler_is_looked_up_at_call_time(self, capsys, spec_file, monkeypatch):
        spec = spec_file({"w": [1, 1], "r": [0, 2]})
        argv = ["family", "--spec", spec, "scan", "--invariant", "genus", "--range", "5", "7"]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        seen = []
        original = cli.cmd_family_scan

        def recording(args):
            seen.append(args.invariant)
            return original(args)

        monkeypatch.setattr(cli, "cmd_family_scan", recording)
        code, second, _ = run(capsys, *argv)
        assert (code, second) == (0, first)
        assert seen == ["genus"]
