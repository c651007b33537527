import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrantal.cli import COMMANDS, _fast_args, build_parser, emit, main

from test_classgroup import squarefree_fields


@pytest.fixture(autouse=True)
def restore_int_str_limit():
    # main() lifts the int->str digit limit for the rest of its process
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestPolyCommands:
    def test_divrem(self, capsys):
        data = run_json(capsys, "poly", "divrem", "--dividend", "x^2 - 2", "--divisor", "x - 1")
        assert data["quotient"] == ["1", "1"]
        assert data["remainder"] == ["-1"]

    def test_gcd(self, capsys):
        data = run_json(capsys, "poly", "gcd", "--a", "x^2 - 1", "--b", "x - 1")
        assert data["gcd"] == ["-1", "1"]

    def test_gcd_at_degree_300_with_30_digit_coefficients(self):
        # the modular gcd takes well under a second here; a remainder
        # sequence over Z ran past a minute
        from quadrantal.polynomial import Poly

        rng = random.Random(300)

        def draw(degree):
            return Poly([rng.randint(-10**30, 10**30) for _ in range(degree)] + [rng.randint(1, 10**30)])

        factor = draw(150)
        a, b = draw(150) * factor, draw(150) * factor
        proc = subprocess.run(
            [sys.executable, "-m", "quadrantal.cli", "poly", "gcd", "--a", a.to_text(), "--b", b.to_text()],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["gcd"] == factor.monic().to_json_array()

    def test_content(self, capsys):
        data = run_json(capsys, "poly", "content", "--poly", "[\"2\", \"4\", \"6\"]")
        assert data["content"] == "2" and data["primitive"] == ["1", "2", "3"]

    def test_eisenstein(self, capsys):
        data = run_json(capsys, "poly", "eisenstein", "--poly", "x^3 - 2")
        assert data["witness"] == "2"
        data = run_json(capsys, "poly", "eisenstein", "--poly", "x^2 + 4")
        assert data["witness"] is None
        # a0 = 2 * 1000003 * 1000033 is past the trial-division bound, but a
        # witness divides gcd(a0, a1) = 2
        data = run_json(capsys, "poly", "eisenstein", "--poly", "x^2 + 2*x + 2000072000198")
        assert data["witness"] == "2"

    def test_cyclotomic(self, capsys):
        data = run_json(capsys, "poly", "cyclotomic", "--p", "3")
        assert data["poly"] == ["1", "1", "1"]

    def test_cyclotomic_above_table_cap_exits_3(self, capsys):
        code = main(["poly", "cyclotomic", "--p", "1000000007"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: Phi_1000000007 has 1000000007 coefficients")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestFieldCommands:
    def test_trace_norm(self, capsys):
        data = run_json(
            capsys, "field", "trace-norm", "--minpoly", "x^2 + 5", "--element", "1,2"
        )
        assert data == {"trace": "2", "norm": "21"}

    def test_discriminant(self, capsys):
        data = run_json(
            capsys, "field", "discriminant", "--minpoly", "x^2 - 2", "--tuple", "1,0;0,1"
        )
        assert data["discriminant"] == "8"

    def test_minpoly_of(self, capsys):
        data = run_json(
            capsys, "field", "minpoly-of", "--minpoly", "x^3 - 3", "--element", "0,0,1"
        )
        assert data["minpoly"] == ["-9", "0", "0", "1"]
        assert data["is_algebraic_integer"] is True

    def test_rational_root_in_candidate_order(self, capsys):
        # x^2 - x - 2 = (x + 1)(x - 2): the candidates run 1, -1, 2, -2
        code = main(["field", "minpoly-of", "--minpoly", "x^2-x-2", "--element", "0,1"])
        assert code == 3
        assert capsys.readouterr().err == "error: defining polynomial has rational root -1\n"

    def test_compose(self, capsys):
        data = run_json(
            capsys, "field", "compose", "--op", "sum", "--p", "x^2 - 2", "--q", "x^2 - 3"
        )
        assert data["poly"] == ["1", "0", "-10", "0", "1"]

    def test_primitive_element(self, capsys):
        data = run_json(
            capsys, "field", "primitive-element", "--p", "x^2 - 2", "--q", "x^3 - 3"
        )
        assert data["c"] == "1"

    def test_denominator_clearing(self, capsys):
        data = run_json(
            capsys,
            "field",
            "denominator-clearing",
            "--minpoly",
            "x^2 - 2",
            "--element",
            "0,1/3",
        )
        assert data["n"] == "3"

    def test_denominator_clearing_large_lcm(self, capsys):
        # the lcm of the minimal polynomial's denominators is 10^12
        data = run_json(
            capsys,
            "field",
            "denominator-clearing",
            "--minpoly",
            "x^4 + 2",
            "--element",
            "0,1/1000,0,0",
        )
        assert data == {"n": "1000", "cleared_coords": ["0", "1", "0", "0"]}

    def test_trace_norm_bare_minus_x(self, capsys):
        data = run_json(
            capsys, "field", "trace-norm", "--minpoly", "x^5 - x - 1", "--element", "0,1"
        )
        assert data == {"trace": "0", "norm": "1"}

    def test_trace_norm_large_constant_term(self, capsys):
        code, out = run_cli(
            capsys,
            "field",
            "trace-norm",
            "--minpoly",
            "x^2 + 100000000000000000000",
            "--element",
            "1,1",
        )
        assert code == 0
        assert out == '{\n  "trace": "2",\n  "norm": "100000000000000000001"\n}\n'

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_minpoly_of_reducible_defining_polynomial(self, flags):
        # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2) passes the integer-root check
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "quadrantal.cli", "field", "minpoly-of",
             "--minpoly", "x^4 + 4", "--element", "0,2,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: defining polynomial is reducible")
        assert proc.stderr.count("\n") == 1


class TestQuadCommands:
    def test_ring(self, capsys):
        data = run_json(capsys, "quad", "ring", "--m", "-23")
        assert data["d"] == -23 and data["omega"] == "(1+sqrt(m))/2"

    def test_split(self, capsys):
        data = run_json(capsys, "quad", "split", "--m", "-5", "--q", "2")
        assert data["type"] == "ramified"
        assert data["factors"][0]["multiplicity"] == 2
        data = run_json(capsys, "quad", "split", "--m", "-5", "--q", "7")
        assert data["type"] == "split"

    def test_factor_with_verify(self, capsys):
        data = run_json(
            capsys, "quad", "factor", "--m", "-5", "--ideal", "(21)", "--verify"
        )
        assert [f["norm"] for f in data["factors"]] == ["3", "3", "7", "7"]
        assert data["verification"] == {"product_equals_input": True}

    def test_factor_large_inert_prime(self, capsys):
        # (p) has norm p^2, beyond trial division; the standard form gives p
        p = "1000000000039"
        data = run_json(capsys, "quad", "factor", "--m", "-5", "--ideal", f"({p})", "--verify")
        assert data["factors"] == [
            {"prime": {"m": -5, "a": "1", "b": "0", "c": p}, "norm": str(int(p) ** 2),
             "multiplicity": 1}
        ]
        assert data["verification"] == {"product_equals_input": True}

    def test_factor_generator_syntax(self, capsys):
        data = run_json(capsys, "quad", "factor", "--m", "-5", "--ideal", "(3, 1+2w)")
        assert len(data["factors"]) == 1 and data["factors"][0]["norm"] == "3"

    def test_ideal_ops(self, capsys):
        data = run_json(
            capsys, "quad", "product", "--m", "-5", "--ideal-a", "(2, 1+w)", "--ideal-b", "(2, 1+w)"
        )
        assert data["product"] == {"m": -5, "a": "1", "b": "0", "c": "2"}
        data = run_json(
            capsys, "quad", "gcd", "--m", "-5", "--ideal-a", "(4)", "--ideal-b", "(6)"
        )
        assert data["gcd"] == {"m": -5, "a": "1", "b": "0", "c": "2"}
        data = run_json(
            capsys, "quad", "quotient", "--m", "-5", "--ideal-a", "(6)", "--ideal-b", "(2)"
        )
        assert data["divides"] is True and data["quotient"]["c"] == "3"
        data = run_json(
            capsys, "quad", "quotient", "--m", "-5", "--ideal-a", "(2, 1+w)", "--ideal-b", "(3, 1+w)"
        )
        assert data == {"divides": False}

    def test_principal(self, capsys):
        data = run_json(capsys, "quad", "principal", "--m", "-5", "--ideal", "(2, 1+w)")
        assert data == {"principal": False}
        data = run_json(capsys, "quad", "principal", "--m", "-5", "--ideal", "(7)")
        assert data["principal"] is True and data["generator"] == {"a": 7, "b": 0}

    def test_minkowski(self, capsys):
        data = run_json(capsys, "quad", "minkowski", "--m", "-23")
        assert data["floor"] == "3"

    def test_minkowski_floor_past_eleven_digits_of_pi(self, capsys):
        # 2 sqrt|d| / pi = 9083536680.98...: the bounds 3.14159265358 < pi <
        # 3.14159265359 put it on both sides of 9083536681
        data = run_json(capsys, "quad", "minkowski", "--m", "-50896710137885200098")
        assert data["floor"] == "9083536680"
        assert data["decimal"].startswith("9083536680.98")

    # sha256 prefixes of the bytes of commands that read chi_d(q) = (d/q),
    # as written when the splitting law still had its own case analysis:
    # quad split over square-free m in [-60, 60] and primes q <= 50, and
    # quad classgroup --verify, whose classes come from split primes
    SPLIT_BYTES = "49e320f2bc559ece"
    CLASSGROUP_BYTES = {
        -23: "73e76c8d03eb5ff5",
        -14: "49fb0ff38468d782",
        10: "bd9e4576483844a5",
        79: "43d182bd6eac6d76",
        1299: "ffb3b331b64d7a44",
    }

    def test_split_bytes_unchanged(self, capsys):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        outputs = []
        for field in squarefree_fields(-60, 60):
            for q in primes:
                code, out = run_cli(capsys, "quad", "split", "--m", str(field.m), "--q", str(q))
                assert code == 0
                outputs.append(out)
        assert sha16("".join(outputs).encode()) == self.SPLIT_BYTES

    @pytest.mark.parametrize("m", sorted(CLASSGROUP_BYTES))
    def test_classgroup_bytes_unchanged(self, capsys, m):
        code, out = run_cli(capsys, "quad", "classgroup", "--m", str(m), "--verify")
        assert code == 0
        assert sha16(out.encode()) == self.CLASSGROUP_BYTES[m]

    def test_classgroup_with_verify(self, capsys):
        data = run_json(capsys, "quad", "classgroup", "--m", "-23", "--verify")
        assert data["h"] == 3 and data["structure"] == [3]
        assert all(data["verification"].values())

    def test_verify_catches_a_nonassociative_loop(self):
        # a commutative loop of order 6 with an identity and inverses, in
        # which (2 2) 4 = 4 4 = 3 but 2 (2 4) = 2 0 = 2
        from quadrantal.cli import _verify_class_group
        from quadrantal.quadring import ClassGroupReport, class_group, ring_of_integers

        loop = ((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 3, 4, 5, 0, 1),
                (3, 2, 5, 4, 1, 0), (4, 5, 0, 1, 3, 2), (5, 4, 1, 0, 2, 3))
        report = class_group(ring_of_integers(-87))
        assert report.h == 6
        altered = ClassGroupReport(report.field, report.h, report.representatives, loop,
                                   report.structure, report.forms)
        checks = _verify_class_group(altered)
        assert checks["associative"] is False
        assert checks["identity"] and checks["commutative"] and checks["inverses"]
        assert _verify_class_group(report)["associative"] is True

    def test_verify_reports_a_row_without_an_inverse(self):
        # class 1 times anything is class 1: "inverses" is false, not an error
        from quadrantal.cli import _verify_class_group
        from quadrantal.quadring import ClassGroupReport, class_group, ring_of_integers

        report = class_group(ring_of_integers(-5))
        altered = ClassGroupReport(report.field, 2, report.representatives, ((0, 1), (1, 1)), (2,), report.forms)
        checks = _verify_class_group(altered)
        assert checks["inverses"] is False
        assert checks["identity"] and checks["commutative"] and checks["inverse_products_principal"]
        assert all(_verify_class_group(report).values())

    def test_classgroup_verify_h_1275(self, capsys):
        # O(h^2) work per generator for associativity: seconds, where a
        # check of every triple would take minutes
        data = run_json(capsys, "quad", "classgroup", "--m", "-10000019", "--verify")
        assert data["h"] == 1275 and all(data["verification"].values())

    def test_ideal_json_triple_input(self, capsys):
        data = run_json(
            capsys,
            "quad",
            "principal",
            "--m",
            "-5",
            "--ideal",
            '{"m": -5, "a": "2", "b": "1", "c": "1"}',
        )
        assert data == {"principal": False}


class TestUnitsAndPell:
    def test_units_real(self, capsys):
        data = run_json(capsys, "units", "--m", "2")
        assert data["w"] == 2 and data["rank"] == 1
        assert data["fundamental_unit"] == {"a": 1, "b": 1}
        assert data["regulator"].startswith("0.8813735870")
        assert data["precision_digits"] == 50
        assert data["continued_fraction"] == {"quotients": [1, 2], "period": 1}

    def test_units_imaginary(self, capsys):
        data = run_json(capsys, "units", "--m", "-3")
        assert data["w"] == 6 and data["rank"] == 0 and data["regulator"] == "1"

    def test_large_m_without_traceback(self, capsys):
        # the fundamental unit of m = 10^9 + 7 has over 6000 digits
        m = "1000000007"
        data = run_json(capsys, "units", "--m", m)
        assert len(str(data["fundamental_unit"]["a"])) > 4300
        assert data["regulator"].startswith("14693.62")
        data = run_json(capsys, "pell", "--m", m, "--kind", "plusOne")
        assert data["solvable"] is True and len(data["x"]) > 4300
        data = run_json(capsys, "quad", "principal", "--m", m, "--ideal", "(2, 1+w)")
        assert data["principal"] is True
        gen = data["generator"]
        assert gen["a"] ** 2 - int(m) * gen["b"] ** 2 in (2, -2)
        # continued-fraction period 12,352: each rho-cycle is walked once
        data = run_json(capsys, "quad", "classgroup", "--m", m, "--verify")
        assert data["h"] == 1 and all(data["verification"].values())
        data = run_json(capsys, "census", "--m", m, "--k", "1000")
        assert data["h"] == 1

    @pytest.mark.parametrize(
        "argv",
        [["units"], ["pell", "--kind", "plusOne"], ["census", "--k", "1000"]],
    )
    def test_period_over_cap_exits_3(self, capsys, argv):
        # the fundamental unit of m = 10^12 + 39 has a period over 10^5
        code = main([argv[0], "--m", "1000000000039", *argv[1:]])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: period exceeds cap 100000\n"

    @pytest.mark.parametrize("argv", [
        ["units", "--m", "1000000007"],
        ["census", "--m", "1000000007", "--k", "1000"],
        ["quad", "classgroup", "--m", "1000000007"],
    ], ids=["units", "census", "classgroup"])
    def test_period_cap_ends_every_walk(self, capsys, monkeypatch, argv):
        # the one cap, MAX_PERIOD, under 12,352 the period of m = 10^9 + 7;
        # no walk kept from under the real cap may answer instead
        from quadrantal import forms, units

        monkeypatch.setattr(forms, "MAX_PERIOD", 1000)
        forms._principal_cycle.cache_clear()
        forms._cycle_unit.cache_clear()
        units.fundamental_unit.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: period exceeds cap 1000\n"

    @pytest.mark.parametrize(
        "argv",
        [["classgroup"], ["principal", "--ideal", "(2, 1+w)"]],
    )
    def test_cycle_over_cap_exits_3(self, capsys, argv):
        # the rho-cycle of (1) at m = 10^12 + 39 is longer than 10^5 forms
        code = main(["quad", argv[0], "--m", "1000000000039", *argv[1:]])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: period exceeds cap 100000\n"

    def test_minkowski_bound_above_table_cap_exits_3(self, capsys):
        # Minkowski floor 1,273,239,544: the prime sieve refuses before allocating
        code = main(["quad", "classgroup", "--m", "-1000000000000000037"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: a sieve up to 1273239544 needs")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_pell(self, capsys):
        data = run_json(capsys, "pell", "--m", "2", "--kind", "minusOne")
        assert data["solvable"] and (data["x"], data["y"]) == ("1", "1")
        data = run_json(capsys, "pell", "--m", "3", "--kind", "minusOne")
        assert data == {"m": 3, "kind": "minusOne", "solvable": False}


class TestCycloCommands:
    def test_split(self, capsys):
        data = run_json(capsys, "cyclo", "split", "--m", "12", "--q", "2")
        assert (data["e"], data["f"], data["g"]) == (2, 2, 1)
        assert data["phi_m"] == 4
        assert data["classification"] == "ramified"  # not totally: e = 2 < phi(12)

    def test_lists(self, capsys):
        data = run_json(capsys, "cyclo", "lists")
        assert len(data["imaginary_quadratic"]) == 9


class TestCensusCommand:
    def test_basic(self, capsys):
        data = run_json(capsys, "census", "--m", "-5", "--k", "1000")
        assert data["h"] == 2
        assert int(data["Z_k"]) == sum_of_sieve(-5, 1000)

    def test_per_class_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "ratios.csv"
        data = run_json(
            capsys, "census", "--m", "-5", "--k", "500", "--per-class", "--csv", str(csv)
        )
        assert len(data["per_class"]) == 2
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "k,z_over_k"
        assert lines[-1].startswith("500,")

    # both sides of |d| = k: m = -23 at k = 3000, and m = 1000003 at k = 1000
    SIDES = ((-23, 3000), (1000003, 1000))

    @pytest.mark.parametrize("per_class", [[], ["--per-class"]])
    def test_csv_builds_no_table(self, capsys, tmp_path, monkeypatch, per_class):
        # the --csv marks are hyperbola sums, on one period of chi_d (|d| = 23
        # <= k) and on a prefix of it (|d| = 4000012 > k)
        cases = [(m, k, sum_of_sieve(m, k), csv_by_running_sum(m, k)) for m, k in self.SIDES]
        forbid_sieve(monkeypatch)
        for m, k, z_k, expected in cases:
            csv = tmp_path / f"{m}.csv"
            argv = ["--m", str(m), "--k", str(k), *per_class, "--csv", str(csv)]
            data = run_json(capsys, "census", *argv)
            assert int(data["Z_k"]) == z_k
            assert csv.read_text() == expected

    def test_plain_census_builds_no_table(self, capsys, monkeypatch):
        # |d| = 20 <= k: Z(k) is the hyperbola sum and nothing prints the table
        forbid_sieve(monkeypatch)
        for per_class in ([], ["--per-class"]):
            data = run_json(capsys, "census", "--m", "-5", "--k", "1000", *per_class)
            assert data["Z_k"] == "1403"

    def test_census_on_both_sides_builds_no_table(self, capsys, monkeypatch):
        # Z(k) is the hyperbola sum on a period of chi_d or on a prefix of it
        totals = {(m, k): sum_of_sieve(m, k) for m, k in self.SIDES}
        forbid_sieve(monkeypatch)
        for (m, k), z_k in totals.items():
            for per_class in ([], ["--per-class"]):
                data = run_json(capsys, "census", "--m", str(m), "--k", str(k), *per_class)
                assert int(data["Z_k"]) == z_k, (m, k, per_class)

    def test_empty_csv_path_exits_3(self, capsys):
        code = main(["census", "--m", "-5", "--k", "1000", "--csv", ""])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: cannot write : No such file or directory\n"

    def test_unwritable_csv_exits_3(self, capsys, tmp_path):
        csv = tmp_path / "missing" / "x.csv"
        code = main(["census", "--m", "-5", "--k", "1000", "--per-class", "--csv", str(csv)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {csv}")
        assert captured.err.count("\n") == 1

    def test_failed_certificate_exits_4(self, capsys, monkeypatch):
        # Z(k) by the hyperbola is checked against the per-class counts
        from quadrantal import census

        total = census._ideal_total
        monkeypatch.setattr(census, "_ideal_total", lambda field, k: total(field, k) + 1)
        code = main(["census", "--m", "-5", "--k", "1000", "--per-class"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("error: certificate failed: per-class counts sum to")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    # sha256 prefixes of the JSON and text output and the --csv file of
    # census --k 10000 --per-class, as written when per-class totals were row sums
    PER_CLASS_BYTES = {
        -1: ("b66a65bc390850dd", "df2c323363a557b1", "8e23fe27d81600bb"),
        -3: ("c6772cf2b66e5775", "6d16faee94ca6c86", "98bc08f1b3a77482"),
        10: ("e8774cd82eb1c605", "7b473721555ccbb9", "6367965d903d091d"),
        -14: ("cb78cdfb808e8585", "815e6f7daa45d5eb", "fd9d77455463356a"),
        1000003: ("9ec122d7030417db", "c74bffc38c09f1ca", "15e13d317b032c3c"),
    }

    @pytest.mark.parametrize("m", sorted(PER_CLASS_BYTES))
    def test_per_class_bytes_unchanged(self, capsys, tmp_path, m):
        argv = ["census", "--m", str(m), "--k", "10000", "--per-class"]
        csv = tmp_path / "ratios.csv"
        outputs = []
        for extra in ([], ["--format", "text"], ["--csv", str(csv)]):
            code, out = run_cli(capsys, *argv, *extra)
            assert code == 0
            outputs.append(out)
        digests = (sha16(outputs[0].encode()), sha16(outputs[1].encode()), sha16(csv.read_bytes()))
        assert digests == self.PER_CLASS_BYTES[m]

    # sha256 prefixes of census on both sides of |d| = k, as written when the
    # census chi builders had their own symbol: the JSON of m = 1000003 at
    # k = 1000 (one symbol per prime), and the JSON and --csv file of m = -23
    # at k = 3000 (one period tile)
    CENSUS_BYTES = {
        (1000003, 1000): ("0cc38f984deca448", None),
        (-23, 3000): ("4249230999eacf17", "d81df83acab0f881"),
    }

    @pytest.mark.parametrize("m, k", sorted(CENSUS_BYTES))
    def test_census_bytes_unchanged(self, capsys, tmp_path, monkeypatch, m, k):
        json_digest, csv_digest = self.CENSUS_BYTES[m, k]
        monkeypatch.chdir(tmp_path)  # the JSON names the --csv path as given
        extra = ["--csv", "ratios.csv"] if csv_digest else []
        code, out = run_cli(capsys, "census", "--m", str(m), "--k", str(k), *extra)
        assert code == 0
        assert sha16(out.encode()) == json_digest
        assert csv_digest is None or sha16((tmp_path / "ratios.csv").read_bytes()) == csv_digest

    def test_per_class_cap_exits_3_before_the_sieve(self, capsys, monkeypatch):
        forbid_sieve(monkeypatch)
        code = main(["census", "--m", "-23", "--k", "99999999", "--per-class"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: cutoff needs a table of 300000000 entries, over the cap 100000000\n"

    def test_cutoff_above_table_cap_exits_3(self, capsys):
        code = main(["census", "--m", "-5", "--k", str(10**12)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: cutoff needs a table of")
        assert captured.err.count("\n") == 1


# every square-free m in [-1000, -2] and [2, 3000]; 20 seeded real fields and
# m = 1000000007 for the precision sweeps
PINNED_FIELDS = [f.m for f in squarefree_fields(-1000, -2) + squarefree_fields(2, 3000)]


def _seeded_real_fields():
    rng, out = random.Random(30), []
    while len(out) < 20:
        m = rng.randrange(2, 10**6)
        if squarefree_fields(m, m):
            out.append(m)
    return out + [1000000007]


class TestPrintedRealsPinned:
    """sha256 prefixes of the exit code, stdout and stderr of every request
    of a sweep, as printed when the regulator, the census densities and the
    Minkowski decimal came from the decimal module."""

    SWEEPS = {
        "census": (["census", "--k", "1000"], "62087644bb5cdfde"),
        "census-per-class": (["census", "--k", "1000", "--per-class"], "e6462909a02ca419"),
        "units": (["units"], "e4cf51cdeea8ee1c"),
        "minkowski": (["quad", "minkowski"], "8f34ed92684e1d8e"),
    }
    PRECISION = {
        ("200", "units"): "4facba86053ced56",
        ("200", "census"): "5578b01b6a308eb0",
        ("1000", "units"): "1164915967608272",
        ("1000", "census"): "481e7f7ee32d22c8",
    }

    @staticmethod
    def _digest(capsys, argv, fields):
        digest = hashlib.sha256()
        for m in fields:
            code = main([*argv, "--m", str(m)])
            out, err = capsys.readouterr()
            digest.update(f"{code}\n{out}{err}".encode())
        return digest.hexdigest()[:16]

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_sweep_unchanged(self, capsys, monkeypatch, sweep):
        monkeypatch.delenv("QUADRANTAL_PRECISION", raising=False)
        argv, digest = self.SWEEPS[sweep]
        assert len(PINNED_FIELDS) == 2430
        assert self._digest(capsys, argv, PINNED_FIELDS) == digest

    @pytest.mark.parametrize("precision, command", sorted(PRECISION))
    def test_precision_unchanged(self, capsys, monkeypatch, precision, command):
        monkeypatch.setenv("QUADRANTAL_PRECISION", precision)
        argv = {"units": ["units"], "census": ["census", "--k", "1000"]}[command]
        assert self._digest(capsys, argv, _seeded_real_fields()) == self.PRECISION[precision, command]


def sum_of_sieve(m, k):
    from quadrantal.census import ideal_count_sieve
    from quadrantal.quadring import ring_of_integers

    return sum(ideal_count_sieve(ring_of_integers(m), k))


def csv_by_running_sum(m, k):
    """The --csv file of census --k k from the running sum of the sieve."""
    from quadrantal.census import ideal_count_sieve
    from quadrantal.quadring import ring_of_integers

    marks = {round(10 ** (i / 4)) for i in range(4, 40)} | {k}
    lines, z = ["k,z_over_k\n"], 0
    for n, a in enumerate(ideal_count_sieve(ring_of_integers(m), k)):
        z += a
        if n in marks:
            lines.append(f"{n},{z / n!r}\n")
    return "".join(lines)


def forbid_sieve(monkeypatch):
    from quadrantal import census

    def sieve(field, k):
        pytest.fail(f"the sieve was built at k = {k}")

    monkeypatch.setattr(census, "ideal_count_sieve", sieve)


class TestFormatsAndExitCodes:
    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "quad", "ring", "--m", "2", "--format", "text")
        assert code == 0
        assert "d: 8" in out

    def test_exit_2_on_bad_input(self, capsys):
        code, _ = run_cli(capsys, "quad", "factor", "--m", "-5", "--ideal", "bogus")
        assert code == 2
        code, _ = run_cli(capsys, "poly", "divrem", "--dividend", "??", "--divisor", "x")
        assert code == 2

    def test_exit_3_on_precondition(self, capsys):
        code, _ = run_cli(capsys, "quad", "classgroup", "--m", "12")
        assert code == 3
        code, _ = run_cli(capsys, "poly", "cyclotomic", "--p", "6")
        assert code == 3

    @pytest.mark.parametrize("argv, err", [
        (["quad", "split", "--m", "-1", "--q", "318665857834031151167461"],
         "318665857834031151167461 is not prime"),
        (["cyclo", "split", "--m", "5", "--q", "318665857834031151167461"],
         "318665857834031151167461 is not prime"),
        (["field", "trace-norm", "--minpoly", "x^3-318665857834031151167461", "--element", "0,1"],
         "residual cofactor 318665857834031151167461 exceeds trial-division bound"),
        (["field", "trace-norm", "--minpoly", "x^2-1197495870662*x+318665857834031151167461",
          "--element=-399165290221,1"],
         "defining polynomial has rational root 399165290221"),
        (["quad", "split", "--m", "-1", "--q", "3317044064679887385961981"],
         "cannot certify 3317044064679887385961981 prime: "
         "Miller-Rabin to the bases 2..41 is exact below 3317044064679887385961981"),
    ], ids=["quad-split", "cyclo-split", "field-trace-norm", "field-quadratic-root", "psi-13"])
    def test_strong_pseudoprimes_exit_3(self, capsys, argv, err):
        # psi_12 = 399165290221 * 798330580441 passes the bases up to 37
        # and fails base 41; psi_13 passes every base and has no certificate.
        # A cubic's rational roots come from factorize, which cannot split
        # psi_12; a quadratic's come from its discriminant, which names the root
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_quadratic_with_unfactorable_constant_term_exits_0(self, capsys):
        # a0 = -1000003 * 1000033 is beyond trial division, but b^2 - 4 a0 is no square
        code = main(["field", "trace-norm", "--minpoly", "x^2 - 1000036000099", "--element", "0,1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out) == {"trace": "0", "norm": "-1000036000099"}

    def test_rational_root_search_at_the_divisor_cap_exits_0(self, capsys):
        # x^3 + the product of the first 18 primes: 2^18 divisors of a0, the cap, each tried as a root
        code = main(["field", "trace-norm", "--minpoly", "x^3 + 117288381359406970983270", "--element", "0,1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == '{\n  "trace": "0",\n  "norm": "-117288381359406970983270"\n}\n'

    def test_rational_root_search_over_the_divisor_cap_exits_3(self, capsys):
        # one more prime, 67: the 2^19 divisors are counted from the factorization, never built
        start = time.perf_counter()
        code = main(["field", "trace-norm", "--minpoly", f"x^3 + {117288381359406970983270 * 67}", "--element", "0,1"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: constant term has 524288 divisors to try as roots, over the cap 262144\n"
        assert elapsed < 0.1

    @pytest.mark.parametrize("q, code", [("3317044064679887385962123", 0), ("3317044064679887385962177", 3)])
    def test_primes_above_psi_13(self, capsys, q, code):
        # Pocklington certifies the first (q - 1 = 2 * a prime below psi_13),
        # not the second (q - 1 = 2^6 * 61 * 1151 * a composite above the trial bound)
        assert main(["quad", "split", "--m", "-1", "--q", q]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == "" and captured.err == (
                f"error: cannot certify {q} prime: Miller-Rabin to the bases 2..41 is exact below 3317044064679887385961981\n")
        else:
            assert json.loads(captured.out)["type"] == "inert" and captured.err == ""

    def test_division_by_zero_polynomial_exits_3(self, capsys):
        code = main(["poly", "divrem", "--dividend", "x", "--divisor", "0"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: polynomial division by zero polynomial\n"

    @pytest.mark.parametrize(
        "error, expected",
        [
            (OverflowError("int too large to convert to float"), 3),
            (RecursionError("maximum recursion depth exceeded"), 3),
            (ZeroDivisionError("division by zero"), 3),
            (ArithmeticError("the factors of 7 multiply to (49)"), 4),
            (MemoryError(), 3),
        ],
    )
    def test_error_types_map_to_exit_codes(self, capsys, monkeypatch, error, expected):
        from quadrantal import cli

        def fail(args):
            raise error

        monkeypatch.setitem(cli._HANDLERS, "cyclo", fail)
        code = main(["cyclo", "lists"])
        captured = capsys.readouterr()
        assert code == expected and captured.out == ""
        assert captured.err.startswith("error: ") and str(error) in captured.err
        assert captured.err.count("\n") == 1

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quadrantal.cli", "frobnicate"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_byte_identical_runs(self):
        for argv in (
            ["quad", "classgroup", "--m", "-23"],
            ["units", "--m", "2"],
            ["census", "--m", "-5", "--k", "300"],
        ):
            cmd = [sys.executable, "-m", "quadrantal.cli"] + argv
            a = subprocess.run(cmd, capture_output=True)
            b = subprocess.run(cmd, capture_output=True)
            assert a.returncode == b.returncode == 0
            assert a.stdout == b.stdout

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QUADRANTAL_PRECISION", "40")
        data = run_json(capsys, "units", "--m", "2")
        assert data["precision_digits"] == 40
        monkeypatch.setenv("QUADRANTAL_PRECISION", "10")  # clamped to the minimum
        data = run_json(capsys, "units", "--m", "2")
        assert data["precision_digits"] == 30

    def test_decimals_at_200_digits_match_mpmath(self, capsys, monkeypatch):
        from oracles import mpmath_census_strings, mpmath_regulator

        monkeypatch.setenv("QUADRANTAL_PRECISION", "200")
        unit = run_json(capsys, "units", "--m", "7")
        assert unit["regulator"] == mpmath_regulator(16, 6, 7, 200)  # lam = 8 + 3 sqrt(7)
        for m, d, u in ((7, 28, (16, 6)), (-5, -20, None)):
            data = run_json(capsys, "census", "--m", str(m), "--k", "300")
            got = tuple(data[key] for key in ("sigma_theoretical", "z_over_k", "sigma_h",
                                              "deviation", "normalized_deviation"))
            assert got == mpmath_census_strings(m, d, 2, u, int(data["Z_k"]), data["h"], 300, 200)

    @pytest.mark.parametrize("value", ["60", "abc", "3000000"])
    def test_minkowski_ignores_precision(self, capsys, monkeypatch, value):
        # only the units regulator and the census densities read it
        monkeypatch.delenv("QUADRANTAL_PRECISION", raising=False)
        expected = run_cli(capsys, "quad", "minkowski", "--m", "-23")
        monkeypatch.setenv("QUADRANTAL_PRECISION", value)
        assert run_cli(capsys, "quad", "minkowski", "--m", "-23") == expected
        assert len(json.loads(expected[1])["decimal"].replace(".", "")) == 30

    @pytest.mark.parametrize("argv", [["units", "--m", "7"], ["census", "--m", "-5", "--k", "300"]])
    def test_precision_over_cap_exits_3(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("QUADRANTAL_PRECISION", "3000000")
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: QUADRANTAL_PRECISION 3000000 is over the cap 1000\n"


# ---------------------------------------------------------------------------
# the parser: built per request, as far as argv needs it
# ---------------------------------------------------------------------------

def full_parser() -> argparse.ArgumentParser:
    """Every parser of cli.COMMANDS, each with all its options: the
    reference that the parser built for one argv must behave like."""
    top = argparse.ArgumentParser(prog="quadrantal", description=build_parser([]).description)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, actions) in COMMANDS.items():
        parser = sub.add_parser(command, help=help_text)
        if None not in actions:
            names = parser.add_subparsers(dest="action", required=True)
        for action, options in actions.items():
            leaf = parser if action is None else names.add_parser(action)
            leaf.add_argument("--format", choices=("json", "text"), default="json")
            for flag, keywords in options.items():
                leaf.add_argument(flag, **keywords)
    return top


def parse_outcome(parser, argv):
    """(exit code or Namespace, stdout, stderr) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


def help_paths():
    yield ()
    for command, (_, actions) in COMMANDS.items():
        yield (command,)
        yield from ((command, action) for action in actions if action is not None)


USAGE = "usage: quadrantal [-h] {poly,field,quad,units,pell,cyclo,census} ...\n"
COMMAND_CHOICES = "(choose from 'poly', 'field', 'quad', 'units', 'pell', 'cyclo', 'census')\n"
# the parser's error output for each kind of bad argv at 80 columns, pinned
# to what the full parser prints
PARSE_ERRORS = {
    "invalid command": (
        ["frobnicate"],
        USAGE + "quadrantal: error: argument command: invalid choice: 'frobnicate' " + COMMAND_CHOICES,
    ),
    "invalid action": (
        ["quad", "frobnicate"],
        "usage: quadrantal quad [-h]\n"
        "                       {ring,minkowski,split,factor,product,gcd,quotient,principal,classgroup}\n"
        "                       ...\n"
        "quadrantal quad: error: argument action: invalid choice: 'frobnicate' (choose from "
        "'ring', 'minkowski', 'split', 'factor', 'product', 'gcd', 'quotient', 'principal', "
        "'classgroup')\n",
    ),
    "missing option": (
        ["quad", "split", "--m", "2"],
        "usage: quadrantal quad split [-h] [--format {json,text}] --m M --q Q\n"
        "quadrantal quad split: error: the following arguments are required: --q\n",
    ),
    "unknown option": (
        ["units", "--m", "2", "--bogus", "1"],
        USAGE + "quadrantal: error: unrecognized arguments: --bogus 1\n",
    ),
    "option before the command": (
        ["--format", "json", "units", "--m", "2"],
        USAGE + "quadrantal: error: argument command: invalid choice: 'json' " + COMMAND_CHOICES,
    ),
    "double dash": (
        ["--", "units", "--m", "2"],
        USAGE + "quadrantal: error: argument command: invalid choice: '--' " + COMMAND_CHOICES,
    ),
}


class TestParser:
    @pytest.mark.parametrize("path", list(help_paths()), ids=" ".join)
    def test_help_lists_the_table_options(self, path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([*path, "-h"])
        assert exit_info.value.code == 0
        listed = re.findall(r"^  (-h, --help|--[\w-]+)", capsys.readouterr().out, re.M)
        actions = COMMANDS[path[0]][1] if path else {}
        action = path[1] if len(path) == 2 else None
        options = ["--format", *actions[action]] if action in actions else []
        assert listed == ["-h, --help", *options]

    @pytest.mark.parametrize("path", list(help_paths()), ids=" ".join)
    def test_help_matches_the_full_parser(self, path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [*path, "-h"]
        assert parse_outcome(build_parser(argv), argv) == parse_outcome(full_parser(), argv)

    @pytest.mark.parametrize("case", list(PARSE_ERRORS))
    def test_error_output_is_unchanged(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv, expected = PARSE_ERRORS[case]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert captured.err == expected
        assert parse_outcome(full_parser(), argv) == (2, "", expected)

    @pytest.mark.parametrize("argv", [
        [], ["-h", "quad"], ["-5", "units", "--m", "2"], ["-", "units"], [""], ["uni", "--m", "2"],
        ["quad", "-5", "split"], ["quad", "--", "split", "--m", "2", "--q", "3"],
        ["units", "--", "--m", "2"], ["units", "--m"], ["units", "--m", "x"],
        ["quad", "split", "--m=2", "--q=3"], ["quad", "split", "--m", "-5", "--q", "3", "--q", "7"],
        ["quad", "factor", "--m", "-5", "--ideal", "(6)", "--ver"], ["quad", "gcd", "--m", "-5", "--ideal", "(2)"],
        ["census", "--m", "10", "--k", "1000", "--per", "--format", "text"],
        ["field", "compose", "--op", "sum", "--p", "x^2-2", "--q", "x^2-3"], ["cyclo", "lists"],
        ["pell", "--m", "2", "--kind", "plus"], ["quad", "ring", "--m", "2", "--format", "xml"],
    ])
    def test_parse_matches_the_full_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert parse_outcome(build_parser(argv), argv) == parse_outcome(full_parser(), argv)


FULL_PARSER = full_parser()
# values for any option: negative numbers and words starting with '-' that
# are not, int() spellings argparse also takes, and what no type accepts
ODD_VALUES = st.sampled_from([
    "7", "-5", "-0", "-.5", "-1.5", "+3", " 4 ", "1_000", "\u0663", "-\u0663", "-5 3", "1e3", "x", "-x",
    "x^2 - 2", "(2, 1+w)", "", "-", "--", "-h", "--m", "a=b", "json", "sum", "plusOne", "bogus",
])


def option_values(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if "type" in keywords:
        return st.integers(-10**20, 10**20).map(str)
    return st.text(st.sampled_from("x^2+-1 ,;()w"), max_size=8)


@st.composite
def table_argvs(draw):
    """A command, its action and every option of that action in any order,
    as '--opt value' or '--opt=value', with some options dropped and 0-2
    stray words put in: repeats, abbreviations, --, -h, unknown options, odd
    values, another action."""
    command = draw(st.sampled_from(list(COMMANDS)))
    actions = COMMANDS[command][1]
    action = None if None in actions else draw(st.sampled_from(list(actions)))
    options = {"--format": {"choices": ("json", "text")}, **actions[action]}
    words = []
    for flag in draw(st.permutations(list(options))):
        keywords = options[flag]
        if draw(st.integers(0, 9)) == 0:
            continue
        if "action" in keywords:
            words.append(flag)
            continue
        value = draw(st.one_of(option_values(keywords), ODD_VALUES) if draw(st.booleans()) else
                     option_values(keywords))
        words += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    strays = [*options, *(flag[:-1] for flag in options if len(flag) > 3), "--", "-h", "--bogus", "x",
              *(a for a in actions if a is not None), *COMMANDS]
    for _ in range(draw(st.integers(0, 2)) * draw(st.integers(0, 1))):
        words.insert(draw(st.integers(0, len(words))), draw(st.one_of(st.sampled_from(strays), ODD_VALUES)))
    return [command, *([action] if action else []), *words]


def plain_argvs():
    """Every action with all its options, as '--opt value' and as '--opt=value'."""
    values = {"--op": "product", "--kind": "minusFour", "--m": "-5", "--k": "9", "--p": "7", "--q": "3"}
    for command, (_, actions) in COMMANDS.items():
        for action, options in actions.items():
            head = [command, *([action] if action else [])]
            pairs = [(flag, values.get(flag, "x - 1") if "action" not in kw else None)
                     for flag, kw in options.items()] + [("--format", "text")]
            yield head + [w for flag, v in pairs for w in ((flag,) if v is None else (flag, v))]
            yield head + [flag if v is None else f"{flag}={v}" for flag, v in pairs]


class TestFastPath:
    """The plain argv of a request is read off COMMANDS without argparse,
    into what the full parser returns for it; any other goes to argparse."""

    @pytest.mark.parametrize("argv", list(plain_argvs()), ids=" ".join)
    def test_plain_argv_takes_the_fast_path(self, argv):
        args = _fast_args(argv)
        assert args is not None
        assert vars(args) == vars(FULL_PARSER.parse_args(argv))

    @given(table_argvs())
    @settings(max_examples=400, deadline=None)
    def test_fast_path_matches_the_full_parser(self, argv):
        args = _fast_args(argv)
        if args is not None:
            outcome = parse_outcome(FULL_PARSER, argv)
            assert vars(args) == vars(outcome[0]), (argv, outcome)

    @pytest.mark.parametrize("argv", [
        ["quad", "split", "--m", "-5", "--q", "3", "--q", "7"], ["quad", "split", "--m=2", "--q", "-x"],
        ["quad", "split", "--m", "2"], ["quad", "split", "--m", "2", "--q"], ["quad", "split", "--q=3", "-h"],
        ["quad", "split", "--m", "2", "--", "--q", "3"], ["census", "--m", "2", "--k", "9", "--per"],
        ["census", "--m", "2", "--k", "9", "--per-class=1"], ["pell", "--m", "2", "--kind", "plus"],
        ["quad", "ring", "--m", "x"], ["quad", "ring", "--m", "-1.5"], ["quad", "ring", "--m", "2", "x"],
        ["quad", "--m", "2", "ring"], ["units"], [], ["-h"], ["uni", "--m", "2"],
    ], ids=" ".join)
    def test_every_other_argv_goes_to_argparse(self, argv):
        assert _fast_args(argv) is None


JSON_CHARS = st.one_of(st.characters(), st.characters(codec=None, categories=["Cs", "Cc"]),
                       st.sampled_from('"\\\x7f\U0001f600\U0010ffff\u00e9 '))
JSON_TEXT = st.text(JSON_CHARS, max_size=12)
JSON_INTS = st.one_of(st.integers(), st.integers(-10**6, 10**6).map(lambda n: 10**4400 + n),
                      st.integers(0, 10**6).map(lambda n: -(7**5200) - n))
JSON_PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_INTS, JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=16,
)


class TestJsonWriter:
    @given(JSON_PAYLOADS)
    @settings(max_examples=150, deadline=None)
    def test_writer_matches_json_dumps(self, payload):
        sys.set_int_max_str_digits(0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            emit(payload, "json")
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [{"a": Fraction(1, 2)}, [1, {2, 3}], {(1, 2): 3}], ids=repr)
    def test_what_json_dumps_refuses_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError):
            emit(payload, "json")

    @pytest.mark.parametrize("payload", [{"k": [None, 1.5]}, {1: 0}, {None: 0}, {True: 0}], ids=repr)
    def test_what_no_payload_holds_raises_type_error(self, payload):
        # every decimal a payload carries is a string, and every key is one:
        # a float or another key is a bug, where json.dumps would write it
        with pytest.raises(TypeError):
            emit(payload, "json")


def load_perfbench(name, monkeypatch, **imports):
    """perfbench/<name>.py, loaded from its file under its own name so that
    it cannot collide with tests/oracles.py, with its top-level imports of
    the names in imports served from those modules."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    for key, value in imports.items():
        monkeypatch.setitem(sys.modules, key, value)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_requests_pass_its_oracle(seed, tmp_path, monkeypatch):
    # round 0 of the benchmark's cli workload, in process, each result
    # checked by the benchmark's own oracle: the JSON writer and the fast
    # path see every template and every exit code the benchmark sends
    oracles = load_perfbench("oracles", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch, oracles=oracles)
    monkeypatch.delenv("QUADRANTAL_PRECISION", raising=False)
    failed = []
    for spec in (s for s in workloads.cli_jobs(seed) if s["round"] == 0):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in spec["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        csv = Path(argv[argv.index("--csv") + 1]) if "--csv" in argv else None
        result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                  "csv": csv.read_text() if csv and csv.is_file() else None}
        if csv:
            csv.unlink(missing_ok=True)
        problems = oracles.check_cli(spec, result)
        if problems:
            failed.append((spec["template"], argv, problems))
    assert not failed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_census_jobs_pass_its_oracle(seed, monkeypatch):
    # round 0 of the benchmark's census jobs, in process, through its own
    # runner with its SieveCapture in place: the spot values it reads off
    # the sieve's table and the totals, each checked by its own oracle
    from quadrantal import census

    oracles = load_perfbench("oracles", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch, oracles=oracles)
    jobs = load_perfbench("jobs", monkeypatch)
    capture = jobs.SieveCapture()
    monkeypatch.setattr(census, "ideal_count_sieve", capture)
    specs = [s for s in workloads.census_jobs(seed) if s["round"] == 0]
    assert {s["kind"] for s in specs} == {"sieve", "perclass"}
    failed = []
    for spec in specs:
        result = jobs.run_census(spec, jobs.prepare_census(spec), capture)
        assert len(result["spots"]) == len(spec["spots"]) and all(type(a) is int for _, a in result["spots"])
        problems = oracles.check_census(spec, result)
        if problems:
            failed.append((spec["kind"], spec["m"], spec["k"], problems))
    assert not failed


@pytest.mark.parametrize("seed", [1, 3, 10])
def test_benchmark_numberfield_jobs_pass_its_oracle(seed, monkeypatch):
    # round 0 of the benchmark's number-field jobs, in process, through its
    # own runner and oracle: the sum, the product and the shift run in the
    # order that lets the shift read R_1 off the kept sum, and seeds 3 and
    # 10 hold the pair (f, f(-x)) whose R_1 has a double root
    oracles = load_perfbench("oracles", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch, oracles=oracles)
    jobs = load_perfbench("jobs", monkeypatch)
    specs = [s for s in workloads.numberfield_jobs(seed) if s["round"] == 0]
    failed = []
    for spec in specs:
        result = jobs.run_numberfield(spec, jobs.prepare_numberfield(spec))
        problems = oracles.check_numberfield(spec, result)
        if problems:
            failed.append((spec["label"], spec["f"], spec["g"], problems))
    assert len(specs) == 17 and not failed


# What `python -m quadrantal.cli` runs (runpy._run_module_as_main); at exit,
# the last line of stderr is the number of module objects made from cli.py
# (one per compile of it), then every module in sys.modules.  The probe
# imports only what `python -m` itself loads, so the set is the request's.
LOAD_PROBE = """
import atexit, os, runpy, sys

def probe_report():
    copies = {id(m) for m in list(sys.modules.values())
              if os.path.basename(getattr(m, "__file__", None) or "") == "cli.py"}
    print(len(copies), *sorted(sys.modules), file=sys.stderr)

atexit.register(probe_report)
runpy._run_module_as_main("quadrantal.cli")
"""


def _probe(*argv):
    """(exit code, stderr lines before the report, every module in
    sys.modules, copies of cli.py) of one request in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, *argv], capture_output=True, text=True)
    *errors, report = proc.stderr.splitlines()
    copies, *loaded = report.split()
    return proc.returncode, errors, set(loaded), int(copies)


def probe_request(*argv):
    """_probe with the quadrantal modules only, by their names in the package."""
    code, errors, loaded, copies = _probe(*argv)
    return code, errors, {m.removeprefix("quadrantal.") for m in loaded if m.split(".")[0] == "quadrantal"}, copies


def imported_modules(*argv):
    """(exit code, every module in sys.modules) of one request."""
    code, _, loaded, _ = _probe(*argv)
    return code, loaded


class TestRequestLoads:
    """Each request loads the layers it runs and its own handler module, and
    compiles cli.py once: the handler modules import InputError from the
    running cli, not from a second copy."""

    BASE = {"quadrantal", "cli"}
    QUAD = BASE | {"arith", "integers", "quadring", "cli_quad"}

    @pytest.mark.parametrize("argv, extra", [
        (["quad", "split", "--m", "-5", "--q", "3"], QUAD),
        (["quad", "ring", "--m", "-5"], QUAD),
        (["quad", "factor", "--m", "-5", "--ideal", "(6)", "--verify"], QUAD),
        (["quad", "classgroup", "--m", "4"], QUAD),  # not square-free: exit 3
        (["quad", "principal", "--m", "-5", "--ideal", "(2, 1+w)"], QUAD | {"forms", "reals"}),
        (["poly", "gcd", "--a", "x^2 - 1", "--b", "x - 1"], BASE | {"integers", "polynomial", "cli_poly"}),
        (["cyclo", "lists"], BASE | {"integers", "cyclotomic", "cli_poly"}),
        (["frobnicate"], BASE | {"cli_args"}),  # argparse's exit 2
        (["census", "--m", "-5", "--k", "300"],  # imaginary: rho = 1, no unit layer
         BASE | {"arith", "integers", "quadring", "forms", "reals", "census", "cli_units"}),
        (["quad", "minkowski", "--m", "-23"], QUAD | {"reals"}),
        (["census", "--m", "10", "--k", "300"],
         BASE | {"arith", "integers", "quadring", "forms", "reals", "units", "census", "cli_units"}),
        (["units", "--m", "-5"], BASE | {"arith", "integers", "quadring", "forms", "reals", "units", "cli_units"}),
    ])
    def test_modules_loaded_and_cli_compiled_once(self, argv, extra):
        code, errors, loaded, copies = probe_request(*argv)
        assert loaded == extra, (argv, errors)
        assert copies == 1

    def test_probing_a_missing_name_imports_nothing(self):
        # a typo or a getattr(..., None) probe on cli, quadring or arith
        # loads no handler module, no parser, no form layer and no reals
        probe = ("import sys; from quadrantal import arith, cli, quadring; "
                 "hasattr(cli, 'typo'); getattr(quadring, 'typo', None); getattr(arith, 'typo', None); "
                 "print(sorted(m for m in sys.modules if m.startswith('quadrantal')))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout
        assert json.loads(out.replace("'", '"')) == ["quadrantal", "quadrantal.arith", "quadrantal.cli",
                                                     "quadrantal.integers", "quadrantal.quadring"]

    def test_bad_ideal_exits_2_with_one_line(self):
        code, errors, loaded, _ = probe_request("quad", "factor", "--m", "-5", "--ideal", "bogus")
        assert code == 2 and loaded == self.QUAD
        assert errors == ["error: ideal must be '(gen, gen, ...)' or a JSON triple, got 'bogus'"]


# runpy.run_module as a caller runs the CLI: without alter_sys, the code runs
# in a fresh namespace and sys.modules["__main__"] stays the caller's module
RUN_MODULE = "import runpy; runpy.run_module('quadrantal.cli', run_name='__main__', alter_sys={})"


@pytest.mark.parametrize("argv, code", [
    (["quad", "split", "--m", "2", "--q", "3"], 0),
    (["quad", "factor", "--m", "-5", "--ideal", "bogus"], 2),  # the handler's InputError
])
def test_run_module_answers_as_python_m(argv, code):
    runs = [[sys.executable, "-m", "quadrantal.cli", *argv]]
    runs += [[sys.executable, "-c", RUN_MODULE.format(alter), *argv] for alter in (False, True)]
    results = [subprocess.run(run, capture_output=True, text=True) for run in runs]
    first = results[0]
    assert first.returncode == code and (first.stdout if code == 0 else first.stderr).count("\n") >= 1
    assert [(r.returncode, r.stdout, r.stderr) for r in results] == [(code, first.stdout, first.stderr)] * 3


class TestStartup:
    HEAVY = {"mpmath", "quadrantal.quadring", "quadrantal.numberfield", "quadrantal.census"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["poly", "divrem", "--dividend", "x^2 - 2", "--divisor", "x - 1"],
            ["cyclo", "lists"],
            ["frobnicate"],
        ],
    )
    def test_light_requests_load_no_heavy_layer(self, argv):
        code, loaded = imported_modules(*argv)
        assert code == (2 if argv == ["frobnicate"] else 0)
        assert "quadrantal" in loaded  # the probe sees the package's imports
        assert not loaded & self.HEAVY

    @pytest.mark.parametrize(
        "argv",
        [
            ["quad", "classgroup", "--m", "-23", "--verify"],
            ["pell", "--m", "2", "--kind", "plusOne"],
            ["units", "--m", "2"],
            ["census", "--m", "-5", "--k", "300"],
            ["census", "--m", "10", "--k", "300", "--per-class", "--csv", "{tmp}/census.csv"],
            ["quad", "minkowski", "--m", "-23"],
        ],
    )
    def test_exact_requests_skip_mpmath(self, argv, tmp_path):
        # printed reals are integer fixed point (quadrantal.reals), and reports
        # are records: dataclasses would pull in inspect, ast, dis and tokenize
        code, loaded = imported_modules(*(a.format(tmp=tmp_path) for a in argv))
        assert code == 0
        assert "quadrantal.quadring" in loaded
        assert not loaded & {"mpmath", "dataclasses", "inspect"}

    @pytest.mark.parametrize("argv", [
        ["poly", "gcd", "--a=x^2 - 1", "--b", "x - 1"],
        ["field", "trace-norm", "--minpoly", "x^2 + 5", "--element", "1,2"],
        ["quad", "factor", "--m", "-5", "--ideal", "(6)", "--verify"],
        ["units", "--m", "7"],
        ["pell", "--m", "2", "--kind", "minusOne"],
        ["cyclo", "split", "--m", "7", "--q", "2", "--format", "text"],
        ["census", "--m", "10", "--k", "300", "--per-class", "--csv", "{tmp}/census.csv"],
    ], ids=lambda argv: argv[0])
    def test_successful_requests_import_neither_argparse_nor_json(self, argv, tmp_path):
        code, loaded = imported_modules(*(a.format(tmp=tmp_path) for a in argv))
        assert code == 0
        assert "quadrantal" in loaded
        assert not loaded & {"argparse", "gettext", "locale", "json", "quadrantal.cli_args"}

    @pytest.mark.parametrize("argv", [["frobnicate"], ["quad", "split", "--m", "2"]])
    def test_rejected_argv_goes_to_argparse(self, argv):
        code, loaded = imported_modules(*argv)
        assert code == 2
        assert {"argparse", "quadrantal.cli_args"} <= loaded

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["quad", "split", "--m=5", "--q", "3", "--m", "2"], 0),  # a repeat: the last wins
        (["poly", "gcd", "--a", "x", "--b"], 2),  # a value missing
    ])
    def test_only_a_fallback_argv_loads_the_parser(self, argv, code):
        # the plain requests above load no cli_args; these do
        got, loaded = imported_modules(*argv)
        assert got == code
        assert {"argparse", "quadrantal.cli_args"} <= loaded

    @pytest.mark.parametrize("argv", [
        ["census", "--m", "-5", "--k", "300"],
        ["census", "--m", "10", "--k", "300"],
        ["census", "--m", "-14", "--k", "300", "--per-class", "--csv", "{tmp}/census.csv"],
        ["census", "--m", "10", "--k", "300", "--per-class", "--csv", "{tmp}/census.csv"],
        ["units", "--m", "94"],
        ["units", "--m", "-3"],
        ["pell", "--m", "13", "--kind", "minusOne"],
        ["quad", "classgroup", "--m", "-23", "--verify"],
        ["quad", "classgroup", "--m", "79"],
        ["quad", "principal", "--m", "10", "--ideal", "(2, w)"],
        ["quad", "minkowski", "--m", "-23"],
        ["quad", "minkowski", "--m", "10"],
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_printed_reals_load_no_decimal_or_fractions(self, argv, tmp_path):
        # regulators, densities and deviations are integer fixed point in
        # reals, the Minkowski upper bound is an int pair, and an imaginary
        # census (rho = 1) loads no unit layer
        code, loaded = imported_modules(*(a.format(tmp=tmp_path) for a in argv))
        assert code == 0
        assert "quadrantal.reals" in loaded
        assert not loaded & {"decimal", "fractions", "numbers"}
        if argv[0] == "census":
            assert ("quadrantal.units" in loaded) == (int(argv[2]) > 0)

    @pytest.mark.parametrize("argv, code", [
        (["quad", "split", "--m", "-5", "--q", "3"], 0),
        (["quad", "factor", "--m", "-5", "--ideal", "(6)", "--verify"], 0),
        (["quad", "ring", "--m", "-5", "--format", "text"], 0),
        (["quad", "classgroup", "--m", "4"], 3),  # not square-free
    ])
    def test_ideal_requests_load_no_decimal_core(self, argv, code):
        # the decimal core and the Minkowski bound live in reals, which a
        # split, a factorization or the ring data never reach
        got, loaded = imported_modules(*argv)
        assert got == code
        assert "quadrantal.quadring" in loaded
        assert not loaded & {"fractions", "decimal", "numbers", "quadrantal.reals", "quadrantal.forms"}

    @pytest.mark.parametrize("argv", [
        ["poly", "divrem", "--dividend", "x^2 - 2", "--divisor", "x - 1"],
        ["poly", "gcd", "--a", "x^2 - 1", "--b", "x - 1"],
        ["poly", "content", "--poly", "2*x + 4"],
        ["poly", "eisenstein", "--poly", "x^3 - 2"],
        ["poly", "cyclotomic", "--p", "7"],
        ["field", "trace-norm", "--minpoly", "x^2 + 5", "--element", "1,2"],
        ["field", "discriminant", "--minpoly", "x^2 - 2", "--tuple", "1,0;0,1"],
        ["field", "minpoly-of", "--minpoly", "x^3 - 3", "--element", "0,0,1"],
        ["field", "compose", "--op", "sum", "--p", "x^2 - 2", "--q", "x^2 - 3"],
        ["field", "primitive-element", "--p", "x^2 - 2", "--q", "x^3 - 3"],
        ["field", "denominator-clearing", "--minpoly", "x^2 - 2", "--element", "1/2,1/3"],
        ["cyclo", "split", "--m", "12", "--q", "2"],
        ["cyclo", "lists"],
    ], ids=lambda argv: f"{argv[0]}-{argv[1]}")
    def test_polynomial_requests_load_no_reals(self, argv):
        code, loaded = imported_modules(*argv)
        assert code == 0
        assert "quadrantal.reals" not in loaded

    @pytest.mark.parametrize("argv, out", [
        *((argv, None) for argv in [
            ["poly", "divrem", "--dividend", "x^2 - 2", "--divisor", "x - 1"],
            ["poly", "gcd", "--a", "x^2 - 1", "--b", "x - 1"],
            ["poly", "content", "--poly", '["4", "-6", "007"]'],
            ["poly", "eisenstein", "--poly", "x^3 - 2"],
            ["poly", "cyclotomic", "--p", "7"],
            ["field", "trace-norm", "--minpoly", "x^2 + 5", "--element", "1,2"],
            ["field", "discriminant", "--minpoly", "x^2 - 2", "--tuple", "1,0;0,1"],
            ["field", "minpoly-of", "--minpoly", "x^3 - 3", "--element", '{"coords": [0, "-0", "+1"]}'],
            ["field", "compose", "--op", "product", "--p", "x^2 - 2", "--q", "x^2 - 3"],
            ["field", "primitive-element", "--p", "x^2 - 2", "--q", "x^3 - 3"],
            ["field", "denominator-clearing", "--minpoly", "x^2 - 2", "--element", "1,3"],
            ["cyclo", "split", "--m", "12", "--q", "2"],
            ["cyclo", "lists"],
        ]),
        (["field", "denominator-clearing", "--minpoly", "x^2 - 2", "--element", "1/2,1/3"],
         '{\n  "n": "6",\n  "cleared_coords": [\n    "3",\n    "2"\n  ]\n}\n'),
        (["poly", "gcd", "--a", "x^2 - 1/4", "--b", "2*x - 1"],
         '{\n  "gcd": [\n    "-1/2",\n    "1"\n  ],\n  "gcd_text": "-1/2 + 1*x"\n}\n'),
    ], ids=lambda v: "-".join(v[:2]) if isinstance(v, list) else "rational" if v else "integral")
    def test_only_values_off_the_integers_load_fractions(self, argv, out, capsys):
        # integers are read by int and divided by divmod, so fractions (and
        # the decimal and numbers modules it imports) load only for a value
        # that is not an int; such a request prints what it always printed
        code, loaded = imported_modules(*argv)
        assert code == 0
        if out is None:
            assert not loaded & {"fractions", "decimal", "numbers"}
        else:
            assert "fractions" in loaded
            assert run_cli(capsys, *argv) == (0, out)

    def test_star_import_binds_the_six_names(self):
        code = (
            "import json, sys\n"
            "import quadrantal\n"
            "layers = sorted(m for m in sys.modules if m.startswith('quadrantal.'))\n"
            "ns = {}\n"
            "exec('from quadrantal import *', ns)\n"
            "del ns['__builtins__']\n"
            "print(json.dumps([layers, {k: v.__module__ for k, v in ns.items()}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        layers, names = json.loads(proc.stdout)
        assert layers == []
        assert names == {
            "Poly": "quadrantal.polynomial",
            "NumberField": "quadrantal.numberfield",
            "FieldElement": "quadrantal.numberfield",
            "QuadraticField": "quadrantal.quadring",
            "QuadInt": "quadrantal.quadring",
            "QuadIdeal": "quadrantal.quadring",
        }

    def test_unknown_package_attribute_raises(self):
        import quadrantal

        with pytest.raises(AttributeError):
            quadrantal.NoSuchName

    def test_period_overflow_lives_in_arith(self, capsys, monkeypatch):
        from quadrantal import arith, cli, units

        assert units.PeriodOverflow is arith.PeriodOverflow

        def overflow(args):
            raise arith.PeriodOverflow("period exceeds cap 5")

        monkeypatch.setitem(cli._HANDLERS, "units", overflow)
        assert main(["units", "--m", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: period exceeds cap 5\n"


class TestCleanFailures:
    @pytest.mark.parametrize("element", ["abc,1", "1/0,1", ","])
    def test_malformed_element_exits_2(self, capsys, element):
        code = main(["field", "trace-norm", "--minpoly", "x^2+1", "--element", element])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot parse element {element!r}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["field", "trace-norm", "--minpoly", "x^2+1", "--element", "1e-1000000,1"],
        ["poly", "content", "--poly", '["1e100000000", 1]'],
        ["field", "minpoly-of", "--minpoly", "x^2+1", "--element", '{"coords": ["1E+1_001", 1]}'],
    ], ids=["element", "json-poly", "json-element"])
    def test_exponent_over_cap_exits_2_at_once(self, argv):
        # Fraction would build a 10^6-digit denominator (or a 10^8-digit
        # numerator) and the CLI would print it in full; the cap refuses first
        proc = subprocess.run([sys.executable, "-m", "quadrantal.cli", *argv],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: cannot parse ")
        assert proc.stderr.endswith("has an exponent beyond the cap of 1000\n")
        assert proc.stderr.count("\n") == 1

    def test_exponent_within_cap_keeps_its_value(self, capsys):
        out = run_json(capsys, "field", "trace-norm", "--minpoly", "x^2+1", "--element", "1e-3,1.5E1")
        assert out == {"trace": "1/500", "norm": "225000001/1000000"}
        out = run_json(capsys, "field", "trace-norm", "--minpoly", "x^2+1", "--element", "1e1000,0")
        assert out == {"trace": str(2 * 10**1000), "norm": str(10**2000)}

    @pytest.mark.parametrize("action, option, value", [
        ("trace-norm", "--element", "1,2,3"),
        ("minpoly-of", "--element", "1,2,3"),
        ("denominator-clearing", "--element", '{"coords": ["1/2", 2, 3]}'),
        ("discriminant", "--tuple", "1,0;0,1,3"),
    ])
    def test_more_coordinates_than_the_degree_exit_2(self, capsys, action, option, value):
        code = main(["field", action, "--minpoly", "x^2+1", option, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: element ")
        assert captured.err.endswith(" has 3 coordinates, more than the field's degree 2\n")

    def test_fewer_coordinates_pad_with_zeros(self, capsys):
        from quadrantal.numberfield import NumberField
        from quadrantal.polynomial import Poly

        assert run_json(capsys, "field", "trace-norm", "--minpoly", "x^2+1", "--element", "3") == {
            "trace": "6", "norm": "9"}
        # the library still reduces any polynomial: 1 + 2 t + 3 t^2 = -2 + 2 t
        assert NumberField(Poly([1, 0, 1])).element([1, 2, 3]).repr == Poly([-2, 2])

    def test_field_degree_over_cap_exits_3(self, capsys):
        code = main(["field", "trace-norm", "--minpoly", "x^40000+1", "--element", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: degree 40000 is over the cap 400\n"

    def test_polynomial_degree_over_table_cap_exits_2(self, capsys):
        code = main(["poly", "divrem", "--dividend", "x^1000000000", "--divisor", "x"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot parse polynomial 'x^1000000000': degree")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "p, q, name",
        [
            # a repeated root of q: no shift c up to 1000 separates the roots
            ("x^2 - 2", "x^4 + 2*x^2 + 1", "q"),
            # (x^2 - x + 1)^2: the numeric root finder does not converge
            ("x^4 - 2*x^3 + 3*x^2 - 2*x + 1", "x^2 - x + 3", "p"),
        ],
    )
    def test_primitive_element_of_repeated_root_exits_3(self, capsys, p, q, name):
        code = main(["field", "primitive-element", "--p", p, "--q", q])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {name} has a repeated root\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "compose", "--op", "sum", "--p", "x^300+2", "--q", "x^300+3"],
            ["field", "compose", "--op", "product", "--p", "x^21+2", "--q", "x^20+3"],
            ["field", "primitive-element", "--p", "x^60+2", "--q", "x^60+3"],
        ],
    )
    def test_composed_degree_over_cap_exits_3_at_once(self, capsys, argv):
        # degree 90,000 would cost hours of power sums; the cap is checked first
        start = time.perf_counter()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: composed degree ")
        assert captured.err.endswith(" is over the cap 400\n")
        assert time.perf_counter() - start < 5

    def test_shift_search_exhausted_exits_3(self, capsys, monkeypatch):
        from quadrantal import numberfield

        monkeypatch.setattr(numberfield, "MAX_SHIFT", 0)
        code = main(["field", "primitive-element", "--p", "x^2 - 2", "--q", "x^3 - 3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: no admissible shift found up to 0; inputs degenerate?\n"

    def test_closed_stdout_exits_1_without_traceback(self):
        # the class table of m = -40289 (h = 176, 338,099 bytes) is over five
        # 64 KiB pipe buffers, so the process is still writing when the
        # reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadrantal.cli", "quad", "classgroup", "--m", "-40289",
             "--verify"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""


# ---------------------------------------------------------------------------
# argv fuzz: every request ends in exit 0, 2 or 3 with no exception escaping
# ---------------------------------------------------------------------------

JUNK = st.one_of(
    st.text(alphabet="0123456789-+*/^,;(){}[]:\"wxabc ", max_size=10),
    st.sampled_from(["abc,1", "1/0,1", ",", "{}", "[]", "{\"coords\": 5}", "{\"m\": []}",
                     "{\"minpoly\": 7}", "(1/0)", "1,,2"]),
)
M = st.integers(-200, 200).map(str)
FMT = st.sampled_from([[], ["--format", "text"]])


@st.composite
def poly_texts(draw, monic=False):
    """A polynomial of degree at most 4, as text or as a JSON array."""
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4 if monic else 5))
    if monic:
        coeffs.append(1)
    if draw(st.booleans()):
        return json.dumps([str(c) for c in coeffs])
    return " + ".join(f"{c}*x^{i}" for i, c in enumerate(coeffs))


ELEMENTS = st.one_of(
    st.lists(st.fractions(-20, 20, max_denominator=9), min_size=1, max_size=4).map(
        lambda cs: ",".join(str(c) for c in cs)
    ),
    JUNK,
)
QUAD_INTS = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).map(lambda t: f"{t[0]}+{t[1]}w")
IDEALS = st.one_of(
    st.lists(QUAD_INTS, min_size=1, max_size=3).map(lambda gs: "(" + ", ".join(gs) + ")"),
    st.fixed_dictionaries(
        {k: st.integers(-20, 20).map(str) for k in "mabc"}
    ).map(json.dumps),
    JUNK,
)


@st.composite
def argvs(draw):
    poly, monic, ideal = poly_texts(), poly_texts(monic=True), IDEALS
    command = draw(st.sampled_from([
        lambda: ["poly", "divrem", "--dividend", draw(poly), "--divisor", draw(poly)],
        lambda: ["poly", "gcd", "--a", draw(poly), "--b", draw(poly)],
        lambda: ["poly", draw(st.sampled_from(["content", "eisenstein"])), "--poly", draw(poly)],
        lambda: ["poly", "cyclotomic", "--p", str(draw(st.integers(-5, 2000)))],
        lambda: ["field", draw(st.sampled_from(["trace-norm", "minpoly-of", "denominator-clearing"])),
                 "--minpoly", draw(monic), "--element", draw(ELEMENTS)],
        lambda: ["field", "discriminant", "--minpoly", draw(monic),
                 "--tuple", ";".join(draw(st.lists(ELEMENTS, min_size=1, max_size=4)))],
        lambda: ["field", "compose", "--op", draw(st.sampled_from(["sum", "product"])),
                 "--p", draw(monic), "--q", draw(monic)],
        lambda: ["field", "primitive-element", "--p", draw(monic), "--q", draw(monic)],
        lambda: ["quad", draw(st.sampled_from(["ring", "minkowski"])), "--m", draw(M)],
        lambda: ["quad", "split", "--m", draw(M), "--q", str(draw(st.integers(-5, 2000)))],
        lambda: ["quad", "factor", "--m", draw(M), "--ideal", draw(ideal),
                 *draw(st.sampled_from([[], ["--verify"]]))],
        lambda: ["quad", draw(st.sampled_from(["product", "gcd", "quotient"])), "--m", draw(M),
                 "--ideal-a", draw(ideal), "--ideal-b", draw(ideal)],
        lambda: ["quad", "principal", "--m", draw(M), "--ideal", draw(ideal)],
        lambda: ["quad", "classgroup", "--m", draw(M), *draw(st.sampled_from([[], ["--verify"]]))],
        lambda: ["units", "--m", draw(M)],
        lambda: ["pell", "--m", draw(M), "--kind",
                 draw(st.sampled_from(["plusOne", "minusOne", "plusFour", "minusFour"]))],
        lambda: ["cyclo", "split", "--m", draw(M), "--q", str(draw(st.integers(-5, 2000)))],
        lambda: ["cyclo", "lists"],
        lambda: ["census", "--m", draw(M), "--k", str(draw(st.integers(0, 2000))),
                 *draw(st.sampled_from([[], ["--per-class"]])),
                 *draw(st.sampled_from([[], ["--csv", os.devnull]]))],
        lambda: draw(st.lists(st.one_of(JUNK, st.sampled_from(["quad", "poly", "--m", "--k"])),
                              max_size=4)),
    ]))
    return command() + draw(FMT)


# a valid field, and an element with one coordinate that is no rational number
EISENSTEIN = st.tuples(st.integers(1, 4), st.sampled_from([2, 3, 5, 7])).map(
    lambda t: f"x^{t[0]} - {t[1]}"
)
BAD_COORDS = st.sampled_from(["abc", "1/0", "", "x", "--1", "1/2/3", "nan"])


@st.composite
def malformed_element_argvs(draw):
    coords = draw(st.lists(st.integers(-9, 9).map(str), max_size=3))
    coords.insert(draw(st.integers(0, len(coords))), draw(BAD_COORDS))
    action = draw(st.sampled_from(["trace-norm", "minpoly-of", "denominator-clearing"]))
    return ["field", action, "--minpoly", draw(EISENSTEIN), "--element", ",".join(coords)]


@given(st.one_of(
    argvs().map(lambda argv: (argv, {0, 2, 3})),
    malformed_element_argvs().map(lambda argv: (argv, {2})),
))
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_exits_0_2_or_3(request):
    argv, codes = request
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    assert code in codes, (argv, err.getvalue())
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 or code == 2, (argv, err.getvalue())


class TestMemoryBudget:
    """A request the caps admit but memory does not ends in one line, exit 3;
    a class group's h x h table is refused before any row, and a plain
    census reads h off the coset walk and builds no table at any h."""

    def test_memory_error_in_emit_exits_3_with_one_line(self, capsys, monkeypatch):
        # a handler's MemoryError: TestFormatsAndExitCodes.test_error_types_map_to_exit_codes
        from quadrantal import cli

        def fail(payload, fmt):
            raise MemoryError

        monkeypatch.setattr(cli, "emit", fail)
        code = main(["cyclo", "lists"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: out of memory") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, tables", [
        (["census", "--m", "-14", "--k", "1000"], 0),
        (["census", "--m", "10", "--k", "1000"], 0),
        (["census", "--m", "-14", "--k", "1000", "--per-class"], 1),
        (["census", "--m", "10", "--k", "1000", "--per-class"], 1),
        (["quad", "classgroup", "--m", "-14"], 1),
        (["quad", "classgroup", "--m", "10"], 1),
    ])
    def test_table_pass_runs_only_for_a_report(self, capsys, monkeypatch, argv, tables):
        from quadrantal import census, forms

        walks, tabled = [], []
        cosets, tabulate = forms._cosets, forms._tabulate

        def walk(field):
            walks.append(cosets(field))
            return walks[-1]

        def table(field, walked):
            tabled.append(walked)
            return tabulate(field, walked)

        for module in (forms, census):
            monkeypatch.setattr(module, "_cosets", walk)
            monkeypatch.setattr(module, "_tabulate", table)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert len(walks) == 1 and len(tabled) == tables
        assert all(walked is walks[0] for walked in tabled)

    # (argv, exit code): the first rungs of a memory-budget ladder; h = 31,057,
    # 7,253 and 39,809
    RUNGS = [
        ("census --m -100000000003 --k 1000", 0),
        ("census --m -100000007 --k 1000000", 0),
        ("quad classgroup --m -10000000019", 3),
        ("census --m -100000000003 --k 1000 --per-class", 3),
        ("census --m -100000007 --k 1000000 --per-class", 3),
    ]

    # A child's ru_maxrss starts from the resident set of the process that
    # forked it, so the CLI is forked from this small launcher, not from
    # pytest: the launcher limits the CLI to 1 GB of address space and 60 s
    # of CPU, execs it with stdout and stderr in the two files it is given,
    # and prints the CLI's exit code and ru_maxrss (KB).
    LAUNCHER = """
import os, resource, sys
out, err, *argv = sys.argv[1:]
pid = os.fork()
if not pid:
    for fd, path in ((1, out), (2, err)):
        os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
    os.execv(sys.executable, [sys.executable, "-m", "quadrantal.cli", *argv])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

    @pytest.mark.parametrize("argv, expected", RUNGS, ids=[argv for argv, _ in RUNGS])
    def test_rung_under_1_gb(self, tmp_path, argv, expected):
        out, err = tmp_path / "out", tmp_path / "err"
        launcher = subprocess.run([sys.executable, "-c", self.LAUNCHER, str(out), str(err), *argv.split()],
                                  capture_output=True, text=True, check=True)
        code, maxrss = map(int, launcher.stdout.split())
        stderr = err.read_text()
        assert code == expected, stderr
        assert "Traceback" not in stderr
        assert maxrss < 100 * 1024  # KB: no table was built
        if expected:
            assert out.read_bytes() == b"" and stderr.count("\n") == 1
            assert stderr.startswith("error: ") and "over the cap 100000000" in stderr
        else:
            assert stderr == ""
