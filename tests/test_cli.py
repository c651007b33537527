import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrantal.cli import COMMANDS, build_parser, main

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

    def test_content(self, capsys):
        data = run_json(capsys, "poly", "content", "--poly", "[\"2\", \"4\", \"6\"]")
        assert data["content"] == "2" and data["primitive"] == ["1", "2", "3"]

    def test_eisenstein(self, capsys):
        data = run_json(capsys, "poly", "eisenstein", "--poly", "x^3 - 2")
        assert data["witness"] == "2"
        data = run_json(capsys, "poly", "eisenstein", "--poly", "x^2 + 4")
        assert data["witness"] is None

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

    @pytest.mark.parametrize("per_class", [[], ["--per-class"]])
    def test_csv_sieves_once(self, capsys, tmp_path, monkeypatch, per_class):
        from quadrantal import census
        from quadrantal.quadring import ring_of_integers

        calls = []
        sieve = census.ideal_count_sieve

        def counting_sieve(field, k):
            calls.append(k)
            return sieve(field, k)

        monkeypatch.setattr(census, "ideal_count_sieve", counting_sieve)
        csv = tmp_path / "ratios.csv"
        run_json(capsys, "census", "--m", "-23", "--k", "3000", *per_class, "--csv", str(csv))
        assert calls == [3000]
        rows = census.checkpoint_ratios(ring_of_integers(-23), 3000)
        expected = "k,z_over_k\n" + "".join(f"{kp},{ratio!r}\n" for kp, ratio in rows)
        assert csv.read_text() == expected

    def test_plain_census_builds_no_table(self, capsys, monkeypatch):
        # |d| = 20 <= k: Z(k) is the hyperbola sum and nothing prints the table
        from quadrantal import census

        def sieve(field, k):
            pytest.fail(f"the sieve was built at k = {k}")

        monkeypatch.setattr(census, "ideal_count_sieve", sieve)
        for per_class in ([], ["--per-class"]):
            data = run_json(capsys, "census", "--m", "-5", "--k", "1000", *per_class)
            assert data["Z_k"] == "1403"

    def test_census_past_the_hyperbola_sieves_once(self, capsys, monkeypatch):
        # |d| = 4000012 > k: Z(k) is the sum of the table
        from quadrantal import census

        calls = []
        sieve = census.ideal_count_sieve

        def counting_sieve(field, k):
            calls.append(k)
            return sieve(field, k)

        monkeypatch.setattr(census, "ideal_count_sieve", counting_sieve)
        data = run_json(capsys, "census", "--m", "1000003", "--k", "1000")
        assert calls == [1000]
        assert int(data["Z_k"]) == sum_of_sieve(1000003, 1000)

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
        from quadrantal import census

        def sieve(field, k):
            pytest.fail(f"the sieve was built at k = {k}")

        monkeypatch.setattr(census, "ideal_count_sieve", sieve)
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


def sum_of_sieve(m, k):
    from quadrantal.census import ideal_count_sieve
    from quadrantal.quadring import ring_of_integers

    return sum(ideal_count_sieve(ring_of_integers(m), k))


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


def imported_modules(*argv):
    """The modules a fresh `python -m quadrantal.cli` process imports, as
    -X importtime lists them on stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "quadrantal.cli", *argv],
        capture_output=True,
        text=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


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
        loaded = imported_modules(*argv)
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
        # printed decimals come from the decimal module, and reports are
        # records: dataclasses would pull in inspect, ast, dis and tokenize
        loaded = imported_modules(*(a.format(tmp=tmp_path) for a in argv))
        assert "quadrantal.quadring" in loaded
        assert not loaded & {"mpmath", "dataclasses", "inspect"}

    def test_printed_decimal_loads_decimal(self):
        # the probe above does see the modules a printed decimal uses
        assert {"decimal", "quadrantal.units"} <= imported_modules("units", "--m", "2")

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
