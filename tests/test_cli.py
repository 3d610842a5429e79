"""Command-line behavior: output shapes, exit codes, file round-trips."""

import itertools
import json
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from cyclicnum.cli import main


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCheck:
    def test_cyclic_number(self, capsys):
        rc, out, _ = run(capsys, "check", "15")
        assert rc == 0
        assert "gcd(n, phi(n)): 1" in out
        assert "every group of order 15 is cyclic" in out

    def test_square_failure(self, capsys):
        rc, out, _ = run(capsys, "check", "4")
        assert rc == 1
        assert "squarefree: no (2^2 divides 4)" in out
        assert "a non-cyclic group of order 4 exists" in out

    def test_arrow_failure(self, capsys):
        rc, out, _ = run(capsys, "check", "21")
        assert rc == 1
        assert "prime pair with p dividing q-1: (3, 7)" in out

    def test_zero_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "check", "0")
        assert rc == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "n,factorization,rc",
        [
            (2**63 - 25, [[2**63 - 25, 1]], 0),  # the largest prime below 2^63
            ((2**31 - 1) * (2**31 + 11), [[2**31 - 1, 1], [2**31 + 11, 1]], 0),
            ((2**31 - 1) ** 2, [[2**31 - 1, 2]], 1),
        ],
        ids=["largest-prime", "balanced-semiprime", "prime-square"],
    )
    def test_extremes_of_the_range(self, capsys, n, factorization, rc):
        got, out, _ = run(capsys, "check", str(n), "--json")
        assert got == rc
        assert json.loads(out)["factorization"] == factorization

    def test_json_shape(self, capsys):
        rc, out, _ = run(capsys, "check", "20", "--json")
        assert rc == 1
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["factorization"] == [[2, 2], [5, 1]]
        assert data["square_prime"] == 2
        assert data["arrow_pair"] == [2, 5]
        assert data["cyclic_number"] is False


class TestSieve:
    def test_plain_listing(self, capsys):
        rc, out, _ = run(capsys, "sieve", "1", "8")
        assert rc == 0
        assert out == "1\n2\n3\n5\n7\n"

    def test_json_is_bare_array(self, capsys):
        rc, out, _ = run(capsys, "sieve", "14", "16", "--json")
        assert rc == 0 and out == "[15]\n"
        rc, out, _ = run(capsys, "sieve", "20", "22", "--json")
        assert rc == 0 and out == "[]\n"

    @pytest.mark.parametrize("lo,hi", [("5", "4"), ("0", "4"), ("1", "2000000")])
    def test_bad_ranges(self, capsys, lo, hi):
        rc, _, err = run(capsys, "sieve", lo, hi)
        assert rc == 2 and "error" in err


class TestWitness:
    def test_stdout_certificate(self, capsys):
        rc, out, _ = run(capsys, "witness", "6")
        assert rc == 0
        cert = json.loads(out)
        assert list(cert) == ["n", "reason", "params", "degree", "generators"]
        assert cert["reason"] == "arrow"
        assert cert["params"] == {"p1": 2, "p2": 3, "a": 2}
        assert cert["degree"] == 3

    def test_layout_is_readmes_example(self, capsys):
        # One field per line, params and generators compact, byte for byte.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```\n", 1)[0]
        _, out, _ = run(capsys, "witness", "6")
        assert out == block

    def test_bytes_deterministic(self, capsys):
        _, first, _ = run(capsys, "witness", "4")
        _, second, _ = run(capsys, "witness", "4")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        rc, out, _ = run(capsys, "witness", "12", "--out", str(path))
        assert rc == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 12

    def test_cyclic_number_refused(self, capsys):
        rc, out, err = run(capsys, "witness", "7")
        assert rc == 1 and out == ""
        assert "cyclic number" in err

    def test_degree_cap(self, capsys):
        rc, _, err = run(capsys, "witness", "20000")
        assert rc == 2 and "cap" in err
        rc, out, _ = run(capsys, "witness", "20000", "--max-degree", "10002")
        assert rc == 0 and json.loads(out)["degree"] == 10002


class TestVerify:
    def test_round_trip_via_file(self, capsys, tmp_path):
        path = tmp_path / "w6.json"
        run(capsys, "witness", "6", "--out", str(path))
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == 0
        assert "max element order: 3" in out
        assert "verdict: pass" in out

    def test_indented_certificate_verifies(self, capsys, tmp_path):
        # Certificates written with every image on its own line still load.
        _, out, _ = run(capsys, "witness", "12")
        path = tmp_path / "w12.json"
        path.write_text(json.dumps(json.loads(out), indent=2) + "\n", encoding="utf-8")
        assert len(path.read_text().splitlines()) > len(out.splitlines())
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == 0 and "verdict: pass" in out

    def test_numeric_target(self, capsys):
        rc, out, _ = run(capsys, "verify", "12")
        assert rc == 0 and "order matches n: yes" in out

    def test_numeric_cyclic_number(self, capsys):
        rc, _, err = run(capsys, "verify", "15")
        assert rc == 1 and "cyclic number" in err

    def test_cap_bounds_each_closed_block(self, capsys):
        # The witness of 100 is a 2-cycle and a 50-cycle on 52 points: two
        # one-generator blocks, of orders 2 and 50, so nothing is closed.
        rc, out, err = run(capsys, "verify", "100", "--max-order", "60")
        assert rc == 0 and err == ""
        assert "group size: 100" in out and "verdict: pass" in out

    def test_closure_cap_says_how_far_it_got(self, capsys, tmp_path):
        # analyze closes the whole group of the witness of 100: the 50-cycle's
        # powers fit under 60, its coset by the 2-cycle does not.
        path = tmp_path / "w100.json"
        run(capsys, "witness", "100", "--out", str(path))
        rc, out, err = run(capsys, "analyze", str(path), "--max-order", "60")
        assert rc == 2 and out == ""
        assert "group closure exceeded the cap of 60 elements (50 built, degree 52)" in err

    @pytest.mark.parametrize(
        "n, largest",
        [(950309, 9797), (20013, 6671)],
        ids=["square-97^2*101", "arrow-3*7-beside-953"],
    )
    def test_witnesses_past_the_default_closure_cap(self, capsys, n, largest):
        # 950309 = 97^2 * 101 is a 97-cycle beside a 9797-cycle; the arrow
        # witness of 20013 = 3 * 7 * 953 closes only its affine block of 21 elements.
        rc, out, err = run(capsys, "verify", str(n), "--json")
        assert rc == 0 and err == ""
        report = json.loads(out)
        assert report["group_size"] == n and report["max_element_order"] == largest
        assert report["passed"]

    def test_default_closure_cap_refuses_a_large_block(self, capsys):
        # The witness of 20005 = 5 * 4001 is one block of two affine maps,
        # whose 20005 elements are past the default closure cap.
        rc, out, err = run(capsys, "verify", "20005")
        assert rc == 2 and out == ""
        assert err == "error: group closure exceeded the cap of 20000 elements (16004 built, degree 4001)\n"

    def test_tampered_certificate_fails_mathematically(self, capsys, tmp_path):
        path = tmp_path / "w6.json"
        run(capsys, "witness", "6", "--out", str(path))
        data = json.loads(path.read_text())
        data["generators"] = data["generators"][:1]  # drop one generator
        path.write_text(json.dumps(data))
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == 1
        assert "order matches n: no" in out

    def test_inconsistent_certificate_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "w6.json"
        run(capsys, "witness", "6", "--out", str(path))
        data = json.loads(path.read_text())
        data["params"]["a"] = 1  # breaks the multiplicative-order condition
        path.write_text(json.dumps(data))
        rc, _, err = run(capsys, "verify", str(path))
        assert rc == 2 and "error" in err

    @pytest.mark.parametrize(
        "order,fields",
        [
            (12, {"params": {"p": 2**61 - 1}}),
            (6, {"params": {"p1": 2, "p2": 2**61 - 1, "a": 2}, "n": 2 * (2**61 - 1)}),
        ],
        ids=["square", "arrow"],
    )
    def test_huge_prime_parameter_fails_fast(self, capsys, tmp_path, order, fields):
        # Divisibility is checked before primality, so 2^61 - 1 is refused by
        # a remainder (square) or costs one bounded primality test before the
        # degree formula refuses it (arrow).
        path = tmp_path / "w.json"
        run(capsys, "witness", str(order), "--out", str(path))
        data = json.loads(path.read_text())
        data.update(fields)
        path.write_text(json.dumps(data))
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "verify", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2 and out == ""
        assert "does not divide" in err or "must have degree" in err

    @pytest.mark.parametrize("field,value", [("n", 6.0), ("degree", 9.0), ("n", True), ("degree", True)])
    def test_non_integer_field_is_input_error(self, capsys, tmp_path, field, value):
        path = tmp_path / "w6.json"
        run(capsys, "witness", "6", "--out", str(path))
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "verify", str(path))
        assert rc == 2 and out == ""
        assert f"'{field}' must be an integer" in err

    def test_plain_group_file_is_not_a_certificate(self, capsys, tmp_path):
        path = tmp_path / "z3.json"
        path.write_text(json.dumps({"degree": 3, "generators": [[1, 2, 0]]}))
        rc, _, err = run(capsys, "verify", str(path))
        assert rc == 2 and "missing or mistypes a field: 'n'" in err

    def test_unreadable_or_malformed(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
        assert rc == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, _ = run(capsys, "verify", str(bad))
        assert rc == 2

    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "verify", "6", "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["passed"] is True and data["max_element_order"] == 3


class TestAnalyze:
    def test_structural_report(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps({"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}))
        rc, out, _ = run(capsys, "analyze", str(path))
        assert rc == 0
        assert "group order: 6" in out
        assert "cyclic: no" in out
        assert "center size: 1" in out
        assert "conjugacy class sizes: 1 2 3" in out
        assert "maximal 1: size 3, normalizer size 6, conjugates 1" in out

    def test_cyclic_group_reports_generator(self, capsys, tmp_path):
        path = tmp_path / "z6.json"
        path.write_text(json.dumps({"degree": 6, "generators": [[1, 2, 3, 4, 5, 0]]}))
        rc, out, _ = run(capsys, "analyze", str(path))
        assert rc == 0 and "cyclic: yes (generator" in out

    def test_generator_order_changes_no_byte(self, capsys, tmp_path):
        # Z3 x S3 from (0 1 2), (3 4) and (3 4 5): one size-6 maximal
        # subgroup is normal and three are not, so rows sorted by closure's
        # numbering would follow the generators.
        gens = [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 3, 5], [0, 1, 2, 4, 5, 3]]
        outputs = set()
        for i, order in enumerate(itertools.permutations(gens)):
            path = tmp_path / f"z3xs3-{i}.json"
            path.write_text(json.dumps({"degree": 6, "generators": list(order)}))
            outputs.add((run(capsys, "analyze", str(path)), run(capsys, "analyze", str(path), "--json")))
        assert len(outputs) == 1
        (rc, out, _), _ = outputs.pop()
        assert rc == 0
        assert "maximal 2: size 6, normalizer size 18, conjugates 1" in out.splitlines()
        assert out.count("size 6, normalizer size 6, conjugates 3") == 3

    def test_certificate_reingestion_matches_plain_group(self, capsys, tmp_path):
        cert_path = tmp_path / "w6.json"
        run(capsys, "witness", "6", "--out", str(cert_path))
        rc, cert_out, _ = run(capsys, "analyze", str(cert_path), "--json")
        group_path = tmp_path / "s3.json"
        group_path.write_text(json.dumps({"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}))
        rc2, group_out, _ = run(capsys, "analyze", str(group_path), "--json")
        assert rc == rc2 == 0
        a, b = json.loads(cert_out), json.loads(group_out)
        assert a["element_orders"] == b["element_orders"]
        assert a["conjugacy_class_sizes"] == b["conjugacy_class_sizes"]

    def test_bad_generator_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 3, "generators": [[0, 0, 1]]}))
        rc, _, err = run(capsys, "analyze", str(path))
        assert rc == 2 and "error" in err

    @pytest.mark.parametrize("images", [[True, False], [1.0, 0.0]])
    def test_non_integer_images_rejected(self, capsys, tmp_path, images):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 2, "generators": [images]}))
        rc, out, err = run(capsys, "analyze", str(path))
        assert rc == 2 and out == ""
        assert "permutation images must be ints" in err

    @pytest.mark.parametrize("degree", [True, 1.0])
    def test_non_integer_degree_rejected(self, capsys, tmp_path, degree):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": degree, "generators": [[0]]}))
        rc, out, err = run(capsys, "analyze", str(path))
        assert rc == 2 and out == ""
        assert "'degree' must be a positive integer" in err

    @pytest.mark.parametrize("generators", [[5], [[1, 0], None]], ids=["int", "null"])
    def test_non_list_generator_rejected(self, capsys, tmp_path, generators):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 2, "generators": generators}))
        rc, out, err = run(capsys, "analyze", str(path))
        assert rc == 2 and out == ""
        assert "'generators' must be a non-empty list of image lists" in err

    def test_degree_mismatch_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 4, "generators": [[1, 0, 2]]}))
        rc, _, _ = run(capsys, "analyze", str(path))
        assert rc == 2

    def test_closure_cap_respected(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps({"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}))
        rc, _, err = run(capsys, "analyze", str(path), "--max-order", "4")
        assert rc == 2 and "cap" in err


class TestEnumerate:
    def test_order_four(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "4")
        assert rc == 0
        assert "classes: 2" in out and "cyclic classes: 1" in out

    def test_order_five(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "5")
        assert rc == 0
        assert "classes: 1" in out and "cyclic classes: 1" in out

    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "6", "--json")
        data = json.loads(out)
        assert rc == 0 and data["schema"] == 1
        assert data["classes"] == 2 and data["cyclic_classes"] == 1
        multisets = {tuple(r["element_orders"]) for r in data["class_reports"]}
        assert (1, 2, 2, 2, 3, 3) in multisets

    def test_cap_exceeded_states_cap(self, capsys):
        rc, _, err = run(capsys, "enumerate", "16")
        assert rc == 2 and "cap of 15" in err


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.skipif(shutil.which("cyclicnum") is None, reason="script not on PATH")
    def test_console_script_runs(self):
        proc = subprocess.run(
            ["cyclicnum", "check", "15"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "cyclic" in proc.stdout
