import json
import random

import pytest

from extremalcurves.cli import main
from extremalcurves.cohomology import verify_extremal
from extremalcurves.construct import (
    construct_curve,
    extremal_curve_ideal,
    non_extremal_witness,
    random_construction_input,
)
from extremalcurves.formulas import max_genus
from extremalcurves.gin import GinDisagreement
from extremalcurves.idealfile import (
    IdealFileError,
    emit_ideal,
    parse_ideal,
    parse_ideal_text,
    parse_polynomial,
)
from extremalcurves.oracle import oracle_ideal_dims
from extremalcurves.ring import PolyRing
from reference import coefficient, tokenized_parse_polynomial

R4 = PolyRing(4)

# the differential test's alphabet: every ASCII piece of the grammar, the
# out-of-range x9, a bare x, and two characters outside the grammar
PIECES = ["x0", "x1", "x2", "x3", "x9", "x", *"0123456789", "+", "-", "*", "^", " ", "\t", "y", "("]


def _random_line(rng):
    """A random sequence of pieces, or a homogeneous quadric or cubic in
    the grammar with random blanks and, half of the time, one random piece
    put in at a random place."""
    if rng.random() < 0.5:
        return "".join(rng.choice(PIECES) for _ in range(rng.randrange(13)))
    deg = rng.choice((2, 3))
    parts = []
    for _ in range(rng.randrange(1, 4)):
        parts.append("".join(rng.choice("+- ") for _ in range(rng.randrange(3))) or "+")
        factors = [str(rng.randrange(12))] if rng.random() < 0.5 else []
        left = deg
        while left:
            e = rng.randrange(1, left + 1)
            left -= e
            power = f"{rng.choice(['', ' '])}^{rng.choice(['', ' '])}{e}" if e > 1 or rng.random() < 0.2 else ""
            factors.append(f"x{rng.randrange(4)}{power}")
        parts.append(rng.choice(["*", " * ", "\t*"]).join(factors))
    line = rng.choice(["", " "]).join(parts)
    if rng.random() < 0.5:
        k = rng.randrange(len(line) + 1)
        line = line[:k] + rng.choice(PIECES) + line[k:]
    return line


def _outcome(parse, line):
    try:
        return parse(R4, line, 7).terms
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


class TestIdealFile:
    def test_parse_two_generators(self):
        text = "ring n=3 field=q\nx2^4\nx0*x2^3 + x1^3*x3\n"
        I = parse_ideal_text(text)
        assert len(I.gens) == 2
        assert I.ring.nvars == 4

    def test_comments_and_blanks(self):
        text = "# header comment\nring n=3 field=q\n\nx2*x3  # tail\n"
        I = parse_ideal_text(text)
        assert len(I.gens) == 1

    def test_non_homogeneous_rejected(self):
        with pytest.raises(IdealFileError, match="non-homogeneous"):
            parse_ideal_text("ring n=3 field=q\nx0*x1 + x2\n")

    def test_variable_out_of_range(self):
        with pytest.raises(IdealFileError, match="out of range"):
            parse_ideal_text("ring n=3 field=q\nx9^2\n")

    def test_juxtaposition_rejected(self):
        with pytest.raises(IdealFileError, match="juxtaposition"):
            parse_polynomial(R4, "x0 x1", 1)

    def test_negative_and_coefficients(self):
        p = parse_polynomial(R4, "-3*x0^2 + 2*x1*x2 - x3^2", 1)
        assert coefficient(p, (2, 0, 0, 0)) == -3
        assert coefficient(p, (0, 1, 1, 0)) == 2
        assert coefficient(p, (0, 0, 0, 2)) == -1

    def test_prime_field_header(self):
        I = parse_ideal_text("ring n=2 field=zp:32003\nx0^2 - x1*x2\n")
        assert getattr(I.ring.field, "p", 0) == 32003

    def test_round_trip(self):
        text = "ring n=3 field=q\nx2^4\nx0*x2^3 - x1^3*x3\nx2*x3\n"
        I = parse_ideal_text(text)
        again = parse_ideal_text(emit_ideal(I))
        assert oracle_ideal_dims(list(I.gens), 6, I.ring) == oracle_ideal_dims(
            list(again.gens), 6, again.ring
        )
        assert I == again

    def test_parse_polynomial_matches_the_token_list_reference(self):
        # the one-loop reader against the reference's token list and term
        # closure: the same terms, or the same message with the same line
        # and column, on seeded random ASCII lines
        rng = random.Random(20)
        parsed = 0
        for _ in range(20_000):
            line = _random_line(rng)
            expected = _outcome(tokenized_parse_polynomial, line)
            assert _outcome(parse_polynomial, line) == expected, repr(line)
            parsed += isinstance(expected, tuple)
        assert parsed > 2_000

    def test_crlf_reads_as_lf(self, tmp_path):
        text = "# double line\nring n=3 field=q\nx2^2\n\nx2*x3  # tail\n x3^2\t\n"
        crlf = text.replace("\n", "\r\n")
        assert parse_ideal_text(crlf).gens == parse_ideal_text(text).gens
        assert len(parse_ideal_text(crlf).gens) == 3
        path = tmp_path / "crlf.ideal"
        path.write_text(crlf, encoding="utf-8", newline="")
        assert parse_ideal(path).gens == parse_ideal_text(text).gens
        bad = text + "x2 x3\n"
        with pytest.raises(IdealFileError) as lf_error:
            parse_ideal_text(bad)
        with pytest.raises(IdealFileError) as crlf_error:
            parse_ideal_text(bad.replace("\n", "\r\n"))
        assert str(crlf_error.value) == str(lf_error.value)


class TestCli:
    def test_bounds_table(self, capsys):
        assert main(["bounds", "--n", "3", "--d", "5", "--g", "0"]) == 0
        out = capsys.readouterr().out
        assert "g_max(n=3, d=5) = 3" in out
        # rho(2) = 3 appears in the table row for j = 2
        row = [l for l in out.splitlines() if l.strip().startswith("2 ")]
        assert row and row[0].split()[1] == "3"

    def test_bounds_rejects_large_genus(self, capsys):
        assert main(["bounds", "--n", "3", "--d", "4", "--g", "7"]) == 2
        assert capsys.readouterr().err == "error: genus 7 exceeds the bound 1 for (n, d) = (3, 4)\n"

    def test_construct_verify_roundtrip(self, tmp_path):
        path = tmp_path / "curve.ideal"
        assert (
            main(
                [
                    "construct", "--catalog", "ex45", "--n", "3", "--d", "4",
                    "--g", "0", "-o", str(path),
                ]
            )
            == 0
        )
        assert main(["verify", str(path)]) == 0

    def test_witness_not_extremal(self, tmp_path):
        path = tmp_path / "witness.ideal"
        g = 0 - 1  # g_max(4, 4) - 1
        assert (
            main(
                [
                    "construct", "--catalog", "ex46", "--n", "4", "--d", "4",
                    "--g", str(g), "-o", str(path),
                ]
            )
            == 0
        )
        assert main(["verify", str(path)]) == 1

    def test_analyze_json_deterministic(self, tmp_path, capsys):
        path = tmp_path / "curve.ideal"
        main(["construct", "--catalog", "ex45", "--n", "3", "--d", "4", "--g", "0", "-o", str(path)])
        capsys.readouterr()
        assert main(["analyze", str(path), "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", str(path), "--seed", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["schema"] == 1
        assert doc["verdict"] == "extremal"
        assert doc["seeds"]["gin"] is not None
        assert doc["spec"] == {"n": 3, "d": 4, "g": 0, "a": 1}
        assert doc["rao"]["generator_count"] == 1

    def test_analyze_text_format(self, tmp_path, capsys):
        path = tmp_path / "curve.ideal"
        main(["construct", "--catalog", "ex45", "--n", "3", "--d", "4", "--g", "0", "-o", str(path)])
        assert main(["analyze", str(path), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "verdict: extremal" in out

    def test_oracle_hf_agrees_with_analyze(self, tmp_path, capsys):
        path = tmp_path / "curve.ideal"
        main(["construct", "--catalog", "ex45", "--n", "3", "--d", "4", "--g", "0", "-o", str(path)])
        capsys.readouterr()
        assert main(["oracle-hf", str(path), "--max-deg", "5"]) == 0
        out = capsys.readouterr().out
        dims = [int(line.split()[1]) for line in out.strip().splitlines()]
        assert dims == [1, 4, 8, 13, 17, 21]

    def test_unknown_flag_exit_2(self):
        assert main(["bounds", "--bogus"]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert main(["verify", "/nonexistent/file.ideal"]) == 2

    def test_sweep_small_grid(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["sweep", "--n", "3:3", "--d", "3:4", "--a", "0:1", "-o", str(out), "--jobs", "2"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert len(doc["reports"]) == 4
        for entry in doc["reports"]:
            assert entry["report"]["verdict"] == "extremal"

    def test_sweep_degree_two_top_genus(self, tmp_path, capsys):
        # a = 0 at d = 2 is the genus 2 - n, a grid point like any other
        out = tmp_path / "s.json"
        assert main(["sweep", "--n", "3:3", "--d", "2:2", "--a", "0:0", "-o", str(out)]) == 0
        assert capsys.readouterr().out == "1 grid points, 1 extremal, 0 failed\n"
        (entry,) = json.loads(out.read_text())["reports"]
        assert entry["point"] == {"n": 3, "d": 2, "a": 0}
        assert entry["report"]["spec"] == {"n": 3, "d": 2, "g": -1, "a": 0}
        assert entry["report"]["verdict"] == "extremal"

    def test_sweep_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["sweep", "--n", "3:3", "--d", "3:3", "--a", "0:0", "-o", str(a), "--seed", "5"])
        main(["sweep", "--n", "3:3", "--d", "3:3", "--a", "0:0", "-o", str(b), "--seed", "5", "--jobs", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_bad_range_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["sweep", "--n", "3-5", "--d", "3:3", "--a", "0:0", "-o", str(out)]) == 2
        assert "expected A:B, got '3-5'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_empty_range_exit_2(self, tmp_path, capsys):
        # 5:3 holds no n: a usage error, not a sweep of 0 grid points
        out = tmp_path / "s.json"
        assert main(["sweep", "--n", "5:3", "--d", "3:3", "--a", "0:0", "-o", str(out)]) == 2
        assert "empty range '5:3'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_negative_deficit_exit_2(self, tmp_path, capsys):
        # a < 0 asks for a genus above the bound: a usage error, not a
        # sweep that records a ValueError under each such point and exits 3
        out = tmp_path / "s.json"
        assert main(["sweep", "--n", "3:3", "--d", "3:3", "--a=-1:0", "-o", str(out)]) == 2
        assert "negative genus deficit in '-1:0'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,span,message",
        [("--n", "2:3", "ambient dimension below 3 in '2:3'"), ("--d", "1:2", "degree below 2 in '1:2'")],
    )
    def test_sweep_range_below_its_bound_exit_2(self, tmp_path, capsys, flag, span, message):
        # n < 3 or d < 2 names no catalog curve: a usage error, not a sweep
        # that records a ValueError under each such point and exits 3
        out = tmp_path / "s.json"
        args = {"--n": "3:3", "--d": "3:3", "--a": "0:0", flag: span}
        assert main(["sweep", *(x for item in args.items() for x in item), "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "s.json"
        assert main(["sweep", "--n", "3:3", "--d", "3:3", "--a", "0:0", "--jobs", jobs, "-o", str(out)]) == 2
        assert f"expected an integer >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid,asked", [("0:0", []), ("0:1", [2])])
    def test_sweep_starts_no_more_workers_than_grid_points(self, tmp_path, monkeypatch, grid, asked):
        # --jobs 64 on a one- or two-point grid: the pool is asked for one
        # process per point at most (one point runs in this process), and
        # the bytes are those of the serial sweep; no real pool is started
        import multiprocessing

        started = []

        class RecordedPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", RecordedPool)
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        args = ["sweep", "--n", "3:3", "--d", "3:3", "--a", grid, "--seed", "5"]
        assert main(args + ["-o", str(serial)]) == 0
        assert main(args + ["--jobs", "64", "-o", str(parallel)]) == 0
        assert started == asked
        assert parallel.read_bytes() == serial.read_bytes()

    def test_sweep_to_a_missing_directory_exit_2_before_any_point(self, tmp_path, monkeypatch, capsys):
        # the write at the end would fail: the sweep says so with the same
        # message before it runs a single grid point
        import extremalcurves.cli as cli

        calls = []
        monkeypatch.setattr(cli, "sweep_point", lambda task: calls.append(task))
        out = tmp_path / "missing_dir" / "x.json"
        assert main(["sweep", "--n", "3:5", "--d", "3:7", "--a", "0:3", "-o", str(out)]) == 2
        assert calls == []
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert not out.parent.exists()

    def test_sweep_leaves_an_existing_output_until_the_grid_is_done(self, tmp_path, monkeypatch):
        import extremalcurves.cli as cli

        out = tmp_path / "report.json"
        out.write_text("earlier sweep\n")
        seen = []
        real = cli.sweep_point

        def watched(task):
            seen.append(out.read_text())
            return real(task)

        monkeypatch.setattr(cli, "sweep_point", watched)
        assert main(["sweep", "--n", "3:3", "--d", "3:3", "--a", "0:1", "-o", str(out)]) == 0
        assert seen == ["earlier sweep\n"] * 2
        assert json.loads(out.read_text())["grid"]["a"] == [0, 1]

    def test_oracle_hf_negative_max_deg_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.ideal"
        path.write_text("ring n=3 field=q\nx2^2\nx2*x3\nx3^2\n")
        assert main(["oracle-hf", str(path), "--max-deg", "-1"]) == 2
        captured = capsys.readouterr()
        assert "expected an integer >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_oracle_hf_prime_field(self, tmp_path, capsys):
        # the oracle runs over a prime field too and matches the rationals
        qfile = tmp_path / "q.ideal"
        pfile = tmp_path / "p.ideal"
        body = "x2^2\nx2*x3\nx3^2\nx0*x2 + x1*x3\n"
        qfile.write_text("ring n=3 field=q\n" + body)
        pfile.write_text("ring n=3 field=zp:32003\n" + body)
        assert main(["oracle-hf", str(qfile), "--max-deg", "6"]) == 0
        over_q = capsys.readouterr().out
        assert main(["oracle-hf", str(pfile), "--max-deg", "6"]) == 0
        over_p = capsys.readouterr().out
        assert over_q == over_p

    def test_oracle_hf_refuses_a_pseudoprime_field(self, tmp_path, capsys):
        # psi_13 passes Miller-Rabin on every prime base 2..37, but is composite
        path = tmp_path / "psi13.ideal"
        path.write_text("ring n=3 field=zp:3317044064679887385961981\nx2^2\nx2*x3\nx3^2\n")
        assert main(["oracle-hf", str(path), "--max-deg", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "proven only below psi_12" in captured.err

    def test_bounds_window_flags(self, capsys):
        assert main(
            ["bounds", "--n", "3", "--d", "5", "--g", "0", "--jmin", "0", "--jmax", "2"]
        ) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(rows) == 3

    def test_bounds_empty_window_exit_2(self, capsys):
        assert main(
            ["bounds", "--n", "3", "--d", "5", "--g", "0", "--jmin", "5", "--jmax", "2"]
        ) == 2
        out = capsys.readouterr()
        assert out.out == "" and "jmin 5 exceeds jmax 2" in out.err

    def test_rem64_catalog(self, tmp_path):
        path = tmp_path / "alt.ideal"
        g = max_genus(5, 3) - 1
        assert (
            main(
                ["construct", "--catalog", "rem64", "--n", "5", "--d", "3", "--g", str(g), "-o", str(path)]
            )
            == 0
        )
        assert main(["verify", str(path)]) == 0

    @pytest.mark.parametrize("text,message", [
        # the double line (x2, x3)^2 in Arabic-Indic digits, header included
        ("ring n=\u0663 field=q\nx\u0662^2\nx2*x\u0663\n\u0661*x3^2\n", "expected header"),
        # an ASCII header, Arabic-Indic digits in the generators only
        ("ring n=3 field=q\nx\u0662^2\nx2*x\u0663\n\u0661*x3^2\n", "unexpected character"),
    ], ids=["header", "generators"])
    def test_non_ascii_digits_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "digits.ideal"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err
        # in ASCII digits the same file is the double line, a valid input
        ascii_text = text.translate({0x0660 + k: str(k) for k in range(10)})
        assert len(parse_ideal_text(ascii_text).gens) == 3

    @pytest.mark.parametrize("text,message", [
        # the double line (x2, x3)^2 on one line, its generators split by a
        # character that str.splitlines() takes for a line break
        *[(f"ring n=3 field=q\nx2^2{sep}x2*x3{sep}x3^2\n", "unexpected character")
          for sep in ("\u2028", "\u0085", "\x0b", "\x0c", "\x1c", "\r")],
        # a Unicode blank inside a generator, at a line end, in the header
        ("ring n=3 field=q\nx2^2\nx2\u00a0*\u00a0x3\nx3^2\n", "unexpected character"),
        ("ring n=3 field=q\nx2^2\u3000\nx2*x3\nx3^2\n", "unexpected character"),
        ("ring\u00a0n=3 field=q\nx2^2\nx2*x3\nx3^2\n", "expected header"),
    ], ids=["u2028", "u0085", "x0b", "x0c", "x1c", "lone-cr", "nbsp-generator", "u3000-line-end", "nbsp-header"])
    def test_other_separators_and_blanks_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "separators.ideal"
        path.write_text(text, encoding="utf-8", newline="")
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err
        # with a line feed or a space in its place the file is the double line
        ascii_text = text.translate({0x2028: "\n", 0x85: "\n", 0x0B: "\n", 0x0C: "\n", 0x1C: "\n", 0x0D: "\n", 0xA0: " ", 0x3000: " "})
        assert len(parse_ideal_text(ascii_text).gens) == 3

    def test_exponent_beyond_packed_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.ideal"
        path.write_text("ring n=3 field=q\nx0^200\n")
        assert main(["verify", str(path)]) == 2
        assert "packed limit" in capsys.readouterr().err

    def test_unit_ideal_exit_2_names_it(self, tmp_path, capsys):
        # the unit ideal contains every linear form, and the message says
        # what it is; an ideal with a linear form keeps its message
        for body, message in [("1\n", "the ideal is the unit ideal"), ("x0\nx1^2\n", "the ideal contains a linear form")]:
            path = tmp_path / "bad.ideal"
            path.write_text("ring n=3 field=q\n" + body)
            assert main(["verify", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_embedded_point_exit_2(self, tmp_path, capsys):
        # saturated (its resolution has length 3) but not locally
        # Cohen-Macaulay: a double line {x0 = x2 = 0} with an embedded point
        path = tmp_path / "embedded.ideal"
        path.write_text("ring n=3 field=q\nx0^2\nx1*x2\nx2^3\n")
        assert main(["verify", str(path)]) == 2
        assert "not locally Cohen-Macaulay" in capsys.readouterr().err

    def test_sweep_records_a_failing_point(self, tmp_path, monkeypatch, capsys):
        import extremalcurves.cli as cli

        real = cli.verify_extremal

        calls = []

        def flaky(ideal, seed=0):
            calls.append(ideal)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return real(ideal, seed=seed)

        monkeypatch.setattr(cli, "verify_extremal", flaky)
        out = tmp_path / "report.json"
        code = main(["sweep", "--n", "3:3", "--d", "3:3", "--a", "0:2", "-o", str(out)])
        assert code == 3
        assert "1 failed" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert [e["point"]["a"] for e in doc["reports"]] == [0, 1, 2]
        failed = doc["reports"][1]
        assert failed["error"] == "RuntimeError: injected failure"
        assert "report" not in failed
        for entry in (doc["reports"][0], doc["reports"][2]):
            assert entry["report"]["verdict"] == "extremal"

    @pytest.mark.parametrize("exc", [GinDisagreement, RuntimeError, AssertionError])
    def test_unexpected_failure_exit_3(self, tmp_path, monkeypatch, capsys, exc):
        import extremalcurves.cli as cli

        def broken(*args, **kwargs):
            raise exc("injected failure")

        monkeypatch.setattr(cli, "CurveAnalysis", broken)
        path = tmp_path / "curve.ideal"
        path.write_text("ring n=3 field=q\nx0\nx1\n")
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "injected failure" in err

    def test_verify_runs_only_the_verdict(self, tmp_path, monkeypatch):
        # ex45 (n, d, g) = (3, 5, 2): d = 5, so the full report would run
        # the gin, the sections, the Betti table and the planar check
        import extremalcurves.cohomology as cohomology
        from extremalcurves.modules import ResolutionData

        def forbidden(*args, **kwargs):
            raise RuntimeError("verify ran a check outside the verdict")

        for name in ("compute_gin", "general_section_values", "planar_subcurve_check"):
            monkeypatch.setattr(cohomology, name, forbidden)
        monkeypatch.setattr(ResolutionData, "betti_table", forbidden)
        path = tmp_path / "curve.ideal"
        path.write_text(emit_ideal(extremal_curve_ideal(3, 5, 2)))
        assert main(["verify", str(path)]) == 0

    def test_verify_exit_3_when_riemann_roch_fails(self, tmp_path, monkeypatch, capsys):
        import extremalcurves.cohomology as cohomology

        def broken(dual, hilbert, h1_values):
            raise AssertionError("injected Riemann-Roch failure")

        monkeypatch.setattr(cohomology, "h2_table", broken)
        path = tmp_path / "curve.ideal"
        path.write_text(emit_ideal(extremal_curve_ideal(3, 4, 0)))
        assert main(["verify", str(path)]) == 3
        assert "injected Riemann-Roch failure" in capsys.readouterr().err

    def test_verify_exit_3_when_a_map_has_other_unit_pivots(self, tmp_path, monkeypatch, capsys):
        # a random construction in P^4 (not extremal) whose last map has
        # unit pivots: with one of them dropped from the degree-0 plan, the
        # twists keep a trivial summand, and making the map finds the pivot
        # again, an internal failure and no verdict
        from extremalcurves import modules

        plan = modules._unit_pivots

        def dropped(levels, twists, modulus):
            pivots = plan(levels, twists, modulus)
            assert pivots[3]
            pivots[3].pop()
            return pivots

        path = tmp_path / "curve.ideal"
        path.write_text(emit_ideal(construct_curve(random_construction_input(4, 4, 3, random.Random(0)))))
        assert main(["verify", str(path)]) == 1
        monkeypatch.setattr(modules, "_unit_pivots", dropped)
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "internal invariant violation: map 3 of the resolution has other unit pivots than its degree-0 plan\n"

    def test_non_generic_gin_draws_exit_3(self, tmp_path, monkeypatch, capsys):
        # every gin draw is the identity, which is unit lower-triangular: the
        # hyperplane x3 = 0 contains the line supporting ex45 (3, 4, 0), so
        # no draw passes the gin's certificate (the sections are read off
        # the gin, so this is the draw a verdict's sections rest on); the
        # input passed every check, so this is an internal failure
        import extremalcurves.gin as gin

        def identity(ring, rng, bound):
            return [[int(i == j) for j in range(ring.nvars)] for i in range(ring.nvars)]

        monkeypatch.setattr(gin, "random_unipotent_matrix", identity)
        path = tmp_path / "curve.ideal"
        path.write_text(emit_ideal(extremal_curve_ideal(3, 4, 0)))
        assert main(["analyze", str(path)]) == 3
        err = capsys.readouterr().err
        assert "GinDisagreement" in err and "no agreement after 3 rounds" in err

    def test_import_leaves_out_multiprocessing(self):
        import os
        import subprocess
        import sys

        import extremalcurves

        src = os.path.dirname(os.path.dirname(extremalcurves.__file__))
        code = "import sys, extremalcurves.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestProcessEntry:
    """`run` is the process entry: it freezes the loaded heap, then exits
    with `main`'s code; `main` never freezes."""

    @staticmethod
    def _files(tmp_path):
        good = tmp_path / "ex45.ideal"
        good.write_text(emit_ideal(extremal_curve_ideal(3, 5, max_genus(3, 5) - 1)))
        witness = tmp_path / "ex46.ideal"
        witness.write_text(emit_ideal(non_extremal_witness(4, 1, 4).ideal))
        malformed = tmp_path / "malformed.ideal"
        malformed.write_text("ring n=3 field=q\nx0 x1\n")
        return good, witness, malformed

    @pytest.mark.parametrize("which, code", [(0, 0), (1, 1), (2, 2)])
    def test_run_freezes_once_before_main_and_exits_with_its_code(self, tmp_path, monkeypatch, which, code):
        # the recorder stands in for gc.freeze, so this process stays unfrozen
        import gc

        import extremalcurves.cli as cli

        events = []
        real = cli.main
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda argv=None: events.append("main") or real(argv))
        with pytest.raises(SystemExit) as exit_:
            cli.run(["verify", str(self._files(tmp_path)[which])])
        assert exit_.value.code == code
        assert events == ["freeze", "main"]

    def test_main_never_freezes(self, tmp_path):
        import gc

        frozen = gc.get_freeze_count()
        assert main(["verify", str(self._files(tmp_path)[0])]) == 0
        assert gc.get_freeze_count() == frozen

    def test_module_entry_end_to_end(self, tmp_path, capsys):
        # through `python -m extremalcurves.cli`, so through `run`: the exit
        # codes, the error text and the report bytes survive the frozen exit
        import os
        import subprocess
        import sys

        import extremalcurves

        src = os.path.dirname(os.path.dirname(extremalcurves.__file__))

        def child(*args):
            return subprocess.run(
                [sys.executable, "-m", "extremalcurves.cli", *args],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
            )

        good, witness, malformed = self._files(tmp_path)
        assert child("verify", str(good)).returncode == 0
        assert child("verify", str(witness)).returncode == 1
        bad = child("verify", str(malformed))
        assert main(["verify", str(malformed)]) == 2
        assert bad.returncode == 2
        assert bad.stderr.decode("utf-8") == capsys.readouterr().err
        report = child("analyze", str(good), "--seed", "3")
        assert report.returncode == 0
        assert report.stdout == verify_extremal(parse_ideal(good), seed=3).to_json().encode("utf-8")
