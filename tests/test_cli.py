import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from caged import caging, cli, gauge, graphs, spectral
from caged.errors import InvalidParameterError, UnsupportedHypothesisError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPhiParsing:
    @pytest.mark.parametrize("text,value", [
        ("pi", math.pi),
        ("2pi/3", 2 * math.pi / 3),
        ("pi/6", math.pi / 6),
        ("-pi/2", -math.pi / 2),
        ("0.75", 0.75),
        ("3pi", 3 * math.pi),
    ])
    def test_literals(self, text, value):
        assert cli.parse_phi(text) == pytest.approx(value, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            cli.parse_phi("pie")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "-1e400",
                                      pytest.param("1" + "0" * 400 + "pi", id="huge-pi")])
    def test_rejects_non_finite(self, text):
        with pytest.raises(InvalidParameterError, match="not a finite angle"):
            cli.parse_phi(text)

    @pytest.mark.parametrize("argv, message", [
        (("caging", "--x", "2,3", "--phi", "pi/0"), "error: zero denominator in flux literal"),
        (("caging", "--x", "2,a", "--phi", "pi"), "error: cannot parse sequence '2,a'"),
    ])
    def test_bad_literal_exits_1(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", message + "\n")

    @pytest.mark.parametrize("argv", [
        ("caging", "--x", "2,3", "--phi", "nan"),
        ("verify", "--x", "2,3", "--phi", "nan"),
        ("caging", "--x", "2,3", "--phi", "inf"),
        ("caging", "--x", "2,3", "--phi", "1e400"),
        ("verify", "--x", "2,3", "--phi", "inf"),
        ("verify", "--x", "2,3", "--phi=-1e400"),
        ("spectrum", "--x", "2,3", "--phi", "nan", "--method", "oracle"),
        ("bands", "--x", "2", "--phi", "nan", "--grid", "4"),
        ("bands", "--model", "lotus44", "--phi=-inf", "--grid", "4"),
    ])
    def test_non_finite_flux_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: flux '") and line.endswith("' is not a finite angle")

    @pytest.mark.parametrize("argv", [
        ("caging", "--x", "2,3,2", "--phi", "1e300", "--assert-caged"),
        ("verify", "--x", "2,3,2", "--phi", "1e17"),
        ("spectrum", "--x", "2,3", "--phi", "1e8", "--method", "theorem"),
        ("spectrum", "--x", "2,3,2", "--phi", "1e300", "--method", "oracle"),
        ("bands", "--x", "2", "--phi", "1e300", "--grid", "3"),
        ("bands", "--model", "lotus44", "--phi", "4503599.7", "--grid", "3"),
        ("cls", "--x", "2", "--phi", "1e300", "--cells", "2", "--radius-bound", "4"),
        ("lotus", "--kind", "first", "--sides", "6", "--phi", "1e300"),
    ])
    def test_flux_a_float_cannot_resolve_exits_1(self, capsys, argv):
        # Floats this large lie farther apart than the flat-value tolerance.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and "that a float resolves" in line

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--x", "2,3,2", "--phi", "4.4e6", "--method", "oracle"),
        ("bands", "--x", "2", "--phi", "4.4e6", "--grid", "3"),
        ("cls", "--x", "2", "--phi", "4.4e6", "--cells", "2", "--radius-bound", "4"),
        ("caging", "--x", "2,3,2", "--phi=-4.4e6"),
    ])
    def test_flux_below_the_angle_limit_answers(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--method", "oracle", "--phi", "0"),
        ("spectrum", "--method", "theorem", "--phi", "0"),
        ("bands", "--phi", "1", "--grid", "3"),
        ("cls", "--phi", "1"),
        ("dos", "--phi-grid", "2", "--k-grid", "2", "--bins", "2"),
        ("grow",),
    ])
    def test_product_past_the_float_range_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--x", ",".join(["2"] * 1100))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ")


class TestSpectrumCommand:
    def test_theorem_matches_oracle(self, tmp_path, capsys):
        a = tmp_path / "thm.csv"
        b = tmp_path / "orc.csv"
        code1, _, _ = run(capsys, "spectrum", "--x", "2,3,2", "--phi", "0",
                          "--method", "theorem", "--out", str(a))
        code2, _, _ = run(capsys, "spectrum", "--x", "2,3,2", "--phi", "0",
                          "--method", "oracle", "--out", str(b))
        assert code1 == code2 == 0

        def rows(path):
            return [line.split(",") for line in path.read_text().strip().splitlines()[1:]]

        got, want = rows(a), rows(b)
        assert len(got) == len(want)
        for (va, ma), (vb, mb) in zip(got, want):
            assert ma == mb
            assert float(va) == pytest.approx(float(vb), abs=1e-8)

    def test_flux_af_theorem(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "spectrum", "--x", "3", "--phi", "2pi/3",
                         "--method", "theorem", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eigenvalue,multiplicity"
        assert len(lines) == 4  # -sqrt3, 0, +sqrt3 with multiplicities 2,1,2

    def test_theorem_off_the_special_points_is_an_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--x", "2", "--phi", "1.0",
                           "--method", "theorem")
        assert code == 1
        assert "oracle" in err

    def test_json_mirrors_csv(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, _, _ = run(capsys, "spectrum", "--x", "2", "--phi", "pi",
                         "--method", "oracle", "--format", "json", "--out", str(out))
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["multiplicity"] for r in rows] == [2, 2]

    @pytest.mark.parametrize("xs,phi,base", [
        ("2,3", "-pi", "pi"), ("2,3", "3pi", "pi"), ("3,2", "-4pi/3", "2pi/3"),
        ("2,3", "-2pi", "0"), ("3,2", "8pi/3", "2pi/3"),
        ("2,3", repr(math.pi + 5e-10), "pi"), ("3,2", repr(-5e-10), "0"),
    ])
    def test_theorem_accepts_gauge_equivalent_angles(self, capsys, xs, phi, base):
        want = run(capsys, "spectrum", "--x", xs, "--phi", base, "--method", "theorem")
        got = run(capsys, "spectrum", "--x", xs, f"--phi={phi}", "--method", "theorem")
        assert want[0] == 0 and got == want

    def test_theorem_refuses_a_zero_entry(self, capsys):
        code, _, err = run(capsys, "spectrum", "--x", "0", "--phi", "1", "--method", "theorem")
        assert code == 1
        assert "must be >= 1" in err

    def test_theorem_gate_with_x1_one(self, capsys):
        # Every multiple of 2*pi/1 is flux 0, so the gate passes and the
        # fluxless assembly refuses the entry 1; off it, the gate refuses.
        code, _, err = run(capsys, "spectrum", "--x", "1,2", "--phi", "2pi", "--method", "theorem")
        assert code == 1 and "every growth entry >= 2" in err
        code, _, err = run(capsys, "spectrum", "--x", "1,2", "--phi", "1", "--method", "theorem")
        assert code == 1 and "theorem path covers flux 0 and 2*pi/x1 only" in err

    def test_theorem_refuses_an_angle_off_both_points(self, capsys):
        code, _, err = run(capsys, "spectrum", "--x", "2,3", "--phi", "7pi/3",
                           "--method", "theorem")
        assert code == 1
        assert "oracle" in err


class TestBandsCommand:
    def test_flat_rows(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code, _, _ = run(capsys, "bands", "--x", "2", "--phi", "pi",
                         "--grid", "101", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,E_1,E_2,E_3"
        assert len(lines) == 102
        for i, line in enumerate(lines[1:]):
            vals = [float(s) for s in line.split(",")]
            assert vals[0] == 2.0 * math.pi * i / 101
            assert vals[1:] == pytest.approx([-2.0, 0.0, 2.0], abs=1e-10)

    def test_star_lattice_model(self, tmp_path, capsys):
        out = tmp_path / "b44.csv"
        code, _, _ = run(capsys, "bands", "--model", "lotus44", "--phi", "pi",
                         "--grid", "8", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,ky," + ",".join(f"E_{i}" for i in range(1, 7))
        assert len(lines) == 1 + 64
        for r, line in enumerate(lines[1:]):
            k, ky = (float(s) for s in line.split(",")[:2])
            assert (k, ky) == (2.0 * math.pi * (r // 8) / 8, 2.0 * math.pi * (r % 8) / 8)


class TestCagingCommand:
    def test_flat_asserts_clean(self, capsys):
        code, out, _ = run(capsys, "caging", "--x", "2,3,2", "--phi", "pi/6",
                           "--assert-caged")
        assert code == 0
        assert out.splitlines()[0] == "k,amplitude"

    def test_dispersive_fails_the_assertion(self, capsys):
        code, _, err = run(capsys, "caging", "--x", "2", "--phi", "1.0",
                           "--assert-caged")
        assert code == 2
        assert "crossable" in err

    def test_uncaged_assertion(self, capsys):
        code, _, _ = run(capsys, "caging", "--x", "2", "--phi", "1.0",
                         "--assert-uncaged")
        assert code == 0

    def test_caged_fails_the_uncaged_assertion(self, capsys):
        code, out, err = run(capsys, "caging", "--x", "2,3,2", "--phi", "pi/6",
                             "--assert-uncaged")
        assert code == 2 and out.startswith("k,amplitude\n")
        assert err == "dispersion assertion failed: the tree is uncrossable\n"

    def test_float_overflow_exits_1(self, capsys):
        code, out, err = run(capsys, "caging", "--x", "2", "--phi", "pi", "--kmax", "3000")
        assert (code, out) == (1, "")
        assert err == "error: amplitude 2050 overflows complex128; reduce the power count\n"
        code, out, err = run(capsys, "caging", "--x", "2", "--phi", "pi", "--kmax", "2000")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 2001)
        assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])

    def test_verify_reports_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(caging, "exchange_symmetry_check", lambda m: (False, 1.0))
        code, out, _ = run(capsys, "verify", "--x", "2,3", "--phi", "pi/6")
        assert code == 2
        assert out.splitlines()[-1] == "FAIL: exchange"

    def test_deep_tree_caged_despite_roundoff(self, capsys):
        # Float powers leave amplitudes near 1e-8 here; the verdict is exact.
        code, out, err = run(capsys, "caging", "--x", "2,3,2,2,2,2", "--phi", "pi/48",
                             "--assert-caged")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "k,amplitude" and len(lines) == 1 + 24

    def test_verify_deep_tree_caged(self, capsys):
        code, out, _ = run(capsys, "verify", "--x", "2,3,2,2,2,2", "--phi", "pi/48")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-2] == "caging at flat value z = 1 of M = 96: caged"
        assert lines[-1] == "OK"

    def test_full_turn_is_crossable(self, capsys):
        code, _, _ = run(capsys, "caging", "--x", "2,3,2,2,2,2", "--phi", "2pi",
                         "--assert-uncaged")
        assert code == 0
        code, out, _ = run(capsys, "verify", "--x", "2,3,2,2,2,2", "--phi", "2pi")
        assert code == 0
        assert "z = 96 of M = 96: crossable" in out


class TestClsCommand:
    def test_chain_report(self, tmp_path, capsys):
        out = tmp_path / "cls.json"
        code, _, _ = run(capsys, "cls", "--x", "2", "--phi", "pi", "--cells", "3",
                         "--radius-bound", "4", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["covered"] is True

    def test_dispersive_exits_two(self, tmp_path, capsys):
        out = tmp_path / "cls.json"
        code, _, err = run(capsys, "cls", "--x", "2", "--phi", "0.7", "--cells", "6",
                           "--radius-bound", "4", "--cap", "8", "--out", str(out))
        assert code == 2
        assert "failed" in err

    def test_lotus_report(self, tmp_path, capsys):
        out = tmp_path / "dice.json"
        code, _, _ = run(capsys, "cls", "--lotus", "first,6,2,3", "--phi", "pi",
                         "--radius-bound", "3", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["covered"] is True


    @pytest.mark.parametrize("spec", ["first,6", "first,six,2,3", "first,6,2,3,4", "first"])
    def test_malformed_lotus_is_bad_input(self, spec, capsys):
        code, out, err = run(capsys, "cls", "--lotus", spec, "--phi", "pi")
        assert code == 1 and out == ""
        assert err == f"error: cannot parse lotus {spec!r}; expected kind,sides,p,q\n"

    @pytest.mark.parametrize("flag,value", [("--cap", "0"), ("--cap", "-3"),
                                            ("--radius-bound", "-1")])
    def test_bad_cap_or_bound_is_bad_input(self, flag, value, capsys):
        code, out, err = run(capsys, "cls", "--x", "2", "--phi", "pi", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_kmax_above_the_power_count_limit(self, capsys):
        code, out, err = run(capsys, "caging", "--x", "2", "--phi", "pi",
                             "--kmax", "1000000000")
        assert (code, out) == (1, "")
        assert err == "error: power count 1000000000 exceeds the limit 100000\n"

    def test_negative_kmax_is_bad_input(self, capsys):
        code, out, err = run(capsys, "caging", "--x", "2", "--phi", "pi", "--kmax", "-2")
        assert code == 1 and out == ""
        assert err == "error: power count must be non-negative, got -2\n"

    @pytest.mark.parametrize("fmt, want", [("csv", "k,amplitude\n"), ("json", "[]\n")])
    def test_kmax_zero_prints_no_rows(self, fmt, want, capsys):
        code, out, err = run(capsys, "caging", "--x", "2", "--phi", "pi", "--kmax", "0",
                             "--format", fmt)
        assert (code, out, err) == (0, want, "")


class TestClsBeyondTheDenseLimit:
    def test_two_hundred_cells_within_budget(self, capsys):
        # 5,801 sites, past the dense limit: each cell's window is diagonalized,
        # translated windows sharing one eigh.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "cls", "--x", "2,3,2", "--phi", "pi/6", "--cells", "200",
                             "--radius-bound", "10")
        elapsed = time.perf_counter() - t0
        summary = json.loads(out)["summary"]
        assert code == 0, err
        assert summary["dimension"] == summary["span_rank"] == 5801
        assert summary["covered"] and summary["radius_ok"]
        assert elapsed < 10.0


GOLDEN_CLS = json.loads((Path(__file__).parent / "data" / "readme_cls_golden.json").read_text())


class TestReadmeClsReports:
    """The README's two ``caged cls`` reports against a recording made with the
    80-bit Krylov route: the summary, and per seed its support radius and its
    eigenvalues as indices into the distinct levels (a seed's krylov_dim is
    the length of that list).  The levels reproduce every recorded
    eigenvalue within 4e-15."""

    @pytest.mark.parametrize("command", sorted(GOLDEN_CLS))
    def test_matches_recording(self, command, capsys):
        want = GOLDEN_CLS[command]
        code, out, err = run(capsys, *command.split())
        assert code == 0, err
        report = json.loads(out)
        assert report["summary"] == want["summary"]
        assert [s["seed"] for s in report["states"]] == list(range(len(want["seeds"])))
        levels = np.array(want["levels"])
        for state, (spectrum, radius) in zip(report["states"], want["seeds"]):
            expected = levels[want["spectra"][spectrum]]
            assert state["krylov_dim"] == len(state["eigenvalues"]) == len(expected)
            assert state["support_radius"] == radius
            assert np.abs(np.array(state["eigenvalues"]) - expected).max() <= 1e-12
            assert state["residual"] <= 1e-8


class TestOtherCommands:
    def test_grow_format(self, capsys):
        code, out, _ = run(capsys, "grow", "--x", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "graph 4"
        assert "root first 0" in lines and "root last 3" in lines

    def test_factorize(self, capsys):
        code, out, _ = run(capsys, "factorize", "--m", "12")
        assert code == 0
        assert out.splitlines()[0] == "8"

    def test_factorize_counts_without_listing(self, capsys):
        # 2^24 has 2^23 ordered factorizations; counting lists none of them.
        start = time.perf_counter()
        code, out, _ = run(capsys, "factorize", "--m", str(2**24))
        assert (code, out) == (0, "8388608\n")
        assert time.perf_counter() - start < 1.0

    def test_factorize_refuses_a_large_prime(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "factorize", "--m", str(2**61 - 1))
        assert (code, out) == (1, "")
        assert "would trial-divide past 1000000" in err
        assert time.perf_counter() - start < 1.0

    def test_factorize_listing(self, capsys):
        code, out, _ = run(capsys, "factorize", "--m", "4", "--list")
        assert code == 0
        assert set(out.splitlines()[1:]) == {"4", "2,2"}

    def test_factorize_listing_order(self, capsys):
        code, out, _ = run(capsys, "factorize", "--m", "12", "--list")
        assert code == 0
        assert out.splitlines() == [
            "8", "2,2,3", "2,3,2", "2,6", "3,2,2", "3,4", "4,3", "6,2", "12"]

    def test_factorize_listing_limit(self, capsys):
        # 12960 has 102,576 ordered factorizations, just past the limit, and
        # 297648 has 95,328, just under it; both are counted first.
        code, out, err = run(capsys, "factorize", "--m", "12960", "--list")
        assert (code, out) == (1, "")
        assert "102576 factorizations exceed the listing limit 100000" in err
        assert run(capsys, "factorize", "--m", "12960") == (0, "102576\n", "")
        code, out, _ = run(capsys, "factorize", "--m", "297648", "--list")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "95328" and len(lines) == 95329

    def test_oversized_tree_refused(self, capsys):
        # 10^12 vertices: refused as bad input before anything is grown.
        code, out, err = run(capsys, "grow", "--x", "1000000,1000000")
        n = 10**12 + 2 * 10**6 + 2
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {n} vertices; at most")

    def test_tree_past_the_growth_bytes_refused(self, capsys):
        # 3e9 + 2 vertices pass the vertex limit; 6e9 edges do not fit.
        code, out, err = run(capsys, "grow", "--x", "3000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: 6000000000 edges need")

    def test_flat_values_listing_limit(self, capsys):
        code, out, err = run(capsys, "flat-values", "--x", "1000000,1000000")
        assert (code, out) == (1, "")
        assert err == "error: 1000000000000 flat values exceed the listing limit 100000\n"

    def test_flat_values(self, capsys):
        code, out, _ = run(capsys, "flat-values", "--x", "2")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        assert float(rows[0].split(",")[1]) == pytest.approx(math.pi)

    def test_lotus_graph_emission(self, capsys):
        code, out, _ = run(capsys, "lotus", "--kind", "first", "--sides", "6")
        assert code == 0
        assert out.startswith("graph 19")

    def test_lotus_past_the_vertex_limit_is_refused(self, capsys):
        code, out, err = run(capsys, "lotus", "--kind", "first", "--sides", "7",
                             "--generations", "40")
        assert (code, out) == (1, "")
        assert "passes the vertex limit 131072" in err

    def test_lotus_ccam_emission(self, capsys):
        code, out, _ = run(capsys, "lotus", "--kind", "second", "--sides", "4",
                           "--q", "4", "--phi", "pi")
        assert code == 0
        assert out.startswith("ccam 9 ")

    def test_lotus_ccam_past_the_dense_limit_answers(self, capsys):
        self.check_lotus_ccam(capsys, graphs.LotusSpec("first", 12, 4, 3, 3), "pi", math.pi)

    def test_lotus_ccam_at_a_large_flux_answers(self, capsys):
        self.check_lotus_ccam(capsys, graphs.LotusSpec("first", 6), "1e6", 1e6)

    @staticmethod
    def check_lotus_ccam(capsys, spec, text, phi):
        """``caged lotus --phi`` answers, and each face winds its sign times phi."""
        code, out, err = run(capsys, "lotus", "--kind", spec.kind, "--sides", str(spec.sides),
                             "--p", str(spec.shrub_p), "--q", str(spec.tiling_q),
                             "--generations", str(spec.generations), "--phi", text)
        assert (code, err) == (0, "")
        m = gauge.parse_ccam(out)
        assert m.flux == phi
        fluxes = np.array(gauge.all_plaquette_fluxes(m))
        want = np.multiply(graphs.lotus_patch(spec).plaquette_signs, phi)
        # the faces' sums round by their length times eps times 35 phi at most
        assert np.abs(gauge.reduce_angle(fluxes - want)).max() < 1e-12 * phi

    def test_dos_runs(self, tmp_path, capsys):
        out = tmp_path / "dos.csv"
        code, _, _ = run(capsys, "dos", "--x", "2", "--phi-grid", "6",
                         "--k-grid", "32", "--bins", "21", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "phi,energy_bin_center,count"

    def test_verify_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--x", "2,3", "--phi", "0")
        assert code == 0
        assert out.strip().splitlines()[-1] == "OK"

    def test_verify_ok_at_a_full_turn(self, capsys):
        # 2*pi*716000, the flat value z = M; its canonical phases reach phi * M / 4
        code, out, _ = run(capsys, "verify", "--x", "20", "--phi", "4498760.679940584")
        assert (code, out.strip().splitlines()[-1]) == (0, "OK")

    @pytest.mark.parametrize("xs", [xs for m in range(2, 13)
                                    for xs in graphs.ordered_factorizations(m)[1]],
                             ids=lambda xs: ",".join(map(str, xs)))
    def test_verify_ok_over_the_family(self, capsys, xs):
        """Small fluxes, whole turns plus the theorem's fluxes, and a flux far
        from any flat value all verify."""
        turns = 2 * math.pi * 716000
        for phi in (0.0, 2 * math.pi / xs[0], 2 * math.pi / math.prod(xs), 0.7,
                    turns, turns + 2 * math.pi / xs[0], turns + 2 * math.pi / math.prod(xs), 4e6):
            code, out, _ = run(capsys, "verify", "--x", ",".join(map(str, xs)), "--phi", repr(phi))
            assert (code, out.strip().splitlines()[-1]) == (0, "OK"), phi

    def test_verify_flux_af(self, capsys):
        code, out, _ = run(capsys, "verify", "--x", "3,2", "--phi", "2pi/3")
        assert code == 0

    def test_verify_assembles_at_gauge_equivalent_flux(self, capsys):
        code, out, _ = run(capsys, "verify", "--x", "2,3", "--phi=-pi")
        assert code == 0
        assert "assembled vs oracle spectrum (flux 2pi/x1)" in out

    def test_verify_needs_no_spectrum_off_the_special_points(self, capsys, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("dense spectrum computed")

        monkeypatch.setattr(spectral, "ccam_spectrum", refuse)
        code, out, _ = run(capsys, "verify", "--x", "2,2,2,2,2,2,2,2", "--phi", "2pi/256")
        assert code == 0
        assert out.strip().splitlines()[-1] == "OK"

    @pytest.mark.parametrize("xs", ["2,1,2", "1,2"])
    def test_verify_without_the_assembly_hypothesis(self, capsys, xs):
        code, out, _ = run(capsys, "verify", "--x", xs, "--phi", "0")
        assert code == 0
        assert "assembled spectrum: not applicable at this flux" in out.splitlines()
        assert out.strip().splitlines()[-1] == "OK"

    def test_verify_asks_the_assembly_for_its_hypothesis(self, capsys, monkeypatch):
        def unsupported(xs):
            raise UnsupportedHypothesisError(f"no assembly for {xs}")

        def refuse(*_args, **_kwargs):
            raise AssertionError("dense spectrum computed")

        monkeypatch.setattr(spectral, "spectrum_fluxless", unsupported)
        monkeypatch.setattr(spectral, "ccam_spectrum", refuse)
        code, out, _ = run(capsys, "verify", "--x", "2,3,2", "--phi", "0")
        assert code == 0
        assert "assembled spectrum: not applicable at this flux" in out.splitlines()

    def test_verify_refuses_above_dense_limit_only_for_a_spectrum(self, capsys, monkeypatch):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "500")
        code, out, _ = run(capsys, "verify", "--x", "2,2,2,2,2,2,2,2", "--phi", "2pi/256")
        assert code == 0
        assert out.strip().splitlines()[-1] == "OK"
        code, _, err = run(capsys, "verify", "--x", "2,2,2,2,2,2,2,2", "--phi", "0")
        assert code == 1
        assert "exceeds dense limit 500" in err

    def test_theorem_spectrum_past_one_dense_solve_refused_at_once(self, capsys, monkeypatch):
        monkeypatch.delenv(gauge.DENSE_LIMIT_ENV, raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, "spectrum", "--x", ",".join(["2"] * 1000), "--phi", "0",
                             "--method", "theorem")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and "exceeds dense limit 4096" in line

    @pytest.mark.parametrize("xs, phi", [("2," * 1099 + "2", "0"), ("6," * 399 + "6", "2pi/6")],
                             ids=["twos-1100", "sixes-400"])
    def test_theorem_spectrum_past_the_float_range_refused(self, capsys, xs, phi):
        code, out, err = run(capsys, "spectrum", "--x", xs, "--phi", phi, "--method", "theorem")
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and "overflow a float" in line

    def test_verify_flux_check_allows_the_phases_rounding(self, capsys):
        for xs in ("2,3,2", "6,6"):
            code, out, _ = run(capsys, "verify", "--x", xs, "--phi", "4e6")
            assert code == 0 and out.strip().splitlines()[-1] == "OK", out
            assert out.startswith("plaquette flux uniformity: max deviation ")

    def test_verify_flux_check_catches_a_moved_phase(self, capsys, monkeypatch):
        canonical = gauge.canonical_ccam

        def moved(x, phi, **kwargs):
            m = canonical(x, phi, **kwargs)
            return m.with_phases(m.phases + np.eye(1, len(m.phases)).ravel() * 1e-12, phi)

        monkeypatch.setattr(gauge, "canonical_ccam", moved)
        code, out, _ = run(capsys, "verify", "--x", "2,3,2", "--phi", "0.7")
        assert code == 2 and out.strip().splitlines()[-1] == "FAIL: flux"

    def test_theorem_spectrum_refuses_a_block_above_dense_limit(self, capsys, monkeypatch):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "3")
        code, out, err = run(capsys, "spectrum", "--x", "2,2,2", "--phi", "0",
                             "--method", "theorem")
        assert code == 1 and out == ""
        assert "exceeds dense limit 3" in err

    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_bad_dense_limit_is_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, raw)
        code, out, err = run(capsys, "cls", "--x", "2", "--phi", "pi", "--cells", "2")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: {gauge.DENSE_LIMIT_ENV}='{raw}' is not a positive integer"]

    def test_parser_carries_no_state_between_calls(self, capsys):
        argv = ["spectrum", "--x", "2", "--phi", "pi"]
        code_json, out_json, _ = run(capsys, *argv, "--format", "json")
        code_csv, out_csv, _ = run(capsys, *argv)
        assert code_json == code_csv == 0
        assert out_csv.splitlines()[0] == "eigenvalue,multiplicity"
        assert json.loads(out_json)[0]["multiplicity"] == 2
        assert run(capsys, *argv, "--format", "json")[1] == out_json

    def test_bad_flux_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--x", "2", "--phi", "nope")
        assert code == 1
        assert "error:" in err


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "bands", "--x", "2,3", "--phi", "pi/3",
                             "--grid", "17", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spectrum_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("x.csv", "y.csv"):
            path = tmp_path / name
            run(capsys, "spectrum", "--x", "2,2,2", "--phi", "0", "--method",
                "theorem", "--out", str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


def per_cell_csv(header, rows):
    """The per-cell CSV route that ``_rows_to_output`` replaces."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


FLOATS = [0.0, -0.0, 1.0, -2.5, math.pi, 1 / 3, 5e-324, -5e-324, 2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf,
          1e16, 123456789012345678.0, np.float64(0.1), np.float64(-0.0), np.float64(math.nan)]
OTHERS = [0, 1, -7, 2**63, 3**80, -(2**64) - 1, np.int64(-9), np.int32(12), np.uint64(2**64 - 1),
          np.float32(0.1), True, "pi/6"]


class TestCsvTable:
    """One template per row, filled with one ``%``, prints every cell as the
    per-cell route did: ``f"{v:.17g}"`` for a float, ``str(v)`` otherwise."""

    def test_float_column_beside_other_columns(self):
        rows = [[f, o, -f] for f, o in zip(FLOATS, OTHERS * 2)]
        want = per_cell_csv(["a", "b", "c"], rows)
        assert cli._rows_to_output(["a", "b", "c"], rows, "csv") == want
        assert cli._rows_to_output(["a", "b", "c"], iter(rows), "csv") == want

    @pytest.mark.parametrize("column", [FLOATS, OTHERS], ids=["floats", "others"])
    def test_single_column(self, column):
        rows = [(v,) for v in column]
        assert cli._rows_to_output(["v"], rows, "csv") == per_cell_csv(["v"], rows)

    def test_empty_table(self):
        assert cli._rows_to_output(["k", "amplitude"], [], "csv") == "k,amplitude\n"
        assert cli._rows_to_output(["k", "amplitude"], iter([]), "csv") == "k,amplitude\n"
        assert cli._rows_to_output(["k", "amplitude"], [], "json") == "[]\n"

    def test_multiplicities_past_int64(self):
        rows = [[1.5, 2**70], [-0.0, 10**30]]
        assert (cli._rows_to_output(["eigenvalue", "multiplicity"], rows, "csv")
                == "eigenvalue,multiplicity\n1.5,1180591620717411303424\n"
                   "-0,1000000000000000000000000000000\n")

    def test_dos_figure_rows(self, capsys):
        """The DOS figure's rows (float, float, int) through the CLI."""
        code, out, _ = run(capsys, "dos", "--x", "2", "--phi-grid", "8", "--k-grid", "16",
                           "--bins", "21")
        header, *lines = out.splitlines()
        rows = [[float(a), float(b), int(c)] for a, b, c in (line.split(",") for line in lines)]
        assert code == 0 and out == per_cell_csv(header.split(","), rows)
