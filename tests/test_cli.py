import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cssp.cli import main, parse_instance_spec
from cssp.instances import hard_instance, power_law
from cssp.selector import initial_state, select


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInstanceSpec:
    def test_hard(self):
        assert np.array_equal(parse_instance_spec("hard:d=4,delta=1"), hard_instance(4, 1.0))

    def test_power_defaults(self):
        a = parse_instance_spec("power:n=6,d=5,seed=3")
        assert np.array_equal(a, power_law(6, 5, 5, 2.0, 1.0, 3))

    def test_random_shape(self):
        assert parse_instance_spec("random:n=3,d=7,seed=0").shape == (3, 7)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            parse_instance_spec("nope:d=3")

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            parse_instance_spec("hard:delta=1")


class TestSelectCommand:
    def test_hard_instance_json(self, capsys):
        code, out = run_cli(
            capsys, "select", "--instance", "hard:d=4,delta=1", "-k", "2",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "select"
        assert report["subset"] == [1, 2]  # 1-based
        assert report["residual_sq"] == pytest.approx(5.0 / 3.0, abs=1e-6)
        assert report["applicable"] is True
        assert report["timing_ms"] is None
        assert len(report["iteration_roots"]) == 2

    def test_sqrt_flag(self, capsys):
        code, out = run_cli(
            capsys, "select", "--instance", "hard:d=4,delta=1", "-k", "2",
            "--format", "json", "--sqrt",
        )
        report = json.loads(out)
        assert report["residual"] == pytest.approx(np.sqrt(5.0 / 3.0), abs=1e-6)

    def test_timing_flag(self, capsys):
        _, out = run_cli(
            capsys, "select", "--instance", "hard:d=3,delta=1", "-k", "1",
            "--format", "json", "--timing",
        )
        assert json.loads(out)["timing_ms"] > 0.0

    def test_file_input(self, capsys, tmp_path):
        from cssp.mmio import save_matrix_market

        path = tmp_path / "m.mtx"
        save_matrix_market(path, hard_instance(4, 1.0))
        code, out = run_cli(capsys, "select", "--input", str(path), "-k", "2",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["subset"] == [1, 2]

    @pytest.mark.parametrize("spec,k", [("hard:d=6,delta=1", 3),
                                        ("power:n=12,d=9,seed=2", 5),
                                        ("random:n=5,d=11,seed=3", 2)])
    def test_bound_from_selection_spectrum(self, capsys, spec, k):
        # the report reuses the spectrum select computed; it must read
        # exactly as a separate spectrum_of call would
        from cssp.bounds import residual_bound, spectrum_of

        _, out = run_cli(capsys, "select", "--instance", spec, "-k", str(k),
                         "--format", "json")
        report = json.loads(out)
        expected = residual_bound(spectrum_of(parse_instance_spec(spec)), k)
        assert report["bound"] == expected.bound
        assert report["applicable"] == expected.applicable

    @pytest.mark.parametrize("spec,k", [("random:n=40,d=80,seed=1", 3),
                                        ("random:n=100,d=40,seed=1", 5)])
    def test_gaussian_wide_and_tall(self, capsys, spec, k):
        code, out = run_cli(capsys, "select", "--instance", spec, "-k", str(k),
                            "--format", "json")
        assert code == 0
        assert len(set(json.loads(out)["subset"])) == k

    def test_rank_exceeded_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "select", "--instance", "random:n=2,d=2,seed=0",
                          "-k", "3")
        assert code == 1

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "abc"])
    def test_bad_eps_is_usage_error(self, capsys, eps):
        code = main(["select", "--instance", "random:n=6,d=8,seed=3", "-k", "3",
                     f"--eps={eps}", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "eps must be finite and positive" in captured.err


class TestFloatRange:
    @staticmethod
    def _write(tmp_path, norm):
        from cssp.instances import random_gaussian
        from cssp.mmio import save_matrix_market

        a = random_gaussian(6, 8, 3)
        path = tmp_path / "scaled.mtx"
        save_matrix_market(path, a * (norm / np.linalg.svd(a, compute_uv=False)[0]))
        return str(path)

    def test_select_near_top_of_float_range(self, capsys, tmp_path):
        path = self._write(tmp_path, 1.2e154)
        code, out = run_cli(capsys, "select", "--input", path, "-k", "3", "--format", "json")
        assert code == 0
        _, unscaled = run_cli(capsys, "select", "--instance", "random:n=6,d=8,seed=3",
                              "-k", "3", "--format", "json")
        assert json.loads(out)["subset"] == json.loads(unscaled)["subset"]

    def test_select_at_tiny_scale_is_quiet(self, tmp_path):
        # eps is about 1e291 on this input's scale, and no product overflows
        from cssp.mmio import save_matrix_market

        path = tmp_path / "tiny.mtx"
        save_matrix_market(path, np.diag([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10]) * 1e-150)
        proc = subprocess.run([sys.executable, "-m", "cssp.cli", "select", "--input", str(path),
                               "-k", "3", "--format", "json"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["subset"] == [1, 2, 3]  # 1-based

    @pytest.mark.parametrize("command", ["select", "bound"])
    def test_norm_with_infinite_square_is_usage_error(self, capsys, tmp_path, command):
        code = main([command, "--input", self._write(tmp_path, 1e160), "-k", "3"])
        assert code == 1
        assert "exceeds 1.34078e+154" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "bound"])
    @pytest.mark.parametrize("which", ["graded", "gaussian"])
    def test_square_underflow_is_usage_error(self, capsys, tmp_path, command, which):
        from cssp.instances import random_gaussian
        from cssp.mmio import save_matrix_market

        if which == "graded":
            u, _, vt = np.linalg.svd(random_gaussian(6, 6, 1))
            a = (u * np.array([1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-14])) @ vt * 1e-150
        else:
            a = random_gaussian(6, 8, 3) * 1e-163
        path = tmp_path / "tiny.mtx"
        save_matrix_market(path, a)
        assert main([command, "--input", str(path), "-k", "5"]) == 1
        assert "below 2.22276e-162" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", [1e-155, 1e-158])
    def test_subnormal_spectrum_scales_bound(self, capsys, tmp_path, factor):
        from cssp.instances import random_gaussian
        from cssp.mmio import save_matrix_market

        path = tmp_path / "tiny.mtx"
        save_matrix_market(path, random_gaussian(6, 8, 3) * factor)
        for command, keys in (("select", ["bound"]), ("bound", ["bound", "alpha"])):
            code, out = run_cli(capsys, command, "--input", str(path), "-k", "3",
                                "--format", "json")
            assert code == 0
            _, ref = run_cli(capsys, command, "--instance", "random:n=6,d=8,seed=3",
                             "-k", "3", "--format", "json")
            got, want = json.loads(out), json.loads(ref)
            for key in keys:
                assert got[key] / factor / factor == pytest.approx(want[key], rel=1e-6)

    @pytest.mark.parametrize("command", ["select", "bound"])
    def test_deep_subnormal_spectrum_runs(self, capsys, tmp_path, command):
        from cssp.instances import random_gaussian
        from cssp.mmio import save_matrix_market

        path = tmp_path / "tiny.mtx"
        save_matrix_market(path, random_gaussian(6, 8, 3) * 1e-160)
        code, out = run_cli(capsys, command, "--input", str(path), "-k", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["bound"] > 0.0


class TestBoundCommand:
    def test_hard_instance_values(self, capsys):
        code, out = run_cli(
            capsys, "bound", "--instance", "hard:d=10,delta=1", "-k", "5",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == pytest.approx(11.0 / 3.0, rel=1e-9)
        assert report["lower_bound"] == pytest.approx(11.0 / 6.0, rel=1e-9)
        assert report["applicable"] is True

    @pytest.mark.parametrize("spec", ["hard:d=6, delta=2", "hard: d=6,delta=2"])
    def test_spec_whitespace(self, capsys, spec):
        code, out = run_cli(capsys, "bound", "--instance", spec, "-k", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["lower_bound"] == pytest.approx(40.0 / 7.0, rel=1e-12)

    def test_no_lower_bound_for_random(self, capsys):
        _, out = run_cli(capsys, "bound", "--instance", "random:n=5,d=5,seed=2",
                         "-k", "2", "--format", "json")
        assert "lower_bound" not in json.loads(out)

    @pytest.mark.parametrize("k", ["-3", "0", "9"])
    def test_k_outside_rank_rejected(self, capsys, k):
        # as in select, verify and bench, k must lie in [1, rank]
        code = main(["bound", "--instance", "random:n=4,d=4,seed=1", "-k", k, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"k={k} outside [1, rank=4]" in captured.err


class TestVerifyCommand:
    def test_seeded_instance_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--instance", "random:n=6,d=6,seed=1", "-k", "3",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert all(rec["pass"] for rec in report["identities"].values())

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "verify", "--instance", "random:n=5,d=4,seed=2",
                            "-k", "2")
        assert code == 0
        assert "identities" in out and "pass" in out


class TestGenAndBench:
    def test_gen_then_select(self, capsys, tmp_path):
        path = tmp_path / "gen.mtx"
        code, _ = run_cli(capsys, "gen", "--instance", "hard:d=4,delta=1",
                          "-o", str(path))
        assert code == 0
        code, out = run_cli(capsys, "select", "--input", str(path), "-k", "2",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["residual_sq"] == pytest.approx(5.0 / 3.0, abs=1e-6)

    def test_bench_rows(self, capsys):
        code, out = run_cli(capsys, "bench", "--instance", "hard:d=5,delta=1",
                            "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["k"] for row in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row["residual_sq"] <= row["bound"] + 1e-9
            assert row["lower_bound"] <= row["residual_sq"] + 1e-9

    @pytest.mark.parametrize("spec", ["hard:d=6, delta=2", "hard: d=6,delta=2"])
    def test_bench_spec_whitespace(self, capsys, spec):
        code, out = run_cli(capsys, "bench", "--instance", spec, "--kmax", "3",
                            "--format", "json")
        assert code == 0
        _, ref = run_cli(capsys, "bench", "--instance", "hard:d=6,delta=2", "--kmax", "3",
                         "--format", "json")
        rows = json.loads(out)["rows"]
        assert rows == json.loads(ref)["rows"]
        assert rows[2]["lower_bound"] == pytest.approx(40.0 / 7.0, rel=1e-12)

    def test_empty_k_range_is_usage_error(self, capsys):
        code = main(["bench", "--instance", "hard:d=5,delta=1", "--kmin", "3", "--kmax", "1",
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "kmin=3 > kmax=1" in captured.err

    def test_bench_csv(self, capsys):
        code, out = run_cli(capsys, "bench", "--instance", "hard:d=4,delta=1",
                            "--kmin", "2", "--kmax", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,residual_sq,bound")
        assert len(lines) == 3

    def test_bench_text(self, capsys):
        code, out = run_cli(capsys, "bench", "--instance", "hard:d=4,delta=1",
                            "--kmin", "2", "--kmax", "3", "--format", "text")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("  ")]
        assert [row.split()[0] for row in rows] == ["k=2", "k=3"]
        assert all(" residual_sq=" in row and " lower_bound=" in row for row in rows)

    def test_bench_rows_match_select(self, capsys):
        code, out = run_cli(capsys, "bench", "--instance", "random:n=6,d=8,seed=3",
                            "--format", "json")
        assert code == 0
        matrix = parse_instance_spec("random:n=6,d=8,seed=3")
        rows = json.loads(out)["rows"]
        assert [row["k"] for row in rows] == [1, 2, 3, 4, 5]
        for row in rows:
            assert row["residual_sq"] == select(matrix, row["k"]).residual_sq

    def test_bench_prepares_its_input_once(self, capsys, monkeypatch):
        import cssp.cli as cli_mod

        calls = []

        def counted(a):
            calls.append(a)
            return initial_state(a)

        monkeypatch.setattr(cli_mod, "initial_state", counted)
        code, _ = run_cli(capsys, "bench", "--instance", "power:n=8,d=8,seed=1",
                          "--format", "json")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("bad, message", [(("--kmax", "5"), "k=4 outside [1, rank=3]"),
                                              (("--kmin", "0"), "k=0 outside [1, rank=3]")],
                             ids=["kmax", "kmin"])
    def test_bench_k_outside_rank_rejected_before_selecting(self, capsys, monkeypatch,
                                                           bad, message):
        import cssp.cli as cli_mod

        def never(*args):
            raise AssertionError("a selection ran")

        monkeypatch.setattr(cli_mod, "_select", never)
        code = main(["bench", "--instance", "random:n=3,d=5,seed=2", *bad, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert message in captured.err


class TestCsvReports:
    # instance specs, subsets and root lists contain commas
    SPEC = "hard:d=5,delta=1"

    @pytest.mark.parametrize("argv", [
        ("select", "-k", "2"),
        ("bound", "-k", "2"),
        ("verify", "-k", "2"),
        ("bench",),
    ])
    def test_rows_parse_to_header_length(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--instance", self.SPEC, "--format", "csv")
        assert code == 0
        blocks = [[]]
        for row in csv.reader(io.StringIO(out)):
            if row[0] == "identity":  # verify's second table
                blocks.append([])
            blocks[-1].append(row)
        for block in blocks:
            assert len(block) >= 2
            assert {len(row) for row in block} == {len(block[0])}
        report = dict(zip(*blocks[0][:2]))
        if "input" in report:
            assert report["input"] == f"instance:{self.SPEC}"

    def test_select_fields_round_trip(self, capsys):
        _, out = run_cli(capsys, "select", "--instance", self.SPEC, "-k", "2", "--format", "csv")
        _, ref = run_cli(capsys, "select", "--instance", self.SPEC, "-k", "2", "--format", "json")
        header, row = csv.reader(io.StringIO(out))
        report = json.loads(ref)
        fields = dict(zip(header, row))
        assert json.loads(fields["subset"]) == report["subset"]
        assert json.loads(fields["iteration_roots"]) == report["iteration_roots"]


class TestUsageErrors:
    def test_missing_source(self, capsys):
        assert main(["select", "-k", "2"]) == 1

    def test_both_sources(self, capsys):
        code = main(["select", "--input", "x.mtx", "--instance", "hard:d=3",
                     "-k", "1"])
        assert code == 1

    def test_unreadable_file(self, capsys):
        assert main(["select", "--input", "/nonexistent.mtx", "-k", "1"]) == 1

    def test_bad_instance(self, capsys):
        assert main(["bound", "--instance", "bogus:q=1", "-k", "1"]) == 1


class TestExitCodes:
    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_bad_eps_is_usage_error_in_every_command(self, capsys, command, eps):
        extra = {"bench": []}.get(command, ["-k", "3"])
        code = main([command, "--instance", "random:n=6,d=8,seed=3", *extra,
                     f"--eps={eps}", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "eps must be finite and positive" in captured.err

    @pytest.mark.parametrize("option", ["--eps=1e-9", "--threads=2"])
    @pytest.mark.parametrize("command", ["bound", "gen"])
    def test_root_options_rejected_where_no_root_is_computed(self, capsys, tmp_path, command, option):
        path = tmp_path / "gen.mtx"
        extra = {"gen": ["-o", str(path)], "bound": ["-k", "3"]}[command]
        code = main([command, "--instance", "random:n=6,d=8,seed=3", *extra, option,
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not path.exists()

    def test_verification_failure_exits_2(self, capsys, monkeypatch):
        import cssp.cli as cli_mod

        impossible = {name: -1.0 for name in cli_mod.IDENTITY_TOLERANCES}
        monkeypatch.setattr(cli_mod, "IDENTITY_TOLERANCES", impossible)
        code = main(["verify", "--instance", "random:n=4,d=4,seed=0", "-k", "2",
                     "--format", "json"])
        assert code == 2

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        import cssp.cli as cli_mod
        from cssp.errors import NoRootInRange

        def boom(*args, **kwargs):
            raise NoRootInRange("stub")

        monkeypatch.setattr(cli_mod, "select", boom)
        code = main(["select", "--instance", "hard:d=3,delta=1", "-k", "1"])
        assert code == 3

    def test_score_chain_violation_exits_3(self, capsys, monkeypatch):
        import cssp.selector as selector_mod

        calls = []

        def rising(mu, power, eps, noise, tally=None, t=None, shared=None):
            calls.append(power)
            return scorer(mu, power, eps, noise, tally, t, shared) + len(calls)

        scorer = selector_mod._root_scores
        monkeypatch.setattr(selector_mod, "_root_scores", rising)
        code = main(["select", "--instance", "random:n=6,d=6,seed=0", "-k", "3"])
        assert code == 3
        assert "score chain violated at iteration 1:" in capsys.readouterr().err

    def test_chain_head_below_every_candidate_exits_3(self, capsys, monkeypatch):
        # a bracket-size input whose chain head is forced to 0: every
        # candidate is dropped at the chain bound, and the error reports
        # the least of their certified lower bounds, which is finite
        import cssp.selector as selector_mod

        calls = []

        def lowered(mu, power, eps, noise, tally=None, t=None, shared=None):
            calls.append(power)
            out = scorer(mu, power, eps, noise, tally, t, shared)
            return out * 0.0 if len(calls) == 1 else out

        scorer = selector_mod._root_scores
        monkeypatch.setattr(selector_mod, "_root_scores", lowered)
        code = main(["select", "--instance", "random:n=40,d=80,seed=7", "-k", "20"])
        assert code == 3
        err = capsys.readouterr().err
        assert "score chain violated at iteration 1:" in err and "inf" not in err

    def test_uncertified_score_exits_3(self, capsys, monkeypatch):
        import cssp.selector as selector_mod

        monkeypatch.setattr(selector_mod, "_CERTIFICATE_RETRIES", -1)
        code = main(["select", "--instance", "random:n=6,d=6,seed=0", "-k", "3"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: score ") and "could not be certified" in err

    def test_residual_above_last_root_exits_3(self, capsys, monkeypatch):
        import cssp.selector as selector_mod

        a = parse_instance_spec("random:n=6,d=6,seed=0")
        root = select(a, 3).iteration_roots[-1].value
        residual = 2.0 * root + initial_state(a).eigs[0]
        monkeypatch.setattr(selector_mod, "_residual_sq", lambda *args: residual)
        code = main(["select", "--instance", "random:n=6,d=6,seed=0", "-k", "3"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"numerical failure: final residual {residual!r} exceeds its certified root {root!r}\n")

    def test_dimension_mismatch_exits_1(self, capsys, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0\n")
        assert main(["select", "--input", str(path), "-k", "1"]) == 1

    def test_rank_zero_input_names_k_and_rank_in_every_command(self, capsys, tmp_path):
        path = tmp_path / "zero.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 3\n" + "0\n" * 6)
        for argv in (["select", "-k", "1"], ["verify", "-k", "1"], ["bound", "-k", "1"],
                     ["bench"]):
            code = main([*argv, "--input", str(path)])
            captured = capsys.readouterr()
            assert code == 1, argv
            assert captured.out == ""
            assert "k=1 outside [1, rank=0]" in captured.err, argv


class TestDeterminism:
    def test_byte_identical_reports_across_threads(self):
        cmd = [sys.executable, "-m", "cssp.cli", "select", "--format", "json", "--instance"]
        outputs = set()
        for threads in ("1", "2", "4"):
            for _ in range(2):
                proc = subprocess.run(cmd + ["hard:d=5,delta=1", "-k", "2", "--threads", threads],
                                      capture_output=True, check=True)
                outputs.add(proc.stdout)
        assert len(outputs) == 1
        # nor does the BLAS thread count, on inputs where a threaded BLAS
        # would sum E E^T in another order
        for args in (["random:n=100,d=300,seed=7", "-k", "30"],
                     ["power:n=128,d=128,seed=7", "-k", "64"]):
            outputs = set()
            for blas in ("1", "4"):
                env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": blas}
                proc = subprocess.run(cmd + args, capture_output=True, check=True, env=env)
                outputs.add(proc.stdout)
            assert len(outputs) == 1, args

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_verify_byte_identical_across_repeats_and_threads(self, capsys, fmt):
        outputs = set()
        for threads in ("1", "2", "auto"):
            for _ in range(2):
                code, out = run_cli(capsys, "verify", "--instance", "random:n=6,d=6,seed=1",
                                    "-k", "3", "--threads", threads, "--format", fmt)
                assert code == 0
                outputs.add(out)
        assert len(outputs) == 1

    def test_auto_threads_accepted(self, capsys):
        code, _ = run_cli(capsys, "select", "--instance", "hard:d=3,delta=1",
                          "-k", "1", "--threads", "auto", "--format", "json")
        assert code == 0


class TestRepeatedCalls:
    # main builds its parser once per process; no call may leak into the next
    PLAIN = ("select", "--instance", "hard:d=5,delta=1", "-k", "2", "--format", "json")

    def test_flags_do_not_carry_over(self, capsys):
        code, _ = run_cli(capsys, *self.PLAIN, "--sqrt", "--timing")
        assert code == 0
        code, out = run_cli(capsys, *self.PLAIN)
        assert code == 0
        report = json.loads(out)
        assert "residual" not in report
        assert report["timing_ms"] is None
        first = subprocess.run([sys.executable, "-m", "cssp.cli", *self.PLAIN],
                               capture_output=True, check=True)
        assert out.encode() == first.stdout

    def test_usage_error_then_valid_call(self, capsys):
        code, _ = run_cli(capsys, "select", "--instance", "hard:d=5,delta=1", "-k", "2",
                          "--format", "yaml")
        assert code == 1
        code, out = run_cli(capsys, *self.PLAIN)
        assert code == 0
        assert json.loads(out)["subset"] == [1, 2]
