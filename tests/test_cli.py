import json
import subprocess
import sys

import numpy as np
import pytest

from cssp.cli import main, parse_instance_spec
from cssp.instances import hard_instance, power_law


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

    def test_no_lower_bound_for_random(self, capsys):
        _, out = run_cli(capsys, "bound", "--instance", "random:n=5,d=5,seed=2",
                         "-k", "2", "--format", "json")
        assert "lower_bound" not in json.loads(out)


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

    def test_bench_csv(self, capsys):
        code, out = run_cli(capsys, "bench", "--instance", "hard:d=4,delta=1",
                            "--kmin", "2", "--kmax", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,residual_sq,bound")
        assert len(lines) == 3


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
    def test_verification_failure_exits_2(self, capsys, monkeypatch):
        import cssp.cli as cli_mod

        impossible = {name: -1.0 for name in cli_mod.IDENTITY_TOLERANCES}
        monkeypatch.setattr(cli_mod, "IDENTITY_TOLERANCES", impossible)
        code = main(["verify", "--instance", "random:n=4,d=4,seed=0", "-k", "2",
                     "--format", "json"])
        assert code == 2

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        import cssp.cli as cli_mod
        from cssp.errors import NoConvergence

        def boom(*args, **kwargs):
            raise NoConvergence("stub")

        monkeypatch.setattr(cli_mod, "select", boom)
        code = main(["select", "--instance", "hard:d=3,delta=1", "-k", "1"])
        assert code == 3

    def test_score_chain_violation_exits_3(self, capsys, monkeypatch):
        import cssp.selector as selector_mod

        calls = []

        def rising(mu, power, eps, noise):
            calls.append(power)
            return scorer(mu, power, eps, noise) + len(calls)

        scorer = selector_mod._root_scores
        monkeypatch.setattr(selector_mod, "_root_scores", rising)
        code = main(["select", "--instance", "random:n=6,d=6,seed=0", "-k", "3"])
        assert code == 3
        assert "score chain violated at iteration 1:" in capsys.readouterr().err

    def test_dimension_mismatch_exits_1(self, capsys, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0\n")
        assert main(["select", "--input", str(path), "-k", "1"]) == 1


class TestDeterminism:
    def test_byte_identical_reports_across_threads(self):
        cmd = [sys.executable, "-m", "cssp.cli", "select", "--instance",
               "hard:d=5,delta=1", "-k", "2", "--format", "json"]
        outputs = set()
        for threads in ("1", "2", "4"):
            for _ in range(2):
                proc = subprocess.run(cmd + ["--threads", threads],
                                      capture_output=True, check=True)
                outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_auto_threads_accepted(self, capsys):
        code, _ = run_cli(capsys, "select", "--instance", "hard:d=3,delta=1",
                          "-k", "1", "--threads", "auto", "--format", "json")
        assert code == 0
