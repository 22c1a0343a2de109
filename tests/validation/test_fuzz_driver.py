"""Tests for the fuzz CLI driver (quick, in-process invocations)."""

from __future__ import annotations

import pytest

import repro.accel.batch as batch
from repro.errors import ValidationError
from repro.validation.fuzz import COMPONENTS, TIERS, fuzz, main, run_case
from repro.validation.seeds import SEED_ENV_VAR, FuzzFailure


class TestFuzzLoop:
    def test_completes_requested_cases(self):
        completed = fuzz(["kernels", "oracle"], 3, budget_s=60.0, max_cases=2)
        assert completed == {"kernels": 2, "oracle": 2}

    def test_budget_bounds_the_loop(self):
        completed = fuzz(["kernels"], 3, budget_s=0.0, max_cases=100)
        assert completed["kernels"] == 0

    def test_unknown_component_rejected(self):
        with pytest.raises(ValidationError, match="unknown fuzz component"):
            run_case("quantum", 1)

    def test_tiers_are_ordered(self):
        assert TIERS["quick"][0] < TIERS["deep"][0]
        assert TIERS["quick"][1] < TIERS["deep"][1]
        assert set(COMPONENTS) == {
            "kernels", "oracle", "fleet", "calibration", "cart"
        }


class TestCli:
    """Human output is structured key=value lines on stderr (repro.obs)."""

    def test_quick_run_exits_zero(self, capsys):
        exit_code = main(["--cases", "3", "--budget", "60", "--seed", "5"])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "seed=5" in err
        assert "no_violations=True" in err

    def test_component_filter(self, capsys):
        exit_code = main(
            ["--component", "oracle", "--cases", "2", "--budget", "60",
             "--seed", "5", "--verbose"]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "component=oracle" in err
        assert "kernels=" not in err

    def test_env_seed_respected(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "909")
        assert main(["--cases", "1", "--budget", "60"]) == 0
        assert "seed=909" in capsys.readouterr().err

    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "zzz")
        assert main(["--cases", "1"]) == 2

    def test_quiet_silences_info_lines(self, capsys):
        import repro.obs as obs

        try:
            exit_code = main(
                ["--cases", "1", "--budget", "60", "--seed", "5", "--quiet"]
            )
        finally:
            obs.set_quiet(False)
        assert exit_code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_failure_exit_code_and_replay_line(self, capsys, monkeypatch):
        monkeypatch.setattr(batch, "_GRAIN_ITEMS", batch._GRAIN_ITEMS * 1.01)
        exit_code = main(
            ["--component", "oracle", "--cases", "25", "--budget", "60",
             "--seed", "5"]
        )
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "ERROR" in err
        assert f"{SEED_ENV_VAR}=" in err
        assert "--cases 1" in err

    def test_quiet_still_prints_failures(self, capsys, monkeypatch):
        import repro.obs as obs

        monkeypatch.setattr(batch, "_GRAIN_ITEMS", batch._GRAIN_ITEMS * 1.01)
        try:
            exit_code = main(
                ["--component", "oracle", "--cases", "25", "--budget", "60",
                 "--seed", "5", "--quiet"]
            )
        finally:
            obs.set_quiet(False)
        assert exit_code == 1
        assert "ERROR" in capsys.readouterr().err

    def test_replayed_seed_fails_identically(self, monkeypatch):
        monkeypatch.setattr(batch, "_GRAIN_ITEMS", batch._GRAIN_ITEMS * 1.01)
        failing = None
        for seed in range(50):
            try:
                run_case("oracle", seed)
            except FuzzFailure as failure:
                failing = failure.case_seed
                break
        assert failing is not None
        assert main(
            ["--component", "oracle", "--cases", "1", "--seed", str(failing)]
        ) == 1
