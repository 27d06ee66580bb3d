"""Tests for the command-line interface."""

import pytest

from repro.attacks.delay import CalibrationDelayAttacker
from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "inc", "ablation"):
            assert name in out


class TestRun:
    def test_run_inc(self, capsys):
        assert main(["run", "inc"]) == 0
        out = capsys.readouterr().out
        assert "632182" in out.replace(" ", "")

    def test_run_ablation(self, capsys):
        assert main(["run", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "mean-only" in out

    def test_run_fig2_short_with_export(self, capsys, tmp_path):
        target = tmp_path / "csv"
        assert main(["run", "fig2", "--duration-s", "120", "--export", str(target)]) == 0
        out = capsys.readouterr().out
        assert "node-1" in out
        assert (target / "drift.csv").exists()

    def test_run_fig6_custom_seed(self, capsys):
        assert main(["run", "fig6", "--duration-s", "150", "--seed", "99"]) == 0
        out = capsys.readouterr().out
        assert "node-3" in out

    def test_duration_ignored_for_fixed_experiments(self, capsys):
        assert main(["run", "inc", "--duration-s", "5"]) == 0
        out = capsys.readouterr().out
        assert "ignored" in out

    def test_run_membership_prints_the_verdict_journal_after_the_table(self, capsys):
        assert main(["run", "fig6", "--duration-s", "30"]) == 0
        table = capsys.readouterr().out
        assert main(["run", "fig6", "--duration-s", "30", "--membership", "observe"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(table + "\nmembership: mode=observe")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweep:
    def test_sweep_jitter(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["sweep", "jitter"]) == 0
        out = capsys.readouterr().out
        assert "jitter_sigma" in out
        assert "mean_abs_error_ppm" in out

    def test_unknown_sweep_rejected(self):
        import pytest as _pytest

        from repro.cli import main as cli_main

        with _pytest.raises(SystemExit):
            cli_main(["sweep", "bogus"])


class TestSweepFleetFlags:
    def test_sweep_seed_and_export_write_csv(self, capsys, tmp_path):
        target = tmp_path / "csv"
        assert main([
            "sweep", "jitter", "--limit", "1", "--seed", "900",
            "--export", str(target), "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "jitter_sigma" in out
        csv_path = target / "sweep_jitter.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "jitter_sigma,mean_abs_error_ppm,error_spread_ppm"

    def test_sweep_second_run_served_from_cache(self, capsys, tmp_path):
        argv = [
            "sweep", "jitter", "--limit", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # byte-identical table
        assert "1 cache hits" in second.err

    def test_sweep_no_cache_recomputes(self, capsys, tmp_path):
        argv = [
            "sweep", "jitter", "--limit", "1", "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "0 cache hits" in capsys.readouterr().err

    def test_sweep_telemetry_jsonl(self, capsys, tmp_path):
        import json

        jsonl = tmp_path / "telemetry.jsonl"
        assert main([
            "sweep", "jitter", "--limit", "1", "--no-cache",
            "--telemetry", str(jsonl),
        ]) == 0
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert records[0]["event"] == "task"
        assert records[-1]["event"] == "summary"
        assert records[-1]["completed"] == 1

    def test_sweep_prints_each_points_oracle_report(self, capsys):
        argv = ["sweep", "attack-delay", "--limit", "1", "--oracle", "warn", "--no-cache"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "oracle: 2 violation(s)" in err and "node-3 drift-bound" in err

    def test_sweep_rejects_jobs_below_one(self, capsys):
        assert main(["sweep", "jitter", "--limit", "1", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_limit_below_one(self, capsys):
        assert main(["sweep", "jitter", "--limit", "0"]) == 2
        assert "--limit must be >= 1" in capsys.readouterr().err

    def test_reproduce_rejects_jobs_below_one(self, capsys):
        assert main(["reproduce", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestReproduce:
    def test_quick_prints_the_same_bytes_at_any_jobs(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            assert main(["reproduce", "--quick", "--no-cache", "--jobs", jobs]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "=== fig6-hardened ===" in outs[0]

    def test_quick_runs_each_drift_figure_for_a_quarter_of_its_duration(self, capsys):
        assert main(["reproduce", "--quick", "--no-cache"]) == 0
        sections = capsys.readouterr().out.split("\n=== ")
        fig2 = next(section for section in sections if section.startswith("fig2 ===\n"))
        assert main(["run", "fig2", "--duration-s", "450"]) == 0  # 30 min / 4
        assert capsys.readouterr().out == fig2.split("\n", 1)[1]


class TestBatch:
    @staticmethod
    def _write_spec(directory, name, seed):
        import json

        (directory / f"{name}.json").write_text(json.dumps({
            "name": name,
            "seed": seed,
            "duration_s": 8,
            "nodes": 1,
            "machine_wide_mean_s": None,
        }))

    def test_batch_runs_every_spec(self, capsys, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        self._write_spec(specs, "batch-a", 1)
        self._write_spec(specs, "batch-b", 2)
        assert main(["batch", str(specs), "--cache-dir", str(tmp_path / "cache")]) == 0
        captured = capsys.readouterr()
        assert "batch-a" in captured.out
        assert "batch-b" in captured.out
        assert "batch summary" in captured.out
        assert "fleet: 2/2 tasks ok" in captured.err

    def test_batch_empty_directory_fails(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path)]) == 1
        assert "no spec JSONs" in capsys.readouterr().err

    def test_batch_invalid_spec_fails_before_running(self, capsys, tmp_path):
        (tmp_path / "bad.json").write_text('{"name": "x", "bogus_key": 1}')
        assert main(["batch", str(tmp_path)]) == 1
        assert "invalid spec" in capsys.readouterr().err

    def test_batch_prints_plane_reports_like_run_spec(self, capsys, tmp_path):
        import json

        triad = {str(i): "triad-like" for i in range(1, 4)}
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "a-membership.json").write_text(json.dumps({
            "name": "batch-membership", "seed": 6, "duration_s": 4, "nodes": 3,
            "environments": triad, "membership": {"mode": "observe", "epoch_s": 1.0},
        }))
        (specs / "b-service.json").write_text(json.dumps({
            "name": "batch-service", "seed": 11, "duration_s": 12, "nodes": 3,
            "environments": triad, "service": {"sessions": 2000, "quorum": 3},
        }))
        expected = []
        for path in sorted(specs.glob("*.json")):
            assert main(["run-spec", str(path)]) == 0
            expected.append(capsys.readouterr().out)
        assert "membership: mode=observe" in expected[0]
        assert "service: batch-service" in expected[1]
        assert main(["batch", str(specs), "--no-cache"]) == 0
        out = capsys.readouterr().out
        for text in expected:
            assert text in out  # same sections, same order as run-spec


class TestRunSpec:
    def test_run_spec_from_file(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-spec-test",
            "seed": 1,
            "duration_s": 15,
            "nodes": 3,
            "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
            "machine_wide_mean_s": None,
        }))
        assert main(["run-spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-spec-test" in out
        assert "node-3" in out

    def test_run_spec_tabulates_nodes_that_never_calibrated(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-blackhole", "duration_s": 5, "nodes": 3,
            "attacks": [{"type": "ta-blackhole"}],
        }))
        assert main(["run-spec", str(spec_path)]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if "node-1" in line)
        assert row.split()[1] == "-"  # no F_calib to show

    def test_run_spec_with_export(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-export-test",
            "duration_s": 10,
            "environments": {"1": "low-aex", "2": "low-aex", "3": "low-aex"},
        }))
        target = tmp_path / "csv"
        assert main(["run-spec", str(spec_path), "--export", str(target)]) == 0
        assert (target / "drift.csv").exists()

    def test_shipped_sample_specs_are_valid(self):
        from pathlib import Path

        from repro.experiments.spec import ExperimentSpec

        specs_dir = Path(__file__).resolve().parents[1] / "examples" / "specs"
        samples = sorted(specs_dir.glob("*.json"))
        assert len(samples) >= 3
        for path in samples:
            spec = ExperimentSpec.load(path)
            spec.build()  # wiring must succeed without running


#: Malformed specs -> a word the one-line error must contain.
_BAD_SPECS = {
    "zero-nodes": ({"name": "x", "nodes": 0}, "node"),
    "environments-list": ({"name": "x", "environments": [1]}, "environments"),
    "environments-key": ({"name": "x", "environments": {"a": "low-aex"}}, "node index"),
    "nodes-string": ({"name": "x", "nodes": "3"}, "nodes"),
    "seed-bool": ({"name": "x", "seed": True}, "seed"),
    "duration-string": ({"name": "x", "duration_s": "5"}, "duration_s"),
    # Non-finite numbers are wrong values, not crashes.
    "duration-nan": ({"name": "x", "duration_s": float("nan")}, "duration_s"),
    "duration-infinity": ({"name": "x", "duration_s": float("inf")}, "duration_s"),
    "drift-interval-nan": ({"name": "x", "drift_interval_s": float("nan")}, "drift_interval_s"),
    "machine-wide-infinity": (
        {"name": "x", "machine_wide_mean_s": float("inf")},
        "machine_wide_mean_s",
    ),
    "at-s-nan": (
        {"name": "x", "attacks": [{"type": "tsc-scale", "scale": 1.1, "at_s": float("nan")}]},
        "at_s",
    ),
    "start-s-infinity": (
        {"name": "x", "attacks": [{"type": "ta-blackhole", "start_s": float("inf")}]},
        "start_s",
    ),
    "t-s-nan": (
        {"name": "x", "churn": {"schedule": [{"t_s": float("nan"), "node": 1, "action": "leave"}]}},
        "t_s",
    ),
    "delay-ms-infinity": (
        {"name": "x", "attacks": [{"type": "fminus", "victim": 3, "delay_ms": float("inf")}]},
        "delay_ms",
    ),
    "down-ms-infinity": (
        {
            "name": "x",
            "faults": {
                "schedule": [{"t_s": 5, "kind": "node-crash", "node": 1, "down_ms": float("inf")}]
            },
        },
        "down_ms",
    ),
    # Rejected before anything runs, not when the cluster is built.
    "aex-onset-without-aex-source": (
        {"name": "x", "attacks": [{"type": "aex-onset", "nodes": [1], "at_s": 5}]},
        "no AEX source",
    ),
    # The cluster-wide keys name themselves (and the field or parameter).
    "node-config-unknown-field": (
        {"name": "x", "node_config": {"monitor_samples": 4}},
        "node_config: unknown field 'monitor_samples'",
    ),
    "node-config-wrong-type": (
        {"name": "x", "node_config": {"monitor_enabled": "no"}},
        "node_config.monitor_enabled",
    ),
    # node_config is judged by the same TriadNodeConfig rules as faults.retry,
    # and a config that passes them calibrates: nothing fails mid-run.
    "node-config-backoff-factor-below-one": (
        {"name": "x", "node_config": {"retry_backoff_factor": 0.5}},
        "node_config.retry_backoff_factor",
    ),
    "node-config-jitter-above-one": (
        {"name": "x", "node_config": {"retry_jitter": 3.0}},
        "node_config.retry_jitter",
    ),
    "node-config-zero-attempt-budget": (
        {"name": "x", "node_config": {"ta_fetch_attempt_budget": 0}},
        "node_config.ta_fetch_attempt_budget",
    ),
    "node-config-zero-calibration-rounds": (
        {"name": "x", "node_config": {"calibration_rounds": 0}},
        "node_config.calibration_rounds",
    ),
    "node-config-one-calibration-sleep": (
        {"name": "x", "node_config": {"calibration_sleeps_ns": [0]}},
        "node_config.calibration_sleeps_ns",
    ),
    "node-config-zero-calibration-attempts": (
        {"name": "x", "node_config": {"calibration_max_attempts": 0}},
        "node_config.calibration_max_attempts",
    ),
    "network-delay-unknown-model": (
        {"name": "x", "network_delay": {"model": "pareto"}},
        "network_delay.model",
    ),
    "network-delay-zero": (
        {"name": "x", "network_delay": {"model": "constant", "delay_us": 0}},
        "network_delay.delay_us",
    ),
    "network-delay-negative-sigma": (
        {"name": "x", "network_delay": {"model": "lognormal", "median_us": 150, "sigma": -0.1}},
        "network_delay.sigma",
    ),
    # The membership and service blocks reject non-finite numbers too.
    "membership-epoch-s-infinity": (
        {"name": "x", "membership": {"mode": "observe", "epoch_s": float("inf")}},
        "membership.epoch_s",
    ),
    "membership-probe-interval-ms-infinity": (
        {"name": "x", "membership": {"mode": "observe", "probe_interval_ms": float("inf")}},
        "membership.probe_interval_ms",
    ),
    "membership-suspect-threshold-ms-infinity": (
        {"name": "x", "membership": {"mode": "observe", "suspect_threshold_ms": float("inf")}},
        "membership.suspect_threshold_ms",
    ),
    "service-tick-ms-infinity": (
        {"name": "x", "service": {"sessions": 10, "tick_ms": float("inf")}},
        "service.tick_ms",
    ),
    "service-service-rate-rps-infinity": (
        {"name": "x", "service": {"sessions": 10, "service_rate_rps": float("inf")}},
        "service.service_rate_rps",
    ),
    "service-lease-guard-ms-infinity": (
        {"name": "x", "service": {"sessions": 10, "lease_guard_ms": float("inf")}},
        "service.lease_guard_ms",
    ),
    "service-rtt-margin-us-infinity": (
        {"name": "x", "service": {"sessions": 10, "rtt_margin_us": float("inf")}},
        "service.rtt_margin_us",
    ),
    "service-rate-rps-infinity": (
        {"name": "x", "service": {"sessions": 10, "rate_rps": float("inf")}},
        "service.rate_rps",
    ),
    "service-per-session-rps-infinity": (
        {"name": "x", "service": {"sessions": 10, "per_session_rps": float("inf")}},
        "service.per_session_rps",
    ),
    # Finite, but past what numpy draws: a per-tick Poisson mean above
    # its ~9.2e18 limit, or a closed-loop population past int64.
    "service-rate-rps-past-poisson-limit": (
        {"name": "x", "service": {"sessions": 10, "rate_rps": 1e30}},
        "service.rate_rps",
    ),
    "service-per-session-rps-past-poisson-limit": (
        {"name": "x", "service": {"sessions": 10**9, "per_session_rps": 1e20}},
        "service.per_session_rps",
    ),
    "service-sessions-past-int64": (
        {"name": "x", "service": {"sessions": 10**20, "arrival": "closed"}},
        "service.sessions",
    ),
}


class TestBadInput:
    """Bad input prints one error line, never a traceback: ``run`` and
    ``run-spec`` exit 2 like the presets; ``batch`` names the file, exits 1."""

    @pytest.mark.parametrize(
        "command, case",
        [(command, case) for command in ("run-spec", "batch") for case in _BAD_SPECS]
        + [("run", None), ("run", "nan")],
    )
    def test_reports_the_error_without_a_traceback(self, capsys, tmp_path, command, case):
        import json

        path = tmp_path / "bad.json"
        if command == "run":
            argv, code, word = ["run", "fig6", "--duration-s", case or "0"], 2, "duration"
            prefix = "error: "
        else:
            raw, word = _BAD_SPECS[case]
            path.write_text(json.dumps(raw))
            if command == "run-spec":
                argv, code, prefix = ["run-spec", str(path)], 2, "error: "
            else:
                argv, code = ["batch", str(tmp_path), "--no-cache"], 1
                prefix = f"invalid spec {path}: "
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and word in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["membership", "--epoch-s", "inf"], "membership.epoch_s"),
            (["service", "--rate-rps", "inf"], "service.rate_rps"),
            (["service", "--arrival", "closed", "--think-ms", "inf"], "service.think_ms"),
        ],
    )
    def test_preset_rejects_a_non_finite_flag(self, capsys, argv, key):
        assert main(argv + ["--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert captured.err == f"error: {key}: must be a finite number\n"

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["service", "--rate-rps", "1e30"], "service.rate_rps"),
            (
                ["service", "--arrival", "closed", "--sessions", "100000000000000000000"],
                "service.sessions",
            ),
        ],
    )
    def test_preset_rejects_what_numpy_cannot_draw(self, capsys, argv, key):
        assert main(argv + ["--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert captured.err.startswith(f"error: {key}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("case", ["run-spec-missing", "run-spec-directory", "batch-directory"])
    def test_unreadable_spec_path_is_one_error_line(self, capsys, tmp_path, case):
        entry = tmp_path / "entry.json"
        if case == "run-spec-missing":
            argv, code, prefix, word = ["run-spec", str(entry)], 2, "error: ", "No such file"
        elif case == "run-spec-directory":
            argv, code, prefix, word = ["run-spec", str(tmp_path)], 2, "error: ", "Is a directory"
        else:
            entry.mkdir()
            argv, code = ["batch", str(tmp_path), "--no-cache"], 1
            prefix, word = f"invalid spec {entry}: ", "Is a directory"
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and word in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "run-spec", "sweep"])
    def test_export_to_a_file_fails_before_running(self, capsys, tmp_path, command):
        import json

        target = tmp_path / "taken"
        target.write_text("")
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps({"name": "tiny", "duration_s": 5, "nodes": 1}))
        argv = {
            "run": ["run", "fig4", "--duration-s", "5"],
            "run-spec": ["run-spec", str(spec_path)],
            "sweep": ["sweep", "jitter", "--limit", "1", "--no-cache"],
        }[command]
        assert main(argv + ["--export", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert captured.err == f"error: --export {target} exists and is not a directory\n"


class TestOracleFlag:
    def test_run_benign_warn_is_clean(self, capsys):
        assert main(["run", "fig2", "--duration-s", "20", "--oracle", "warn"]) == 0
        captured = capsys.readouterr()
        assert "node-1" in captured.out
        assert "violation" not in captured.err

    def test_run_attack_strict_passes_when_expected(self, capsys):
        # fig4's violations are registered as expected: strict stays green
        # but the report still lands on stderr.
        assert main(["run", "fig4", "--duration-s", "30", "--oracle", "strict"]) == 0
        captured = capsys.readouterr()
        assert "node-3" in captured.out
        assert "drift-bound" in captured.err
        assert "state-soundness" in captured.err

    def test_run_strict_fails_on_unexpected(self, capsys, monkeypatch):
        # Strip fig4's allowance: its violations become unexpected.
        monkeypatch.setattr(
            CalibrationDelayAttacker, "expected_violations", lambda self, contained=False: set()
        )
        assert main(["run", "fig4", "--duration-s", "30", "--oracle", "strict"]) == 1
        assert "unexpected" in capsys.readouterr().err

    def test_run_warn_reports_but_passes_on_unexpected(self, capsys, monkeypatch):
        monkeypatch.setattr(
            CalibrationDelayAttacker, "expected_violations", lambda self, contained=False: set()
        )
        assert main(["run", "fig4", "--duration-s", "30", "--oracle", "warn"]) == 0
        assert "UNEXPECTED" in capsys.readouterr().err

    def test_oracle_off_leaves_stderr_silent(self, capsys):
        assert main(["run", "fig4", "--duration-s", "30"]) == 0
        assert "violation" not in capsys.readouterr().err

    def test_sweep_strict_with_expected_violations(self, capsys, tmp_path):
        assert main([
            "sweep", "attack-delay", "--limit", "1", "--oracle", "strict",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        captured = capsys.readouterr()
        assert "skew_measured" in captured.out
        assert "oracle violation" in captured.err

    def test_sweep_oracle_mode_keys_the_cache(self, capsys, tmp_path):
        # warn-mode results must not be served from an off-mode cache entry
        # (the mode is part of the task content hash via overrides).
        argv = ["sweep", "jitter", "--limit", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--oracle", "warn"]) == 0
        assert "0 cache hits" in capsys.readouterr().err  # recomputed, not served
        assert main(argv + ["--oracle", "warn"]) == 0
        assert "1 cache hits" in capsys.readouterr().err

    def test_policy_restored_after_run(self):
        from repro.oracle import current_policy

        assert main(["run", "fig2", "--duration-s", "10", "--oracle", "warn"]) == 0
        assert current_policy().oracle == "off"


class TestMembershipFlag:
    def test_spec_block_wins_and_runs_one_engine(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.sim.kernel import Simulator

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "one-engine", "seed": 6, "duration_s": 4, "nodes": 3,
            "environments": {str(i): "triad-like" for i in range(1, 4)},
            "attacks": [{"type": "fminus", "victim": 3, "delay_ms": 100}],
            "membership": {"mode": "enforce", "epoch_s": 1.0},
        }))
        assert main(["run-spec", str(spec_path)]) == 0
        plain = capsys.readouterr().out
        assert "membership: mode=enforce" in plain

        started = []
        original = Simulator.process

        def counting(sim, generator, name=""):
            started.append(name)
            return original(sim, generator, name=name)

        monkeypatch.setattr(Simulator, "process", counting)
        assert main(["run-spec", str(spec_path), "--membership", "observe"]) == 0
        assert started.count("membership/engine") == 1
        assert capsys.readouterr().out == plain


class TestHunt:
    def test_tiny_hunt_writes_corpus_and_reports(self, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        assert main([
            "hunt", "--seed", "7", "--budget", "4", "--population", "4",
            "--corpus-dir", str(corpus_dir), "--no-shrink",
        ]) == 0
        out = capsys.readouterr().out
        assert "hunt: seed 7" in out
        assert "corpus:" in out
        assert (corpus_dir / "MANIFEST.json").exists()

    def test_hunt_telemetry_export(self, capsys, tmp_path):
        import json

        target = tmp_path / "telemetry.jsonl"
        assert main([
            "hunt", "--budget", "2", "--population", "2", "--no-shrink",
            "--corpus-dir", str(tmp_path / "corpus"), "--telemetry", str(target),
        ]) == 0
        records = [json.loads(line) for line in target.read_text().splitlines()]
        assert records[-1]["event"] == "summary"
        assert records[-1]["total"] == 2
        assert "peak_rss_kb" in records[-1]

    def test_hunt_rejects_bad_jobs_and_budget(self, capsys, tmp_path):
        assert main(["hunt", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["hunt", "--budget", "0",
                     "--corpus-dir", str(tmp_path)]) == 2
        assert "budget" in capsys.readouterr().err
