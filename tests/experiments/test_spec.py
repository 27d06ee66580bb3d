"""Tests for declarative experiment specifications."""

import json
from pathlib import Path

import pytest

from repro.attacks.delay import CalibrationDelayAttacker
from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec
from repro.hardened.node import HardenedNodeConfig, HardenedTriadNode
from repro.net.delays import ConstantDelay, LogNormalDelay
from repro.oracle.policy import oracle_policy
from repro.sim import units


SPECS_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"
VICTIM_PAIRS = {("node-3", "drift-bound"), ("node-3", "state-soundness")}


def allowance(spec):
    """The oracle allowance a spec's build grants (its applied actions')."""
    with oracle_policy("warn"):
        return spec.build().oracle.allowed


def minimal_spec(**overrides):
    raw = {
        "name": "test-spec",
        "seed": 900,
        "duration_s": 30,
        "nodes": 3,
        "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
        "machine_wide_mean_s": None,
    }
    raw.update(overrides)
    return ExperimentSpec.from_dict(raw)


class TestValidation:
    def test_minimal_spec_valid(self):
        spec = minimal_spec()
        assert spec.protocol == "original"
        assert spec.duration_ns == 30 * units.SECOND

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown spec keys"):
            ExperimentSpec.from_dict({"name": "x", "sneed": 1})

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_spec(protocol="quantum")

    def test_unknown_environment_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_spec(environments={"1": "zero-gravity"})

    def test_environment_for_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_spec(environments={"7": "triad-like"})

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown attack type"):
            minimal_spec(attacks=[{"type": "teleport"}])

    def test_attack_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys"):
            minimal_spec(attacks=[{"type": "fminus"}])

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ExperimentSpec.from_json("{nope")
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_json("[1, 2]")


class TestSerialization:
    def test_json_round_trip(self):
        spec = minimal_spec(
            protocol="hardened",
            attacks=[{"type": "fminus", "victim": 3, "delay_ms": 50}],
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(minimal_spec().to_json())
        assert ExperimentSpec.load(path).name == "test-spec"


class TestExecution:
    def test_fault_free_spec_runs(self):
        experiment = minimal_spec().run()
        assert experiment.duration_ns == 30 * units.SECOND
        for index in (1, 2, 3):
            assert experiment.node(index).clock.calibrated

    def test_hardened_protocol_selected(self):
        spec = minimal_spec(protocol="hardened", duration_s=10)
        experiment = spec.run()
        assert all(isinstance(node, HardenedTriadNode) for node in experiment.cluster.nodes)

    def test_fminus_attack_applied(self):
        spec = minimal_spec(
            duration_s=60,
            attacks=[{"type": "fminus", "victim": 3, "delay_ms": 100}],
        )
        experiment = spec.run()
        assert len(experiment.attackers) == 1
        assert isinstance(experiment.attackers[0], CalibrationDelayAttacker)
        skew = (
            experiment.node(3).stats.latest_frequency_hz
            / experiment.cluster.machine.tsc.frequency_hz
        )
        assert skew == pytest.approx(0.9, rel=1e-2)

    def test_fminus_allowance_follows_the_protocol(self):
        """The original protocol allows the F− cascade on any node; the
        hardened one, whose honest nodes hold (§V), only the victim."""
        attacks = [{"type": "fminus", "victim": 3, "delay_ms": 100}]
        assert allowance(minimal_spec(attacks=attacks)) == {
            ("*", "drift-bound"), ("*", "state-soundness"), ("*", "untaint-safety"),
        }
        assert allowance(minimal_spec(protocol="hardened", attacks=attacks)) == VICTIM_PAIRS

    def test_hardened_fminus_presets_allow_only_the_victim(self):
        from repro.cli import _build_parser, _service_spec_dict

        args = _build_parser().parse_args(
            ["service", "--attack", "fminus", "--sessions", "1000", "--duration-s", "10"]
        )
        shipped = json.loads((SPECS_DIR / "fminus_hardened.json").read_text())
        for raw in (_service_spec_dict(args), shipped):
            assert allowance(ExperimentSpec.from_dict(raw)) == VICTIM_PAIRS, raw["name"]

    def test_aex_onset_attack_applied(self):
        spec = minimal_spec(
            duration_s=40,
            attacks=[{"type": "aex-onset", "nodes": [1, 2], "at_s": 20}],
        )
        experiment = spec.run()
        # Nodes 1, 2 had no AEXs before t=20s; node 3 throughout.
        for index in (1, 2):
            times = experiment.node(index).stats.aex_times_ns
            assert all(t >= 20 * units.SECOND for t in times)
        assert any(
            t < 20 * units.SECOND for t in experiment.node(3).stats.aex_times_ns
        )

    def test_aex_onset_requires_triad_like_environment(self):
        spec = minimal_spec(
            environments={"1": "low-aex", "2": "triad-like", "3": "triad-like"},
            attacks=[{"type": "aex-onset", "nodes": [1], "at_s": 5}],
        )
        with pytest.raises(ConfigurationError, match="no AEX source"):
            spec.build()

    def test_ta_blackhole_spec(self):
        spec = minimal_spec(
            duration_s=30,
            attacks=[{"type": "ta-blackhole", "start_s": 5, "stop_s": 10}],
        )
        experiment = spec.run()
        assert experiment.attackers

    def test_multi_ta_spec(self):
        spec = minimal_spec(ta_count=3, duration_s=10)
        experiment = spec.build()
        assert len(experiment.cluster.tas) == 3


def _entry(**overrides):
    entry = {
        "t_ns": 500_000_000,
        "primitive": "tsc-offset",
        "params": {"offset_ticks": -150_000_000, "victim": 1},
    }
    entry.update(overrides)
    return entry


class TestClusterWideKeys:
    """``network_delay`` and ``node_config`` replace cluster-wide defaults."""

    def test_constant_network_delay(self):
        spec = minimal_spec(network_delay={"model": "constant", "delay_us": 100})
        model = spec.build().cluster.config.delay_model
        assert isinstance(model, ConstantDelay)
        assert model.delay_ns == 100 * units.MICROSECOND

    def test_lognormal_network_delay(self):
        spec = minimal_spec(network_delay={"model": "lognormal", "median_us": 150, "sigma": 0.35})
        model = spec.build().cluster.config.delay_model
        assert isinstance(model, LogNormalDelay)
        assert (model.median_ns, model.sigma) == (150 * units.MICROSECOND, 0.35)

    def test_node_config_reaches_every_node(self):
        spec = minimal_spec(
            node_config={"monitor_calibration_samples": 4, "calibration_sleeps_ns": [0, 50_000_000]}
        )
        for node in spec.build().cluster.nodes:
            assert node.config.monitor_calibration_samples == 4
            assert node.config.calibration_sleeps_ns == (0, 50_000_000)

    def test_node_config_overrides_the_hardened_config(self):
        spec = minimal_spec(protocol="hardened", node_config={"monitor_enabled": False})
        config = spec.build().cluster.nodes[0].config
        assert isinstance(config, HardenedNodeConfig)
        assert config.monitor_enabled is False

    def test_both_keys_survive_json_round_trip(self):
        spec = minimal_spec(
            network_delay={"model": "constant", "delay_us": 50},
            node_config={"ta_fetch_attempt_budget": None, "retry_backoff_factor": 2},
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"network_delay": {"model": "constant"}}, "missing keys"),
            ({"network_delay": {"model": "constant", "delay_us": 1, "x": 2}}, "unknown keys"),
            ({"network_delay": {"model": "lognormal", "median_us": 1, "sigma": 0}}, "sigma"),
            ({"node_config": {"calibration_sleeps_ns": []}}, "calibration_sleeps_ns"),
            ({"node_config": {"calibration_rounds": True}}, "calibration_rounds"),
            ({"node_config": {"retry_jitter": float("nan")}}, "retry_jitter"),
            ({"node_config": [1]}, "node_config"),
        ],
    )
    def test_bad_values_name_the_key(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            minimal_spec(**overrides)


class TestScheduleValidation:
    def test_valid_schedule_accepted(self):
        spec = minimal_spec(schedule=[_entry()])
        assert spec.schedule[0]["primitive"] == "tsc-offset"

    def test_errors_name_the_offending_entry_index(self):
        with pytest.raises(ConfigurationError, match=r"schedule\[1\]"):
            minimal_spec(schedule=[_entry(), {"t_ns": 1, "primitive": "warp"}])

    def test_non_dict_entry_rejected(self):
        with pytest.raises(ConfigurationError, match=r"schedule\[0\].*object"):
            minimal_spec(schedule=["tsc-offset"])

    def test_unknown_entry_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys.*when"):
            minimal_spec(schedule=[_entry(when=3)])

    def test_missing_t_ns_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys.*t_ns"):
            minimal_spec(schedule=[{"primitive": "ta-blackhole"}])

    def test_negative_or_bool_t_ns_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            minimal_spec(schedule=[_entry(t_ns=-1)])
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            minimal_spec(schedule=[_entry(t_ns=True)])

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown primitive 'warp'"):
            minimal_spec(schedule=[_entry(primitive="warp")])

    def test_missing_required_params_rejected(self):
        with pytest.raises(ConfigurationError, match=r"aex-flood params missing.*mean_us"):
            minimal_spec(
                schedule=[{"t_ns": 1, "primitive": "aex-flood", "params": {"node": 1}}]
            )

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown params.*sneaky"):
            minimal_spec(
                schedule=[_entry(params={"offset_ticks": 1, "sneaky": True})]
            )

    def test_zero_offset_rejected(self):
        with pytest.raises(ConfigurationError, match="offset_ticks must be non-zero"):
            minimal_spec(schedule=[_entry(params={"offset_ticks": 0})])

    def test_bad_net_delay_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode must be"):
            minimal_spec(
                schedule=[
                    {
                        "t_ns": 1,
                        "primitive": "net-delay",
                        "params": {"victim": 1, "mode": "sideways"},
                    }
                ]
            )

    def test_victim_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="victim=9 outside cluster"):
            minimal_spec(schedule=[_entry(params={"offset_ticks": 1, "victim": 9})])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="duration_ms must be positive"):
            minimal_spec(
                schedule=[
                    {
                        "t_ns": 1,
                        "primitive": "ta-blackhole",
                        "params": {"duration_ms": 0},
                    }
                ]
            )

    def test_blackhole_victims_must_be_nonempty_list(self):
        with pytest.raises(ConfigurationError, match="victims must be a non-empty list"):
            minimal_spec(
                schedule=[
                    {"t_ns": 1, "primitive": "ta-blackhole", "params": {"victims": []}}
                ]
            )


class TestScheduleBuild:
    def test_schedule_survives_json_round_trip(self):
        schedule = [
            _entry(),
            {
                "t_ns": 2_000_000_000,
                "primitive": "net-delay",
                "params": {"victim": 2, "mode": "fminus", "delay_ms": 80, "duration_ms": 9_000},
            },
        ]
        spec = minimal_spec(schedule=schedule)
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.schedule == spec.schedule == schedule

    def test_all_primitives_compile(self):
        spec = minimal_spec(
            environments={"1": "triad-like", "2": "low-aex", "3": "low-aex"},
            schedule=[
                _entry(),
                {"t_ns": 2, "primitive": "tsc-scale", "params": {"scale": 1.01, "victim": 2}},
                {"t_ns": 3, "primitive": "aex-suppress", "params": {"node": 1, "duration_ms": 50}},
                {"t_ns": 4, "primitive": "aex-flood",
                 "params": {"node": 2, "mean_us": 1_000, "duration_ms": 50}},
                {"t_ns": 5, "primitive": "ta-blackhole", "params": {"duration_ms": 50}},
                {"t_ns": 6, "primitive": "net-delay",
                 "params": {"victim": 3, "mode": "fplus", "delay_ms": 10, "duration_ms": 50}},
            ],
        )
        with oracle_policy("warn"):
            experiment = spec.build()
        # blackhole + net-delay register as network adversaries:
        assert len(experiment.attackers) == 2
        assert experiment.oracle.allowed

    def test_schedule_creates_paused_source_on_low_aex_node(self):
        spec = minimal_spec(
            environments={"1": "triad-like", "2": "low-aex", "3": "low-aex"},
            schedule=[
                {
                    "t_ns": 3_000_000_000,
                    "primitive": "aex-flood",
                    "params": {"node": 2, "mean_us": 1_000, "duration_ms": 100},
                }
            ],
        )
        experiment = spec.build()
        machine = experiment.cluster.node_machines[1]
        core = experiment.cluster.monitoring_cores[1]
        assert machine.aex_sources[core].enabled is False

    def test_scheduled_aex_suppress_window_silences_the_node(self):
        spec = minimal_spec(
            duration_s=20,
            schedule=[
                {
                    "t_ns": 1_000_000,
                    "primitive": "aex-suppress",
                    "params": {"node": 1, "duration_ms": 10_000},
                }
            ],
        )
        experiment = spec.run()
        assert all(
            t >= 10 * units.SECOND for t in experiment.node(1).stats.aex_times_ns
        )
        assert any(
            t < 10 * units.SECOND for t in experiment.node(3).stats.aex_times_ns
        )


class TestMalformedTimedActions:
    """Malformed ``attacks``/``schedule`` input fails loudly, naming the entry."""

    def test_attack_victim_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match=r"attacks\[0\]: victim=9 outside cluster"):
            minimal_spec(attacks=[{"type": "fminus", "victim": 9}])

    def test_attack_unknown_key_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"attacks\[0\]: fminus has unknown keys \['delay'\]"
        ):
            minimal_spec(attacks=[{"type": "fminus", "victim": 3, "delay": 50}])

    def test_tsc_attack_victim_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match=r"attacks\[0\]: victim=9 outside cluster"):
            minimal_spec(
                attacks=[{"type": "tsc-offset", "offset_ticks": 1_000, "at_s": 1, "victim": 9}]
            )

    def test_aex_onset_node_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match=r"attacks\[1\]: node=9 outside cluster"):
            minimal_spec(
                attacks=[
                    {"type": "fminus", "victim": 3},
                    {"type": "aex-onset", "nodes": [1, 9], "at_s": 5},
                ]
            )

    def test_schedule_param_of_wrong_type_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"schedule\[0\]: offset_ticks must be non-zero .*'abc'"
        ):
            minimal_spec(schedule=[_entry(params={"offset_ticks": "abc"})])

    def test_schedule_bool_node_rejected(self):
        with pytest.raises(ConfigurationError, match=r"schedule\[0\]: node must be an integer"):
            minimal_spec(
                schedule=[{"t_ns": 1, "primitive": "aex-suppress", "params": {"node": True}}]
            )


def _run_stats(**blocks):
    """Node stats and per-cause drop counters of a finished spec run."""
    seed = blocks.pop("seed")
    experiment = minimal_spec(seed=seed, duration_s=blocks.pop("duration_s"), **blocks).run()
    return (
        [node.stats for node in experiment.cluster.nodes],
        experiment.cluster.network.drop_counts,
    )


def _at(t_s, primitive, **params):
    return {"t_ns": int(t_s * units.SECOND), "primitive": primitive, "params": params}


#: (id, seed, duration_s, one syntax's blocks, the same actions in another).
_EQUIVALENT_SYNTAXES = [
    (
        "faults-vs-schedule",
        3,
        30,
        {
            "faults": {
                "schedule": [
                    {"t_s": 5.0, "kind": "node-crash", "node": 2, "down_ms": 800},
                    {"t_s": 8.0, "kind": "ta-outage", "duration_ms": 2_000},
                    {"t_s": 12.0, "kind": "partition", "island": [3], "duration_ms": 2_000},
                ]
            }
        },
        {
            "schedule": [
                _at(5, "node-crash", node=2, down_ms=800),
                _at(8, "ta-outage", duration_ms=2_000),
                _at(12, "partition", node=3, duration_ms=2_000),
            ]
        },
    ),
    (
        "fminus-vs-net-delay",
        6,
        40,
        {"attacks": [{"type": "fminus", "victim": 3, "delay_ms": 100}]},
        {"schedule": [_at(0, "net-delay", victim=3, mode="fminus", delay_ms=100)]},
    ),
    (
        "aex-suppress",
        6,
        40,
        {"attacks": [{"type": "aex-suppress", "nodes": [1]}]},
        {"schedule": [_at(0, "aex-suppress", node=1)]},
    ),
    (
        "tsc-offset",
        6,
        40,
        {"attacks": [{"type": "tsc-offset", "offset_ticks": -150_000_000, "at_s": 10}]},
        {"schedule": [_at(10, "tsc-offset", offset_ticks=-150_000_000)]},
    ),
    (
        "ta-blackhole",
        6,
        40,
        {"attacks": [{"type": "ta-blackhole", "start_s": 5, "stop_s": 15}]},
        {"schedule": [_at(5, "ta-blackhole", duration_ms=10_000)]},
    ),
    (
        # The one pair the apply rule made equal: a window starting at
        # t=0 now pauses at build time, exactly like the onset attack.
        "aex-onset-vs-suppress-window",
        6,
        40,
        {"attacks": [{"type": "aex-onset", "nodes": [1, 2], "at_s": 20}]},
        {
            "schedule": [
                _at(0, "aex-suppress", node=1, duration_ms=20_000),
                _at(0, "aex-suppress", node=2, duration_ms=20_000),
            ]
        },
    ),
]


@pytest.mark.parametrize(
    "seed,duration_s,first,second",
    [case[1:] for case in _EQUIVALENT_SYNTAXES],
    ids=[case[0] for case in _EQUIVALENT_SYNTAXES],
)
def test_equivalent_syntaxes_run_identically(seed, duration_s, first, second):
    """Every syntax lowers into one action table: the same actions spelt in
    two syntaxes give identical node stats and drop counters."""
    assert _run_stats(seed=seed, duration_s=duration_s, **first) == _run_stats(
        seed=seed, duration_s=duration_s, **second
    )


def test_crash_at_t0_lands_after_boot():
    """A crash interrupts running enclave threads, so a t=0 crash is
    scheduled (just after boot) rather than applied at build time."""
    experiment = minimal_spec(
        duration_s=5,
        schedule=[{"t_ns": 0, "primitive": "node-crash", "params": {"node": 2}}],
    ).run()
    assert experiment.node(2).stats.crashes == 1
    assert [action for _, _, action in experiment.cluster.fault_events] == ["crash", "restart"]
