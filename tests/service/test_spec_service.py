"""The ``service`` block of experiment specs: validation and round-trip."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec


def raw_spec(**overrides):
    spec = {
        "name": "svc",
        "seed": 3,
        "duration_s": 20.0,
        "nodes": 3,
        "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
        "service": {"sessions": 1000, "quorum": 3},
    }
    spec.update(overrides)
    return spec


class TestValidation:
    def test_valid_block_accepted(self):
        spec = ExperimentSpec.from_dict(raw_spec())
        assert spec.service == {"sessions": 1000, "quorum": 3}

    def test_unknown_service_key_named(self):
        with pytest.raises(ConfigurationError, match="unknown keys.*quorom"):
            ExperimentSpec.from_dict(
                raw_spec(service={"sessions": 10, "quorom": 3})
            )

    def test_bad_service_value_keeps_the_key_name(self):
        with pytest.raises(ConfigurationError, match="service.sessions"):
            ExperimentSpec.from_dict(raw_spec(service={"sessions": 0}))

    def test_quorum_cross_validated_against_cluster_size(self):
        with pytest.raises(ConfigurationError, match="service.quorum"):
            ExperimentSpec.from_dict(
                raw_spec(service={"sessions": 10, "quorum": 5})
            )

    def test_start_cross_validated_against_duration(self):
        with pytest.raises(ConfigurationError, match="service.start_s"):
            ExperimentSpec.from_dict(
                raw_spec(
                    duration_s=5.0, service={"sessions": 10, "start_s": 10.0}
                )
            )

    def test_specs_without_a_service_block_still_work(self):
        spec_dict = raw_spec()
        del spec_dict["service"]
        spec = ExperimentSpec.from_dict(spec_dict)
        assert spec.service is None
        assert spec.build().service is None


class TestKindMix:
    def test_fractions_summing_to_one_run(self):
        # 0.32 + 0.68 leaves a timestamp share of -1.1e-16 unless clamped.
        spec = raw_spec(
            duration_s=8.0,
            service={
                "sessions": 1000,
                "quorum": 3,
                "lease_fraction": 0.32,
                "timeout_fraction": 0.68,
            },
        )
        report = ExperimentSpec.from_dict(spec).run().service.report()
        assert report.requests > 0
        assert report.served_by_kind[0] == 0
        assert report.lease_requests > 0


class TestRoundTrip:
    def test_service_block_survives_to_json(self):
        spec = ExperimentSpec.from_dict(raw_spec())
        reparsed = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert reparsed.service == spec.service

    def test_build_attaches_the_service(self):
        experiment = ExperimentSpec.from_dict(raw_spec()).build()
        assert experiment.service is not None
        assert experiment.service.config.sessions == 1000
