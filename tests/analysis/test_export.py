"""Tests for CSV export of experiment results."""

import pytest

from repro.analysis.export import (
    export_availability_csv,
    experiment_csvs,
    export_drift_csv,
    export_frequencies_csv,
    export_jumps_csv,
    export_states_csv,
    write_csvs,
)
from repro.errors import ConfigurationError
from repro.experiments.figures import run_experiment
from repro.sim.units import MINUTE


@pytest.fixture(scope="module")
def result():
    return run_experiment("fig2", seed=2, duration_ns=3 * MINUTE)


class TestCsvContent:
    def test_drift_csv_has_all_nodes(self, result):
        csv = export_drift_csv(result)
        header, *rows = csv.strip().splitlines()
        assert header == "reference_time_s,node,drift_ms"
        nodes = {row.split(",")[1] for row in rows}
        assert nodes == {"node-1", "node-2", "node-3"}

    def test_frequency_csv_parseable(self, result):
        csv = export_frequencies_csv(result)
        rows = csv.strip().splitlines()[1:]
        for row in rows:
            _name, mhz = row.split(",")
            assert 2800 < float(mhz) < 3000

    def test_availability_csv_in_unit_interval(self, result):
        csv = export_availability_csv(result)
        for row in csv.strip().splitlines()[1:]:
            assert 0.0 <= float(row.split(",")[1]) <= 1.0

    def test_states_csv_covers_duration(self, result):
        csv = export_states_csv(result)
        rows = [row.split(",") for row in csv.strip().splitlines()[1:]]
        node1 = [row for row in rows if row[0] == "node-1"]
        assert float(node1[0][1]) == 0.0
        assert float(node1[-1][2]) == pytest.approx(180.0)
        # Segments are contiguous.
        for earlier, later in zip(node1, node1[1:]):
            assert float(earlier[2]) == pytest.approx(float(later[1]))

    def test_jumps_csv_well_formed(self, result):
        csv = export_jumps_csv(result)
        header = csv.splitlines()[0]
        assert header == "node,time_s,jump_ms,source"


class TestExportDirectory:
    def test_writes_five_files(self, result, tmp_path):
        written = write_csvs(experiment_csvs(result), tmp_path / "out")
        assert len(written) == 5
        names = {path.name for path in written}
        assert names == {
            "drift.csv",
            "frequencies.csv",
            "availability.csv",
            "states.csv",
            "jumps.csv",
        }
        for path in written:
            assert path.read_text().strip()

    def test_refuses_to_overwrite_a_file(self, result, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("I am a file")
        with pytest.raises(ConfigurationError):
            write_csvs(experiment_csvs(result), blocker)

    def test_idempotent(self, result, tmp_path):
        write_csvs(experiment_csvs(result), tmp_path)
        written = write_csvs(experiment_csvs(result), tmp_path)
        assert len(written) == 5
