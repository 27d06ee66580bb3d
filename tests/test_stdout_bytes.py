"""The CLI's stdout pinned byte for byte across commits.

The registry listing, a short run of each drift figure and the first
point of each sweep: together they cover how ``EXPERIMENTS`` finds each
figure's scenario, seed and duration, how sweeps emit their tasks and
name their columns, and every table the CLI renders for them. The
hashes were taken before the figure registry moved onto the
``SCENARIOS`` entries and must not move with any change that claims to
keep the CLI's behaviour. CI's ``scenarios-strict`` job checks the same
commands with ``sha256sum``.

The full default grid of every sweep is pinned too, as the CSV that
``sweep <name> --export DIR`` writes: every row of each table. Those
hashes were taken before sweep points became spec runs.

So are the CSVs ``run --export`` and ``run-spec --export`` write and
the oracle report ``run --oracle strict`` prints on stderr; those
hashes were taken while ``run`` and ``run-spec`` still ran their
experiment directly rather than as a fleet task.
"""

import hashlib

import pytest

from repro.cli import main

PINNED = {
    "list": "9603cba920fd9f74adb7e45aa97f2126e60f962977449749d5c238906d123000",
    "run fig2 --duration-s 30": "b6b84c4c96bb6012e2f52325414ea25a64c32335bf00502ce21cb250be18897b",
    "run fig3 --duration-s 60": "e807184019b270d4a88acbc44d0710d390a6b162f141ecc3f726129e4b086d40",
    "run fig4 --duration-s 30": "e8e660ccc4b78078a948c22795a1d8d5c35bc4fcd1df09593b8ea2984100938f",
    "run fig6 --duration-s 30": "5b36aa51fb14941df186f6a43a3dfe6b5d9554e2c9af70c881fa232390c2a321",
    "run fig6-hardened --duration-s 30": (
        "eafbce2004be663b469a19a7007b6fc52da8746e34e0b58cb8081bbac96f358d"
    ),
    "sweep attack-delay --limit 1 --no-cache": (
        "ac1f515d93b6247ede129abcdd653de90d9e1f6f2297cba3807938b697a985f1"
    ),
    "sweep jitter --limit 1 --no-cache": (
        "94843f979e6184ab9694cfc3ea1c145ee062994771127182227216dd9b5e17fc"
    ),
    "sweep cluster-size --limit 1 --no-cache": (
        "1ffd06cb4ec5c1c0b4e1d2bac1b60fc857f36a629a49f3c24a24a9f463e291f2"
    ),
    "sweep aex-rate --limit 1 --no-cache": (
        "beda598e6d3c934d3d4683a322c47a325977a4155720314d8995f51caa60103a"
    ),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_stdout_is_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]


#: ``sweep <name> --no-cache --export DIR`` -> sha256 of ``DIR/sweep_<name>.csv``.
GRID_CSVS = {
    "attack-delay": "690e4945de14a3585da02af361fc0cdd6baef2352b33c34c0e6c6b8e3532a028",
    "jitter": "728836debf6578458b43d49b847b008af4f2f094be700a3864771d32c86f65e7",
    "cluster-size": "862ab75b540d6ec124e7d6abfbcfd2aa5dacd8f896366d129be4e732ddaa4618",
    "aex-rate": "11a08c94b5c8727784b885ad6fc033425748d2ba14a8e4325eab68de43705a36",
}


@pytest.mark.parametrize("sweep", list(GRID_CSVS))
def test_full_sweep_grid_csv_is_pinned(capsys, tmp_path, sweep):
    assert main(["sweep", sweep, "--no-cache", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    csv = (tmp_path / f"sweep_{sweep}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == GRID_CSVS[sweep]


#: ``run fig2 --duration-s 30 --export DIR`` -> sha256 of each CSV in ``DIR``.
RUN_EXPORT_CSVS = {
    "availability.csv": "4f3a4b6e7cdb3cfcb7273173efbda741d5cc198a5276b13cd813ded4e8ed0e08",
    "drift.csv": "2d96b9e3a4a583d49c91ef23da33d0dc1f22a8261ede54d60ba2bce219b89212",
    "frequencies.csv": "b8dcc308c4ec4d01cfe97efed6cc6ec72db2aa1cca82b153668ec75fb4c036d1",
    "jumps.csv": "9eef58e461de8ce270817c430816758739ecf41a9044dc95accaf02e60392375",
    "states.csv": "9d59147439d8dfb2df3b8d9249c3e9c038451d74860cf4affadb59e82146c683",
}

#: A 10 s low-AEX spec, and ``run-spec SPEC --export DIR`` -> sha256 of each CSV.
EXPORT_SPEC = (
    '{"name": "cli-export-test", "duration_s": 10, '
    '"environments": {"1": "low-aex", "2": "low-aex", "3": "low-aex"}}'
)
SPEC_EXPORT_CSVS = {
    "availability.csv": "e1d7cea1a6b3195ab253794b7ae9855100dd014645e230e3a1823a22ed385da5",
    "drift.csv": "8ead4c1d50d5d4eaa14446b0bc965c8f4b0d056d288572c35668da33f78fd218",
    "frequencies.csv": "c646b8ddffeec015794d64fb3e109d61057bfa6050089770a943c9094c80b75d",
    "jumps.csv": "d96a0427e984ecb2ee83112b12bdca76e7721ac6a89bd20035f85f3f0859cb3c",
    "states.csv": "99b698090473095bf0cc71c706f475fbc1a033213007509e1d994705cdd6f6da",
}


def _csv_hashes(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*.csv"))
    }


def test_run_export_csvs_are_pinned(capsys, tmp_path):
    argv = ["run", "fig2", "--duration-s", "30", "--export", str(tmp_path / "csv")]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(f"\nwrote 5 CSV files to {tmp_path / 'csv'}/\n")
    assert _csv_hashes(tmp_path / "csv") == RUN_EXPORT_CSVS


def test_run_spec_export_csvs_are_pinned(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(EXPORT_SPEC)
    assert main(["run-spec", str(spec), "--export", str(tmp_path / "csv")]) == 0
    assert capsys.readouterr().out.endswith(f"\nwrote 5 CSV files to {tmp_path / 'csv'}/\n")
    assert _csv_hashes(tmp_path / "csv") == SPEC_EXPORT_CSVS


def test_run_oracle_stderr_is_pinned(capsys):
    assert main(["run", "fig4", "--duration-s", "30", "--oracle", "strict"]) == 0
    err = capsys.readouterr().err
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "0e1309ef15f70e3898c95c1f1a2c3f3b9c2c66b28ac03fe43c2a8477fe9a4d6c"
    )
