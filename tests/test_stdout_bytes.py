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
