"""Every CLI output that certifies or optimizes, byte for byte against the
fixtures in ``fixtures/cli_outputs``, with only the manifest timestamp left
out.

The fixtures hold ``keyrate --counts`` on the README config, with its
correlation model and without it (then with d = 0), both on the stored counts
file (``keyrate_counts``) and on the expected counts that ``simulate --mode
expected`` writes for the config (``keyrate_simulate``), and ``optimize`` and
``scan 0,20,40`` on both configs, each search run until it converges at the
config's own eps_PE, so at keyrate's eps_sec.
The keyrate JSON carries the whole audit, which ``cmd_keyrate`` writes by
name, so a key the audit drops, renames or reorders fails here. The counts
file is a stored sampled draw. Record again (only when a change of these
outputs is intended and explained) with:

    PYTHONPATH=src python3 tests/test_cli_outputs.py --record [COMMAND ...]

which records the fixtures of the named ``COMMANDS`` on both configs, or of
every command when none is named.
"""

import csv
import json
import re
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).with_name("fixtures") / "cli_outputs"
CONFIGS = ("readme_correlated.json", "readme_uncorrelated.json")
# each command's argv but --config and --out; "{expected}" is the counts file
# that simulate --mode expected writes for the config first
COMMANDS = {
    "keyrate_simulate": ["keyrate", "--counts", "{expected}"],
    "keyrate_counts": ["keyrate", "--counts", str(FIXTURES / "counts.csv")],
    "optimize": ["optimize"],
    "scan": ["scan", "--distances", "0,20,40"],
}
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _cases():
    return [(command, config) for config in CONFIGS for command in COMMANDS]


def _output(command: str, config: str, out: Path) -> str:
    from corrbb84.cli import main

    config_arg = ["--config", str(FIXTURES / config)]
    expected = out.with_name("expected.csv")
    if "{expected}" in COMMANDS[command]:
        assert main(["simulate", "--mode", "expected", *config_arg,
                     "--counts-out", str(expected)]) == 0
    argv = [arg.format(expected=expected) for arg in COMMANDS[command]]
    assert main([*argv, *config_arg, "--out", str(out)]) == 0
    return TIMESTAMP.sub('"timestamp": "-"', out.read_text())


def _fixture(command: str, config: str) -> Path:
    return FIXTURES / f"{command}.{config.removesuffix('.json')}.out"


@pytest.mark.parametrize("command,config", _cases())
def test_cli_output_equals_recorded_bytes(tmp_path, command, config):
    assert _output(command, config, tmp_path / "out") == _fixture(command, config).read_text()


@pytest.mark.parametrize("config", CONFIGS)
def test_searches_certify_at_the_configs_own_eps_sec(config):
    """On the recorded outputs, which the test above holds to the live ones,
    ``optimize`` and every ``scan`` row certify at the eps_sec of ``keyrate``
    on the config's expected counts, and the key ``optimize`` finds at the
    config's distance is at least the one the config's own parameters give."""
    certified = json.loads(_fixture("keyrate_simulate", config).read_text())["result"]
    best = json.loads(_fixture("optimize", config).read_text())["result"]
    rows = csv.DictReader(line for line in _fixture("scan", config).read_text().splitlines()
                          if not line.startswith("#"))
    for eps_sec in [best["eps_sec"], *(float(row["eps_sec"]) for row in rows)]:
        assert eps_sec == pytest.approx(certified["eps_sec"], rel=1e-14, abs=0)
    assert best["key_length"] >= certified["key_length"] > 0


def _record(commands: list[str]) -> None:
    import tempfile

    unknown = set(commands) - set(COMMANDS)
    if unknown:
        sys.exit(f"unknown commands {sorted(unknown)}; choose from {list(COMMANDS)}")
    with tempfile.TemporaryDirectory() as tmp:
        for command, config in _cases():
            if command in commands:
                _fixture(command, config).write_text(_output(command, config, Path(tmp, "out")))


if __name__ == "__main__" and sys.argv[1:2] == ["--record"]:
    _record(sys.argv[2:] or list(COMMANDS))
