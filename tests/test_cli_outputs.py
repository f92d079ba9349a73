"""Every CLI output that certifies or optimizes, byte for byte against the
fixtures in ``fixtures/cli_outputs``, with only the manifest timestamp left
out.

The fixtures hold ``keyrate --simulate`` (expected mode) and ``keyrate
--counts`` on the README config, with its correlation model and without it
(then with d = 0), and ``optimize`` and ``scan 0,20,40`` on both, each search
run until it converges.
The keyrate JSON carries the whole audit, which ``cmd_keyrate`` writes by
name, so a key the audit drops, renames or reorders fails here. The counts
file is a stored sampled draw. Record again (only when a change of these
outputs is intended and explained) with:

    PYTHONPATH=src python3 tests/test_cli_outputs.py --record
"""

import re
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).with_name("fixtures") / "cli_outputs"
CONFIGS = ("readme_correlated.json", "readme_uncorrelated.json")
COMMANDS = {
    "keyrate_simulate": ["keyrate", "--simulate"],
    "keyrate_counts": ["keyrate", "--counts", str(FIXTURES / "counts.csv")],
    "optimize": ["optimize"],
    "scan": ["scan", "--distances", "0,20,40"],
}
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _cases():
    return [(command, config) for config in CONFIGS for command in COMMANDS]


def _output(command: str, config: str, out: Path) -> str:
    from corrbb84.cli import main

    argv = [*COMMANDS[command], "--config", str(FIXTURES / config), "--out", str(out)]
    assert main(argv) == 0
    return TIMESTAMP.sub('"timestamp": "-"', out.read_text())


def _fixture(command: str, config: str) -> Path:
    return FIXTURES / f"{command}.{config.removesuffix('.json')}.out"


@pytest.mark.parametrize("command,config", _cases())
def test_cli_output_equals_recorded_bytes(tmp_path, command, config):
    assert _output(command, config, tmp_path / "out") == _fixture(command, config).read_text()


def _record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command, config in _cases():
            _fixture(command, config).write_text(_output(command, config, Path(tmp, "out")))


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
