"""The config and counts-file boundary under fuzzing: ``cli.main`` run in
process on the reference config with one or two numeric fields (or counts
cells) set to edge values or to random numbers. Every run must exit 0 or 2;
exit 2 must come with a ``config error:`` line, and exit 0 with strict JSON
(no NaN or Infinity). A misspelled key in any section must exit 2, and a
value of the wrong kind in any field must make every command exit 2 with the
same message. Fixed examples (``derandomize``), a few seconds in all.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

from conftest import reject_constant
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrbb84 import optimizer
from corrbb84.cli import main

BASE_CONFIG = {
    "protocol": {
        "N": 10**9,
        "p_keep": 0.8,
        "intensities": {"s": 0.5, "w": 0.1, "v": 0.0},
        "intensity_probs": {"s": 0.7, "w": 0.15, "v": 0.15},
    },
    "epsilons": {
        "eps_A": 1e-10, "eps_B": 1e-10, "eps_C": 1e-10,
        "eps_PA": 1e-10, "eps_EV": 1e-10, "d": 1e-12,
    },
    "channel": {"distance_km": 10.0},
    "correlations": {"delta_1": 0.05, "decay_C": 1.0},
}
# every numeric field the CLI reads from a config
FIELDS = (
    "protocol.N", "protocol.p_keep",
    *(f"protocol.intensities.{mu}" for mu in "swv"),
    *(f"protocol.intensity_probs.{mu}" for mu in "swv"),
    *(f"epsilons.{eps}" for eps in ("eps_A", "eps_B", "eps_C", "eps_PA", "eps_EV", "d")),
    *(f"channel.{key}" for key in ("distance_km", "attenuation_db_per_km",
                                   "detector_efficiency", "dark_count_prob",
                                   "misalignment", "f_EC")),
    *(f"correlations.{key}" for key in ("delta_1", "decay_C", "l_c_eff")),
    "optimizer.eps_pe_target",
)
# the fields that hold a whole number
WHOLE_FIELDS = ("protocol.N", "correlations.l_c_eff")
# each field with each value of the wrong kind for it: 2.5 only for a whole-number one
WRONG_KINDS = tuple(
    (field, value) for field in FIELDS
    for value in ("ten", True, math.nan, math.inf, -math.inf, 10**400, 2.5)
    if value != 2.5 or field in WHOLE_FIELDS
)
COUNTS = Path(__file__).parent / "fixtures" / "cli_outputs" / "counts.csv"
# every config section by its dotted path ("" is the top level), with the keys it holds
SECTIONS = {
    "": ("protocol", "epsilons", "channel", "correlations", "optimizer"),
    "protocol": ("intensities", "intensity_probs"),
}
for field in FIELDS:
    parent, _, key = field.rpartition(".")
    SECTIONS[parent] = SECTIONS.get(parent, ()) + (key,)
EDGE_VALUES = (
    0, 1, -1, 0.0, 1.0, -1.0, 5e-324, 1e-300, 1e-16, 709.7, 710, 1.7e308, -1.7e308,
    10**400, -(10**400), True, False, math.nan, math.inf, -math.inf,
)
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20),
)
# the counts CSV cells, as (category, basis, intensity) prefixes of a row
COUNT_ROWS = tuple(
    f"{category},{basis},{mu},"
    for category in ("det", "err") for basis in ("Z", "X") for mu in "swv"
) + ("sifted_total,,,",)
COUNT_TEXTS = st.one_of(
    st.sampled_from(("0", "1", "-1", "5e-324", "1e-300", "1e-16", "709.7", "710",
                     "1.7e+308", "9" * 401, "True", "False", "NaN", "Infinity", "")),
    st.integers(0, 10**30).map(str),
)


@st.composite
def misspellings(draw):
    """A section path and a one-edit misspelling of one of its keys: a
    character dropped, doubled, swapped with the next or changed."""
    path = draw(st.sampled_from(sorted(SECTIONS)))
    key = draw(st.sampled_from(SECTIONS[path]))
    at = draw(st.integers(0, len(key) - 1))
    edit = draw(st.sampled_from(("drop", "double", "swap", "change")))
    if edit == "drop":
        typo = key[:at] + key[at + 1:]
    elif edit == "double":
        typo = key[:at] + key[at] + key[at:]
    elif edit == "swap":
        typo = key[:at] + key[at + 1:at + 2] + key[at] + key[at + 2:]
    else:
        typo = key[:at] + draw(st.characters(min_codepoint=32, max_codepoint=126)) + key[at + 1:]
    assume(typo not in SECTIONS[path])
    return path, typo


SEARCH = optimizer.optimize_params  # the real search, which _run patches


def _three_evaluations(spec, channel, warm_start=None):
    """The real search at a budget of 3: optimize reads every field of a
    fuzzed config, and its search need not converge for that."""
    return SEARCH(replace(spec, budget=3), channel, warm_start)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(optimizer, "optimize_params", _three_evaluations):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _set(config: dict, path: str, key: str, value) -> None:
    """Set ``key`` in the section at dotted ``path`` ("" is the top level)."""
    section = config
    for name in filter(None, path.split(".")):
        section = section.setdefault(name, {})
    section[key] = value


def _config_argv(tmp: str, config: dict, command: str) -> list[str]:
    """Write ``config`` into ``tmp``; the argv of ``optimize`` on it, or of
    ``keyrate --simulate`` in mode ``command``."""
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(config))
    if command == "optimize":
        return ["optimize", "--config", str(path)]
    return ["keyrate", "--config", str(path), "--simulate", "--mode", command, "--seed", "1"]


def _check(argv: list[str]) -> None:
    status, out, err = _run(argv)
    assert status in (0, 2), (status, err)
    if status == 2:
        assert "config error:" in err
    else:
        json.loads(out, parse_constant=reject_constant)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(edits=st.dictionaries(st.sampled_from(FIELDS), VALUES, min_size=1, max_size=2),
       command=st.sampled_from(("expected", "sampled", "optimize")))
def test_config_fields_exit_0_or_2(edits, command):
    config = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in edits.items():
        path, _, key = dotted.rpartition(".")
        _set(config, path, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        _check(_config_argv(tmp, config, command))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(cells=st.dictionaries(st.sampled_from(COUNT_ROWS), COUNT_TEXTS, min_size=1, max_size=2))
def test_counts_cells_exit_0_or_2(cells):
    with tempfile.TemporaryDirectory() as tmp:
        config, counts = Path(tmp) / "config.json", Path(tmp) / "counts.csv"
        config.write_text(json.dumps(BASE_CONFIG))
        assert _run(["simulate", "--config", str(config), "--mode", "expected",
                     "--counts-out", str(counts)])[0] == 0
        lines = counts.read_text().splitlines()
        for row, text in cells.items():
            lines = [row + text if line.startswith(row) else line for line in lines]
        counts.write_text("\n".join(lines) + "\n")
        _check(["keyrate", "--config", str(config), "--counts", str(counts)])


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(misspelled=misspellings(), command=st.sampled_from(("expected", "optimize")))
def test_misspelled_keys_exit_2(misspelled, command):
    """A key that no section holds is refused, never read as absent; optimize
    reads every section, keyrate all but ``optimizer``."""
    path, typo = misspelled
    if path == "optimizer":
        command = "optimize"
    config = json.loads(json.dumps(BASE_CONFIG))
    _set(config, path, typo, 1)
    with tempfile.TemporaryDirectory() as tmp:
        status, _, err = _run(_config_argv(tmp, config, command))
    assert status == 2 and "config error: unknown field " in err, (path, typo, err)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(wrong=st.sampled_from(WRONG_KINDS))
def test_every_command_refuses_a_wrong_kind_alike(wrong):
    """``keyrate --counts`` reads no channel distance and ``simulate`` no
    optimizer section, yet each refuses a value of the wrong kind in any field
    as the other commands do: exit 2 with one ``config error:`` line naming it."""
    field, value = wrong
    config = json.loads(json.dumps(BASE_CONFIG))
    section, _, key = field.rpartition(".")
    _set(config, section, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        runs = [_run([command, "--config", str(path), *flags]) for command, *flags in (
            ("keyrate", "--counts", str(COUNTS)),
            ("keyrate", "--simulate"),
            ("simulate", "--mode", "expected", "--counts-out", str(Path(tmp) / "counts.csv")),
            ("optimize",),
        )]
    assert {status for status, _, _ in runs} == {2}, (field, value, runs)
    assert len({err for _, _, err in runs}) == 1, (field, value, runs)
    assert runs[0][2].startswith(f"config error: {field} must be "), runs[0][2]
