import argparse
import csv
import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import reject_constant

import corrbb84
from corrbb84 import cli, optimizer, simulator, validation
from corrbb84.cli import _check_section, main, parse_distances, read_counts_csv
from corrbb84.model import ConfigError

BASE_CONFIG = {
    "protocol": {
        "N": 10**9,
        "p_keep": 0.8,
        "intensities": {"s": 0.5, "w": 0.1, "v": 0.0},
        "intensity_probs": {"s": 0.7, "w": 0.15, "v": 0.15},
    },
    "epsilons": {
        "eps_A": 1e-10, "eps_B": 1e-10, "eps_C": 1e-10,
        "eps_PA": 1e-10, "eps_EV": 1e-10, "d": 0.0,
    },
    "channel": {"distance_km": 10.0},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_parse_distances_range_and_list():
    assert parse_distances("0:100:10") == [float(d) for d in range(0, 101, 10)]
    assert parse_distances("0,5.5,20") == [0.0, 5.5, 20.0]


def _summed_distances(spec):
    """The range as ``parse_distances`` built it before it built it by index:
    a running sum of the step."""
    start, stop, step = (float(part) for part in spec.split(":"))
    values, current = [], start
    while current <= stop + 1e-9:
        values.append(round(current, 9))
        current += step
    return values


def test_parse_distances_by_index_equals_the_running_sum():
    """On ranges of up to 500 values the running sum never drifts past the
    9-decimal rounding, so the values are the same."""
    for start in (0.0, 0.1, 0.5, 2.5, 7.77, 33.3, 100.0):
        for step in (0.01, 0.1, 0.25, 0.3, 0.7, 1.0, 2.5, 12.5, 33.3, 0.123):
            for n in (0, 1, 2, 7, 33, 100, 500):
                for stop in (start + n * step, start + n * step - 1e-10,
                             start + (n + 0.5) * step, round(start + n * step, 6)):
                    spec = f"{start!r}:{stop!r}:{step!r}"
                    assert parse_distances(spec) == _summed_distances(spec), spec


def test_parse_distances_ends_where_the_step_is_below_float_spacing():
    # 1e16 + 1 == 1e16, and past 2^53 a step of 0.6 rounds back, so a running
    # sum never passes stop; the index form also keeps the exact decimals
    # that a long running sum loses
    assert parse_distances("1e16:1e16:1") == [1e16]
    assert len(parse_distances("9007199254740990:9007199254740995:0.6")) == 11  # stop rounds to ...996
    assert parse_distances("0:6999.3:0.7")[6194] == 4335.8
    assert _summed_distances("0:6999.3:0.7")[6194] == 4335.799999999


@pytest.mark.parametrize("spec", ["0:20000:1", "0:10:0", "0:10", "0:0:1e-300",
                                  "1e308:-1e308:1e-300"])
def test_parse_distances_rejects_unbounded_ranges(spec):
    # every part is checked before the range is expanded; a range of more
    # than MAX_DISTANCES values, the 1e-9 inclusion tolerance counted, is
    # refused rather than expanded, and one whose span overflows is empty
    with pytest.raises(ConfigError):
        parse_distances(spec)


def test_simulate_counts_round_trip(config_path, tmp_path):
    counts = tmp_path / "counts.csv"
    truth = tmp_path / "truth.csv"
    status = main([
        "simulate", "--config", config_path, "--mode", "sampled", "--seed", "9",
        "--counts-out", str(counts), "--truth-out", str(truth),
    ])
    assert status == 0
    parsed = read_counts_csv(str(counts))
    from corrbb84.simulator import sample_counts
    from corrbb84.cli import load_config, parse_protocol, parse_channel

    data, _ = load_config(config_path)
    observed, _ = sample_counts(parse_protocol(data), parse_channel(data), 9)
    assert parsed == observed
    assert counts.read_text().startswith("# corrbb84-manifest: ")
    assert truth.read_text().startswith("# corrbb84-manifest: ")


def test_keyrate_from_counts_matches_simulate(config_path, tmp_path):
    counts = tmp_path / "counts.csv"
    main([
        "simulate", "--config", config_path, "--mode", "expected",
        "--counts-out", str(counts),
    ])
    from_file = tmp_path / "from_file.json"
    direct = tmp_path / "direct.json"
    assert main([
        "keyrate", "--config", config_path, "--counts", str(counts),
        "--out", str(from_file),
    ]) == 0
    assert main([
        "keyrate", "--config", config_path, "--simulate", "--mode", "expected",
        "--out", str(direct),
    ]) == 0
    a = json.loads(from_file.read_text())
    b = json.loads(direct.read_text())
    assert a["result"] == b["result"]
    assert a["result"]["key_length"] > 0
    assert "manifest" in a and a["manifest"]["bound_algorithm"] == "kl-bisection"


def test_keyrate_needs_counts_or_simulate(config_path):
    assert main(["keyrate", "--config", config_path]) == 2


def test_keyrate_refuses_counts_with_simulate(config_path, tmp_path, capsys):
    """--counts certifies a file and --simulate draws counts: given both,
    keyrate exits 2 with a message instead of ignoring --simulate and --mode."""
    counts = _counts_file(config_path, tmp_path)
    out = tmp_path / "key.json"
    assert main(["keyrate", "--config", config_path, "--counts", counts, "--simulate",
                 "--mode", "sampled", "--seed", "1", "--out", str(out)]) == 2
    assert "exactly one of --counts FILE and --simulate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["expected", "sampled"])
def test_keyrate_refuses_mode_with_counts(config_path, tmp_path, capsys, mode):
    """--mode chooses how --simulate draws counts; given with --counts, which
    reads them, keyrate exits 2 with a message instead of ignoring it."""
    counts = _counts_file(config_path, tmp_path)
    out = tmp_path / "key.json"
    assert main(["keyrate", "--config", config_path, "--counts", counts,
                 "--mode", mode, "--seed", "3", "--out", str(out)]) == 2
    assert "keyrate --mode chooses how --simulate draws counts" in capsys.readouterr().err
    assert not out.exists()


def _counts_file(config_path, tmp_path, edit=None):
    """The expected counts of the base config, its lines passed through
    ``edit``; a surrogate escape such as "\\udcff" is written as that raw byte."""
    counts = tmp_path / "counts.csv"
    main(["simulate", "--config", config_path, "--mode", "expected",
          "--counts-out", str(counts)])
    if edit is not None:
        text = "\n".join(edit(counts.read_text().splitlines())) + "\n"
        counts.write_bytes(text.encode("utf-8", "surrogateescape"))
    return str(counts)


@pytest.mark.parametrize("edit, message", [
    ("unreadable", "cannot read counts file "),
    (lambda lines: [lines[0], "category,basis,mu,count", *lines[2:]],
     "unexpected counts CSV header in "),
    (lambda lines: [*lines, "det,Z,7"], "row ['det', 'Z', '7'] needs 4 fields"),
    (lambda lines: [*lines, "det,Z,s,7,8"], "row ['det', 'Z', 's', '7', '8'] needs 4 fields"),
    (lambda lines: [l for l in lines if not l.startswith("err,X,v,")],
     "is missing cell ('err', 'X', 'v')"),
    (lambda lines: [*lines, "det,Z,\udcff,7"], "'utf-8' codec can't decode byte 0xff"),
    (lambda lines: [*lines, "det,Z,s," + "1" * 200_000], "field larger than field limit"),
], ids=["unreadable_path", "wrong_header", "three_fields", "five_fields", "missing_cell",
        "byte_not_utf8", "field_beyond_csv_limit"])
def test_counts_file_rejections_exit_2(config_path, tmp_path, capsys, edit, message):
    if edit == "unreadable":
        counts = str(tmp_path / "absent.csv")
    else:
        counts = _counts_file(config_path, tmp_path, edit)
    assert main(["keyrate", "--config", config_path, "--counts", counts]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    with pytest.raises(ConfigError) as raised:
        read_counts_csv(counts)
    assert err == f"config error: {raised.value}\n"


def test_counts_file_blank_lines_are_skipped(config_path, tmp_path, capsys):
    plain = read_counts_csv(_counts_file(config_path, tmp_path))
    spaced = _counts_file(config_path, tmp_path,
                          lambda lines: [lines[0], lines[1], "", *lines[2:], ""])
    assert read_counts_csv(spaced) == plain
    assert main(["keyrate", "--config", config_path, "--counts", spaced]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["key_length"] > 0


def test_sampled_simulation_requires_seed(config_path, tmp_path):
    status = main([
        "simulate", "--config", config_path, "--mode", "sampled",
        "--counts-out", str(tmp_path / "c.csv"),
    ])
    assert status == 2


def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["keyrate", "--config", str(missing), "--simulate"]) == 2

    broken = dict(BASE_CONFIG, epsilons={"eps_A": 1e-10})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert main(["keyrate", "--config", str(path), "--simulate"]) == 2

    invalid = json.loads(json.dumps(BASE_CONFIG))
    invalid["protocol"]["p_keep"] = 1.0
    path2 = tmp_path / "invalid.json"
    path2.write_text(json.dumps(invalid))
    assert main(["keyrate", "--config", str(path2), "--simulate"]) == 2


@pytest.mark.parametrize("command", [
    ["keyrate", "--simulate"], ["simulate", "--counts-out", "c.csv"], ["optimize"],
    ["scan", "--distances", "0", "--out", "s.csv"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace(b'"channel"', b'"chan\xffnel"'),
     "cannot read config file {}: 'utf-8' codec can't decode byte 0xff"),
    (lambda text: text.replace(b'"eps_A": 1e-10', b'"eps_A": 1e-10, "eps_A": 0.001'),
     "config file {}: key 'eps_A' appears twice in one JSON object"),
    (lambda text: text[:-1] + b', "channel": {"distance_km": 50.0}}',
     "config file {}: key 'channel' appears twice in one JSON object"),
], ids=["byte_not_utf8", "eps_A_twice", "channel_twice"])
def test_config_text_rejections_exit_2(tmp_path, monkeypatch, capsys, command, edit, message):
    """Every command reads the config as UTF-8 and refuses a key given twice
    in one object, where JSON parsing would keep the last copy."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_bytes(edit(json.dumps(BASE_CONFIG).encode()))
    assert main([command[0], "--config", str(path), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith("config error: " + message.format(path))
    assert not any(tmp_path.glob("*.csv"))


def _forbid_work(monkeypatch):
    """Fail the test if a command reaches its work."""
    def work(*args, **kwargs):
        pytest.fail("the command worked before claiming its outputs")

    for module, name in [(cli, "evaluate_pipeline"), (simulator, "expected_counts"),
                         (simulator, "sample_counts"), (optimizer, "optimize_params"),
                         (optimizer, "scan_distance"), (validation, "run_validation")]:
        monkeypatch.setattr(module, name, work)


@pytest.mark.parametrize("argv", [
    ["keyrate", "--simulate", "--out", "{}/result.json"],
    ["optimize", "--out", "{}/best.json"],
    ["scan", "--distances", "0", "--out", "{}/scan.csv"],
    ["simulate", "--mode", "expected", "--counts-out", "{}/counts.csv"],
    ["simulate", "--mode", "expected", "--counts-out", "counts.csv", "--truth-out", "{}/truth.csv"],
    ["validate", "--out", "{}/report.json"],
], ids=["keyrate_out", "optimize_out", "scan_out", "counts_out", "truth_out", "validate_out"])
def test_output_in_missing_directory_exits_2(config_path, tmp_path, monkeypatch, capsys, argv):
    """Every output path is claimed before the work, and a failed claim
    leaves none of the command's outputs behind."""
    _forbid_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "absent"
    argv = [arg.format(missing) for arg in argv]
    if argv[0] != "validate":
        argv[1:1] = ["--config", config_path]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    target = next(arg for arg in argv if arg.startswith(str(missing)))
    assert err.startswith(f"config error: cannot write output file {target}: ")
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_output_naming_a_directory_exits_2_before_the_work(tmp_path, monkeypatch, capsys):
    _forbid_work(monkeypatch)
    assert main(["validate", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write output file {tmp_path}: Is a directory\n"
    )
    assert not any(tmp_path.iterdir())


def test_failed_command_leaves_an_existing_output_as_it_was(config_path, tmp_path):
    counts = tmp_path / "counts.csv"
    assert main(["simulate", "--config", config_path, "--mode", "expected",
                 "--counts-out", str(counts)]) == 0
    text = re.sub(r"sifted_total,,,\d+", f"sifted_total,,,{10**9 + 1}", counts.read_text())
    counts.write_text(text)
    out = tmp_path / "result.json"
    out.write_bytes(b"an earlier result\n")
    assert main(["keyrate", "--config", config_path, "--counts", str(counts),
                 "--out", str(out)]) == 2
    assert out.read_bytes() == b"an earlier result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "counts.csv",
                                                         "result.json"]


def test_output_replaces_the_file_a_symlink_names_with_a_plain_open_mode(config_path, tmp_path):
    plain = tmp_path / "plain"
    open(plain, "w").close()
    target, link = tmp_path / "result.json", tmp_path / "link.json"
    target.write_text("an earlier result\n")
    link.symlink_to(target)
    assert main(["keyrate", "--config", config_path, "--simulate", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["result"]["key_length"] > 0
    assert target.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "link.json", "plain",
                                                         "result.json"]


def test_output_to_a_pipe_is_written_in_place(config_path, tmp_path):
    """A pipe is no file to claim, so it also takes both outputs of simulate."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["keyrate", "--config", config_path, "--simulate", "--out", str(pipe)]) == 0
        text = os.read(reader, 1 << 16)
        assert main(["simulate", "--config", config_path, "--mode", "expected",
                     "--counts-out", str(pipe), "--truth-out", str(pipe)]) == 0
        tables = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert json.loads(text)["result"]["key_length"] > 0
    assert tables.count(cli.MANIFEST_PREFIX) == 2 and "trash_minus" in tables
    assert stat.S_ISFIFO(pipe.stat().st_mode)


def test_over_budget_epsilons_exit_2(tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["epsilons"]["eps_C"] = 1e-3
    config["correlations"] = {"delta_1": 0.05, "decay_C": 1.0, "l_c_eff": 5000}
    path = tmp_path / "over_budget.json"
    path.write_text(json.dumps(config))
    assert main(["keyrate", "--config", str(path), "--simulate", "--mode", "expected"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "failure budget" in err


def test_scan_row_count(config_path, tmp_path, monkeypatch):
    # the rows, not their keys, are checked: the real search at 4 evaluations
    search = optimizer.optimize_params
    monkeypatch.setattr(optimizer, "optimize_params", lambda spec, channel, warm_start=None:
                        search(dataclasses.replace(spec, budget=4), channel, warm_start))
    out = tmp_path / "scan.csv"
    config = json.loads(json.dumps(BASE_CONFIG))
    path = tmp_path / "scan_config.json"
    path.write_text(json.dumps(config))
    assert main([
        "scan", "--config", str(path), "--distances", "0:100:10", "--out", str(out),
    ]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 + 11  # header + one row per distance


def test_optimize_writes_result(config_path, tmp_path):
    out = tmp_path / "best.json"
    config = json.loads(json.dumps(BASE_CONFIG))
    path = tmp_path / "opt_config.json"
    path.write_text(json.dumps(config))
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["key_length"] > 0
    assert payload["result"]["evaluations"] < optimizer.OptimizationSpec.budget


@pytest.mark.parametrize("distance", [0, 1])
def test_optimize_positive_vacuum_intensity_exits_0(tmp_path, distance):
    """Candidates the decoy bounds cannot solve (s <= w + v) score -inf
    instead of raising, at 0 and 1 km."""
    config = json.loads(json.dumps(BASE_CONFIG))
    config["channel"]["distance_km"] = distance
    config["protocol"]["intensities"] = {"s": 0.6, "w": 0.3, "v": 0.2}
    path = tmp_path / "opt_config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "best.json"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert 0 < result["evaluations"] < optimizer.OptimizationSpec.budget
    assert result["key_length"] > 0
    params = result["params"]
    assert params["s"] > params["w"] + params["v"] and params["v"] == 0.2


def test_optimize_at_a_large_vacuum_intensity_evaluates_candidates(tmp_path):
    """The README's uncorrelated config with s 1.5, w 0.46 and v 0.45 passes
    every rule; its search starts from a feasible point and evaluates
    candidates, so the zero key it reports rests on them."""
    readme = Path(__file__).with_name("fixtures") / "cli_outputs" / "readme_uncorrelated.json"
    config = json.loads(readme.read_text())
    config["protocol"]["intensities"] = {"s": 1.5, "w": 0.46, "v": 0.45}
    path = tmp_path / "opt_config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "best.json"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["evaluations"] > 0 and result["params"]["v"] == 0.45
    assert result["zero_key_everywhere"] and result["eps_sec"] > 0.0


def test_optimize_uses_channel_f_ec(tmp_path):
    keys = {}
    for f_ec in (1.16, 2.0):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["channel"]["f_EC"] = f_ec
        path = tmp_path / f"opt_{f_ec}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"best_{f_ec}.json"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
        keys[f_ec] = json.loads(out.read_text())["result"]["key_length"]
    assert 0 < keys[2.0] < keys[1.16]


def test_optimize_reads_the_protocols_v_and_epsilons(tmp_path, capsys):
    """``v``, ``eps_PA`` and ``eps_EV`` come from the protocol and epsilon
    sections, which the optimizer holds fixed; it splits only eps_pe_target."""
    config = json.loads(json.dumps(BASE_CONFIG))
    config["protocol"]["intensities"]["v"] = 0.02
    config["epsilons"]["eps_PA"] = 1e-6
    path = tmp_path / "protocol_v.json"
    path.write_text(json.dumps(config))
    assert main(["optimize", "--config", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["params"]["v"] == 0.02
    assert result["eps_sec"] == pytest.approx(2 * math.sqrt(1e-10) + 1e-6 + 1e-10, rel=1e-12)


def test_optimize_ends_quickly_on_a_slowly_decaying_model(tmp_path):
    """decay_C = 1e-7 derives l_c ~ 5e8 with Delta_l flat only after ~1.5e8
    lags, which keyrate refuses (``decay_C_1e-7_beyond_lag_cap``); optimize
    finds every candidate infeasible instead of running for minutes."""
    config = json.loads(json.dumps(BASE_CONFIG))
    config["epsilons"]["d"] = 1e-12
    config["correlations"] = {"delta_1": 0.05, "decay_C": 1e-7}
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(config))
    start = time.perf_counter()
    assert main(["optimize", "--config", str(path),
                 "--out", str(tmp_path / "best.json")]) in (0, 2)
    assert time.perf_counter() - start < 5.0


def test_readme_config_runs(tmp_path):
    """The README's documented config is accepted as written, so a stale field
    there fails here under the unknown-key rule."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "readme.json"
    path.write_text(blocks[0])
    assert main(["keyrate", "--config", str(path), "--simulate",
                 "--out", str(tmp_path / "keyrate.json")]) == 0
    assert main(["optimize", "--config", str(path),
                 "--out", str(tmp_path / "best.json")]) == 0


def test_validate_quick_passes_and_repeats(tmp_path, capsys):
    """Every check passes, the --out report holds the printed checks as strict
    JSON, and a second run differs only in the manifest timestamp."""
    reports = []
    for run in ("first.json", "second.json"):
        out = tmp_path / run
        assert main(["validate", "--level", "quick", "--seed", "7", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        report = json.loads(out.read_text(), parse_constant=reject_constant)
        assert set(report) == {"manifest", "checks"}
        assert [
            f"{'PASS' if check['passed'] else 'FAIL'} {check['name']} "
            f"{json.dumps(check['stats'], sort_keys=True)}"
            for check in report["checks"]
        ] == printed
        assert printed and all(check["passed"] is True for check in report["checks"])
        assert report["manifest"]["seed"] == 7
        reports.append(out.read_text().replace(report["manifest"]["timestamp"], ""))
    assert reports[0] == reports[1]


def test_correlated_config_derives_truncation(config_path, tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["epsilons"]["d"] = 1e-12
    config["correlations"] = {"delta_1": 0.05, "decay_C": 1.0}
    path = tmp_path / "corr.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    assert main([
        "keyrate", "--config", str(path), "--simulate", "--mode", "expected",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["audit"]["correlation"]["l_c"] >= 30
    assert payload["result"]["key_length"] > 0


def test_correlated_config_explicit_length(config_path, tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["epsilons"]["d"] = 1e-12
    config["correlations"] = {"delta_1": 0.05, "decay_C": 1.0, "l_c_eff": 60}
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    assert main([
        "keyrate", "--config", str(path), "--simulate", "--mode", "expected",
        "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["result"]["audit"]["correlation"]["l_c"] == 60

    # an explicit length below the derived requirement is a config error
    config["correlations"]["l_c_eff"] = 3
    path.write_text(json.dumps(config))
    assert main([
        "keyrate", "--config", str(path), "--simulate", "--mode", "expected",
    ]) == 2


def test_optimize_rejects_correlations_without_length(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["correlations"] = {"delta_1": 0.05, "decay_C": 1.0}  # d stays 0
    path = tmp_path / "bad_opt.json"
    path.write_text(json.dumps(config))
    assert main(["optimize", "--config", str(path)]) == 2


N_BEYOND_INT64 = "N must be at most 9223372036854775807, got 9223372036854775808"
# rows whose message is pinned, because a later, generic check would also exit 2
MALFORMED_MESSAGES = {
    "distance_range_step_below_float_spacing": "transmittance 0.0 outside (0, 1]",
    "distance_range_across_2_53": "transmittance 0.0 outside (0, 1]",
    "non_finite_audit_with_counts": "decoy weight e^w / p_w must be finite, got inf",
    "p_w_tiny_with_counts": "decoy weight e^w / p_w must be finite, got inf",
    "optimizer_coordinate_passes_retired": "unknown field optimizer.coordinate_passes",
    "eps_PA_inverse_overflows_optimize":
        "eps_PA must lie in (0, 1) with 1/eps_PA finite, got 5e-324",
    "eps_EV_inverse_overflows_optimize":
        "eps_EV must lie in (0, 1) with 1/eps_EV finite, got 5e-324",
    "optimizer_eps_pe_target_inverse_overflows":
        "eps_pe_target must lie in (0, 1) with 1/eps_pe_target finite, got 5e-324",
    "optimizer_eps_pe_target_at_d":
        "eps_pe_target must exceed the correlation model's truncation_d=1e-12, got 1e-12",
    "v_at_weak_box_top_optimize": "v must lie in [0, 0.5), below the top of the box of w, got 0.6",
    "channel_key_misspelled": "unknown field channel.misalignmnet",
    "intensities_key_unknown": "unknown field protocol.intensities.u",
    "correlations_section_misspelled": "unknown field config.correlation",
    "optimizer_v_retired": "unknown field optimizer.v",
    "optimizer_eps_PA_retired": "unknown field optimizer.eps_PA",
    "optimizer_eps_EV_retired": "unknown field optimizer.eps_EV",
    "decay_C_1e-7_beyond_lag_cap": "coin bound compute more than 100000 lags",
    "l_c_eff_beyond_lag_cap": "coin bound compute more than 100000 lags",
    "f_ec_below_1_with_counts": "f_EC must be finite and >= 1, got 0.5",
    "decay_C_1e-7_beyond_lag_cap_optimize": (
        "decay_C=1e-07 with delta_1=0.05 and l_c=506638544 makes the coin bound compute more "
        "than 100000 lags"),
    "l_c_eff_below_every_candidate_optimize": "l_c_eff=5 below the required truncation length",
    "l_c_eff_below_every_candidate_scan": "l_c_eff=5 below the required truncation length",
    "optimizer_v_with_keyrate": "unknown field optimizer.v",
    "optimizer_budget_text": "unknown field optimizer.budget",
    "optimizer_budget_zero": "unknown field optimizer.budget",
    "optimizer_restarts_fraction": "unknown field optimizer.restarts",
    "optimizer_restarts_zero": "unknown field optimizer.restarts",
    "optimizer_restarts_beyond_cap": "unknown field optimizer.restarts",
    "optimizer_not_object_with_keyrate": "config.optimizer must be a JSON object, got 3",
    "correlations_key_unknown_simulate": "unknown field correlations.bogus",
    "N_beyond_int64_sampled": N_BEYOND_INT64,
    "N_beyond_int64_expected": N_BEYOND_INT64,
    "N_beyond_int64_counts": N_BEYOND_INT64,
    "N_beyond_int64_simulate": N_BEYOND_INT64,
    "N_beyond_int64_optimize": N_BEYOND_INT64,
    "N_beyond_int64_scan": N_BEYOND_INT64,
    "optimizer_eps_pe_target_underflows_every_split":
        "eps_A must lie in (0, 1) with 1/eps_A finite, got",
    "seed_retired_optimize": "unrecognized arguments: --seed 1",
    "seed_retired_scan": "unrecognized arguments: --seed 1",
    "budget_retired_optimize": "unrecognized arguments: --budget 60",
    "budget_retired_scan": "unrecognized arguments: --budget 60",
    "counts_and_truth_one_path": "--counts-out and --truth-out name the same file ",
}


@pytest.mark.parametrize("edits, cell, mode", [
    ({}, "-5", "counts"),
    ({}, "1.5", "counts"),
    ({}, "abc", "counts"),
    ({"channel.f_EC": 0.5}, None, "counts"),
    ({"protocol.N": "abc"}, None, "expected"),
    ({"protocol.N": 1.5e9 + 0.5}, None, "expected"),
    ({"protocol.intensities.s": "0.5"}, None, "expected"),
    ({"epsilons.d": 1e-12, "correlations": {"delta_1": 0.05, "decay_C": 0}}, None, "expected"),
    ({"correlations": {"delta_1": -0.1, "decay_C": 1.0, "l_c_eff": 2}}, None, "expected"),
    ({"correlations": {"delta_1": 0.1, "decay_C": 1.0, "l_c_eff": "abc"}}, None, "expected"),
    ({"protocol.N": 2**63}, None, "sampled"),
    ({"protocol.N": 10**400}, None, "expected"),
    ({"optimizer": {"budget": "abc"}}, None, "optimize"),
    ({"optimizer": {"restarts": 2.5}}, None, "optimize"),
    ({"optimizer": {"restarts": 0}}, None, "optimize"),
    ({"optimizer": {"budget": 0}}, None, "optimize"),
    ({"protocol.intensities.v": -1}, None, "optimize"),
    ({"optimizer": {"eps_pe_target": 2}}, None, "optimize"),
    ({}, "abc", "scan"),
    ({}, "nan", "scan"),
    ({}, "inf", "scan"),
    ({}, "-5", "scan"),
    ({}, "10:0:5", "scan"),
    ({}, "0:nan:5", "scan"),
    ({}, ",", "scan"),
    ({}, "det,Z,s,10000000", "counts_extra_row"),
    ({}, "det,Y,s,7", "counts_extra_row"),
    ({}, "det,Z,q,7", "counts_extra_row"),
    ({}, "bogus,,,1", "counts_extra_row"),
    ({}, "sifted_total,,,999999999999", "counts_extra_row"),
    ({}, "sifted_total,Z,,5", "counts_extra_row"),
    ({}, "9" * 5000, "counts"),
    ({}, "5000000000", "counts_sifted_total"),
    ({}, "9" * 400, "counts_sifted_total"),
    ({"protocol": 5}, None, "expected"),
    ({"protocol.intensities": 0.5}, None, "expected"),
    ({"protocol.intensity_probs": 0.7}, None, "expected"),
    ({"epsilons": 1e-10}, None, "expected"),
    ({"channel": 5}, None, "expected"),
    ({"channel": 5}, None, "counts"),
    ({"correlations": 3}, None, "expected"),
    ({"optimizer": 3}, None, "optimize"),
    ({"protocol.intensities.s": 800}, None, "counts"),
    ({"protocol.intensities.s": 1e300}, None, "counts"),
    ({"protocol.intensities.s": math.inf}, None, "counts"),
    ({"protocol.intensities.s": math.inf}, None, "expected"),
    ({"epsilons.d": 1e-12, "correlations": {"delta_1": 0.05, "decay_C": 1e-300}}, None, "expected"),
    ({"protocol.intensities": {"s": 1e-300, "w": 5e-301, "v": 0.0}, "epsilons.d": 1e-12,
      "correlations": {"delta_1": 5e-324, "decay_C": 1.0}}, None, "expected"),
    ({"protocol.intensities": {"s": 2e-160, "w": 1e-160, "v": 0.0}, "epsilons.d": 1e-12,
      "correlations": {"delta_1": 5e-324, "decay_C": 1.0}}, None, "expected"),
    ({"protocol.intensities.w": 5e-324, "epsilons.d": 1e-12,
      "correlations": {"delta_1": 0.05, "decay_C": 1.0}}, None, "expected"),
    ({"epsilons.eps_A": 5e-324}, None, "expected"),
    ({"epsilons.eps_C": 5e-324}, None, "expected"),
    ({"protocol.intensities": {"s": 709.7, "w": 709.0, "v": 0.0}}, None, "counts"),
    ({"protocol.intensity_probs.v": 10**400}, None, "expected"),
    ({"channel.distance_km": 10**400}, None, "expected"),
    ({"channel.f_EC": math.nan}, None, "counts"),
    ({"channel.f_EC": math.inf}, None, "counts"),
    ({"channel.distance_km": -15413.0}, None, "expected"),
    ({"optimizer": {"restarts": 10_001}}, None, "optimize"),
    ({"protocol.intensity_probs": {"s": 0.85, "w": 5e-324, "v": 0.15}}, None, "counts"),
    ({"optimizer": {"coordinate_passes": 3}}, None, "optimize"),
    ({"epsilons.eps_PA": 5e-324}, None, "optimize"),
    ({"epsilons.eps_EV": 5e-324}, None, "optimize"),
    ({"optimizer": {"eps_pe_target": 5e-324}}, None, "optimize"),
    ({"epsilons.d": 1e-12, "correlations": {"delta_1": 0.05, "decay_C": 1.0},
      "optimizer": {"eps_pe_target": 1e-12}}, None, "optimize"),
    ({"protocol.intensities": {"s": 2.0, "w": 0.7, "v": 0.6}}, None, "optimize"),
    ({"channel.misalignmnet": 0.05}, None, "expected"),
    ({"protocol.intensities.u": 0.05}, None, "counts"),
    ({"correlation": {"delta_1": 0.05, "decay_C": 1.0, "l_c_eff": 35}}, None, "expected"),
    ({"optimizer": {"v": 0.0}}, None, "optimize"),
    ({"optimizer": {"eps_PA": 1e-10}}, None, "optimize"),
    ({"optimizer": {"eps_EV": 1e-10}}, None, "optimize"),
    ({"epsilons.d": 1e-12, "correlations": {"delta_1": 0.05, "decay_C": 1e-7}}, None, "expected"),
    ({"correlations": {"delta_1": 0.05, "decay_C": 1e-5, "l_c_eff": 10**9}}, None, "counts"),
    ({"epsilons.d": 1e-12, "correlations": {"delta_1": 0.05, "decay_C": 1e-7}}, None, "optimize"),
    ({"epsilons.d": 1e-12, "correlations": {"delta_1": 0.05, "decay_C": 1.0, "l_c_eff": 5}},
     None, "optimize"),
    ({"epsilons.d": 1e-12, "correlations": {"delta_1": 0.05, "decay_C": 1.0, "l_c_eff": 5}},
     "0,10", "scan"),
    ({"optimizer": {"v": 0.0}}, None, "expected"),
    ({"optimizer": 3}, None, "expected"),
    ({"correlations": {"delta_1": 0.05, "decay_C": 1.0, "bogus": 1}}, None, "simulate"),
    ({}, "1e16:1e16:1", "scan"),
    ({}, "9007199254740990:9007199254740995:0.6", "scan"),
    ({"protocol.N": 2**63}, None, "expected"),
    ({"protocol.N": 2**63}, None, "counts"),
    ({"protocol.N": 2**63}, None, "simulate"),
    ({"protocol.N": 2**63}, None, "optimize"),
    ({"protocol.N": 2**63}, "0", "scan"),
    ({"optimizer": {"eps_pe_target": 1e-308}}, None, "optimize"),
    ({}, "--seed 1", "optimize"),
    ({}, "0 --seed 1", "scan"),
    ({}, "--budget 60", "optimize"),
    ({}, "0 --budget 60", "scan"),
    ({}, "--truth-out {}", "simulate"),
], ids=[
    "count_negative", "count_fraction", "count_text", "f_ec_below_1_with_counts",
    "N_text", "N_fraction", "s_text", "decay_C_zero", "delta_1_negative", "l_c_eff_text",
    "N_beyond_int64_sampled", "N_beyond_float", "optimizer_budget_text",
    "optimizer_restarts_fraction", "optimizer_restarts_zero", "optimizer_budget_zero",
    "v_negative_optimize", "optimizer_eps_pe_target_above_1", "distances_text",
    "distances_nan", "distances_inf", "distance_negative", "distance_range_empty",
    "distance_range_nan_stop", "distances_none", "count_cell_twice", "count_basis_unknown",
    "count_intensity_unknown", "count_category_unknown", "sifted_total_twice",
    "sifted_total_with_basis", "count_beyond_digit_limit", "sifted_total_beyond_N",
    "sifted_total_beyond_float", "protocol_not_object", "intensities_not_object",
    "intensity_probs_not_object", "epsilons_not_object", "channel_not_object",
    "channel_not_object_with_counts", "correlations_not_object", "optimizer_not_object",
    "s_800_with_counts", "s_1e300_with_counts", "s_inf_with_counts", "s_inf", "decay_C_tiny",
    "intensities_1e-300_delta_1_tiny", "truncation_log_argument_underflows", "w_tiny",
    "eps_A_inverse_overflows", "eps_C_inverse_overflows", "non_finite_audit_with_counts",
    "intensity_prob_v_beyond_float", "distance_beyond_float", "f_ec_nan_with_counts",
    "f_ec_inf_with_counts", "distance_negative_gain_overflows", "optimizer_restarts_beyond_cap",
    "p_w_tiny_with_counts", "optimizer_coordinate_passes_retired",
    "eps_PA_inverse_overflows_optimize",
    "eps_EV_inverse_overflows_optimize", "optimizer_eps_pe_target_inverse_overflows",
    "optimizer_eps_pe_target_at_d", "v_at_weak_box_top_optimize", "channel_key_misspelled",
    "intensities_key_unknown", "correlations_section_misspelled", "optimizer_v_retired",
    "optimizer_eps_PA_retired", "optimizer_eps_EV_retired", "decay_C_1e-7_beyond_lag_cap",
    "l_c_eff_beyond_lag_cap", "decay_C_1e-7_beyond_lag_cap_optimize",
    "l_c_eff_below_every_candidate_optimize", "l_c_eff_below_every_candidate_scan",
    "optimizer_v_with_keyrate", "optimizer_not_object_with_keyrate",
    "correlations_key_unknown_simulate", "distance_range_step_below_float_spacing",
    "distance_range_across_2_53", "N_beyond_int64_expected", "N_beyond_int64_counts",
    "N_beyond_int64_simulate", "N_beyond_int64_optimize", "N_beyond_int64_scan",
    "optimizer_eps_pe_target_underflows_every_split", "seed_retired_optimize",
    "seed_retired_scan", "budget_retired_optimize", "budget_retired_scan",
    "counts_and_truth_one_path",
])
def test_malformed_input_exits_2(config_path, tmp_path, capsys, request, edits, cell, mode):
    config = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        section = config
        for name in parents:
            section = section[name]
        section[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(config))
    argv = ["keyrate", "--config", str(path)]
    if mode == "optimize":
        argv = ["optimize", "--config", str(path), *(cell or "").split()]
    elif mode == "scan":
        argv = ["scan", "--config", str(path), "--distances", *cell.split(" "),
                "--out", str(tmp_path / "out.csv")]
    elif mode == "simulate":
        argv = ["simulate", "--config", str(path), "--mode", "expected",
                "--counts-out", str(tmp_path / "out.csv"),
                *(arg.format(tmp_path / "out.csv") for arg in (cell or "").split())]
    elif mode.startswith("counts"):
        counts = tmp_path / "counts.csv"
        main(["simulate", "--config", config_path, "--mode", "expected",
              "--counts-out", str(counts)])
        if mode == "counts_extra_row":
            counts.write_text(counts.read_text() + cell + "\n")
        elif cell is not None:
            row = "sifted_total,,," if mode == "counts_sifted_total" else "det,Z,s,"
            lines = counts.read_text().splitlines()
            lines = [row + cell if l.startswith(row) else l for l in lines]
            counts.write_text("\n".join(lines) + "\n")
        argv += ["--counts", str(counts)]
    else:
        argv += ["--simulate", "--mode", mode, "--seed", "1"]
    try:
        status, prefix = main(argv), "config error:"
    except SystemExit as exc:  # an option argparse does not know
        status, prefix = exc.code, "error: unrecognized arguments:"
    assert status == 2
    err = capsys.readouterr().err
    assert prefix in err
    assert MALFORMED_MESSAGES.get(request.node.callspec.id, "") in err
    assert not (tmp_path / "out.csv").exists()


def _scaled_fixture(tmp_path, factor):
    """The README correlated config and the fixture counts with N and every
    count multiplied by ``factor``."""
    fixtures = Path(__file__).with_name("fixtures") / "cli_outputs"
    config = json.loads((fixtures / "readme_correlated.json").read_text())
    config["protocol"]["N"] *= factor
    rows = [line.split(",") for line in (fixtures / "counts.csv").read_text().splitlines()
            if not line.startswith("#")]
    rows[1:] = [row[:3] + [str(int(row[3]) * factor)] for row in rows[1:]]
    config_path, counts_path = tmp_path / "scaled.json", tmp_path / "scaled.csv"
    config_path.write_text(json.dumps(config))
    counts_path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    return ["keyrate", "--config", str(config_path), "--counts", str(counts_path),
            "--out", str(tmp_path / "key.json")]


def test_block_size_beyond_int64_exits_2_by_its_rule(tmp_path, capsys):
    """Scaled by 10^298 the input used to pass every rule and exit 2 for an
    infinite trash bound in the output; the model's N ceiling now refuses it
    by name. Scaled by 10^9 (N = 1e18) it certifies."""
    assert main(_scaled_fixture(tmp_path, 10**298)) == 2
    assert capsys.readouterr().err == (
        f"config error: N must be at most 9223372036854775807, got {10**307}\n")
    assert not (tmp_path / "key.json").exists()
    assert main(_scaled_fixture(tmp_path, 10**9)) == 0
    key = json.loads((tmp_path / "key.json").read_text(), parse_constant=reject_constant)
    assert key["result"]["key_length"] > 0


@pytest.mark.parametrize("value", [10**400, -10**400, math.nan, math.inf, -math.inf],
                         ids=["int_above", "int_below", "nan", "inf", "-inf"])
def test_number_outside_float_range_names_the_field(value):
    with pytest.raises(ConfigError, match=r"^channel\.f_EC must be a finite number"):
        _check_section({"f_EC": value}, "channel")


@pytest.mark.parametrize("value", [sys.float_info.max, -sys.float_info.max, 5e-324, 0, -7])
def test_number_accepts_values_a_float_holds(value):
    limit = int(sys.float_info.max)
    section = {"distance_km": value, "f_EC": limit}
    _check_section(section, "channel")
    assert section == {"distance_km": value, "f_EC": limit}


def test_scan_runs_each_search_until_it_converges(tmp_path):
    """``scan`` takes no budget: on the README correlated config it writes the
    rows of searches that no budget binds, though the 0 km one spends 409
    evaluations."""
    from corrbb84.optimizer import scan_distance
    config = Path(__file__).with_name("fixtures") / "cli_outputs" / "readme_correlated.json"
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(config), "--distances", "0,20,40",
                 "--out", str(out)]) == 0
    written = list(csv.DictReader(line for line in out.read_text().splitlines()
                                  if not line.startswith("#")))
    spec, channel, _ = cli._search_inputs(argparse.Namespace(config=str(config)))
    rows = scan_distance(dataclasses.replace(spec, budget=10**6), channel, [0.0, 20.0, 40.0])
    assert written == [{key: cli._fmt(value) if isinstance(value, float) else str(value)
                        for key, value in row.items()} for row in rows]
    assert [row["evaluations"] for row in written] == ["409", "368", "343"]


def test_top_level_not_object_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["keyrate", "--config", str(path), "--simulate"]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_integer_beyond_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(BASE_CONFIG).replace(str(10**9), "9" * 5000))
    assert main(["keyrate", "--config", str(path), "--simulate"]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("keyrate", ["--simulate", "--mode", "sampled"]),
    ("simulate", ["--counts-out", "counts.csv"]),
    ("validate", []),
], ids=["keyrate", "simulate", "validate"])
def test_negative_seed_exits_2(config_path, tmp_path, monkeypatch, capsys, command, extra):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--seed", "-1", *extra]
    if command != "validate":
        argv += ["--config", config_path]
    assert main(argv) == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_optimize_honours_explicit_length(tmp_path):
    keys = {}
    for l_c_eff in (None, 400):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["epsilons"]["d"] = 1e-12
        config["correlations"] = {"delta_1": 0.05, "decay_C": 1.0}
        if l_c_eff is not None:
            config["correlations"]["l_c_eff"] = l_c_eff
        path = tmp_path / f"opt_{l_c_eff}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"best_{l_c_eff}.json"
        assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
        keys[l_c_eff] = json.loads(out.read_text())["result"]["key_length"]
    # the derived length is about 35; at 400 the smaller eps_C share and the
    # wider trash bound cost key
    assert 0 < keys[400] < keys[None]


@pytest.mark.parametrize("argv", [["keyrate", "--simulate"], ["validate", "--level", "quick"]],
                         ids=["keyrate", "validate"])
def test_closed_stdout_pipe_exits_1_without_traceback(config_path, argv):
    """A reader that has gone away (``corrbb84 ... | head``) ends the run with
    exit 1 and nothing but the report's absence."""
    if argv[0] == "keyrate":
        argv = [*argv, "--config", config_path]
    package_root = str(Path(corrbb84.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "corrbb84.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ["keyrate", "--simulate", "--out", "/dev/full"],
    ["simulate", "--mode", "expected", "--counts-out", "/dev/full"],
    ["validate", "--out", "/dev/full"],
], ids=["keyrate_out", "counts_out", "validate_out"])
def test_output_that_cannot_be_written_exits_2(config_path, monkeypatch, capsys, argv):
    """An output that opens but refuses the write (a full disk) ends the run
    with exit 2 and one line, not a traceback."""
    checks = [validation.ValidationCheck("stub", True)]
    monkeypatch.setattr(validation, "run_validation", lambda level, seed: checks)
    if argv[0] != "validate":
        argv = [*argv, "--config", config_path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ") and err.count("\n") == 1


@needs_dev_full
def test_stdout_that_cannot_be_written_exits_2_without_traceback(config_path):
    """Block-buffered, as a device's stdout is by default, the report fits the
    buffer and the write fails at ``main``'s flush; what the buffer still holds
    must not fail again at exit."""
    package_root = str(Path(corrbb84.__file__).parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "corrbb84.cli", "keyrate", "--simulate", "--config",
             config_path], stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


def test_non_finite_output_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^the output holds a non-finite number"):
        cli._write_json(None, {"x": math.inf})


# Runs in a fresh interpreter where any import of numpy raises ImportError:
# ``keyrate --counts`` on argv[1:4], then one library certification of the
# counts in argv[4]; prints the library result.
NUMPY_BLOCKED_PROBE = """
import json, sys
sys.modules["numpy"] = None
from corrbb84 import (CorrelationModel, CountTriple, EpsilonBudget, IntensitySet,
                      ObservedCounts, ProtocolConfig, evaluate_pipeline)
from corrbb84.cli import main
config, counts, out, observed = sys.argv[1:]
if main(["keyrate", "--config", config, "--counts", counts, "--out", out]) != 0:
    sys.exit("keyrate --counts failed")
*triples, n_sifted_det = json.loads(observed)
result = evaluate_pipeline(
    ObservedCounts(*(CountTriple(*t) for t in triples), n_sifted_det),
    ProtocolConfig(
        N=10**9,
        intensity_set=IntensitySet(s=0.5, w=0.1, v=0.0, p_s=0.7, p_w=0.15, p_v=0.15),
        p_keep=0.8,
        epsilon_budget=EpsilonBudget(1e-10, 1e-10, 1e-10, 1e-10, 1e-10, d=1e-12),
    ),
    CorrelationModel(delta_1=0.05, decay_C=1.0, truncation_d=1e-12),
)
print(json.dumps([result.key_length, result.eps_sec, result.e_ph_upper]))
"""


def test_counts_certification_runs_without_numpy(tmp_path):
    """The counts -> key path, from the command line and from the library,
    never imports numpy, and certifies what a normal run certifies."""
    config = json.loads(json.dumps(BASE_CONFIG))
    config["epsilons"]["d"] = 1e-12
    config["correlations"] = {"delta_1": 0.05, "decay_C": 1.0}  # l_c_eff derived
    path = tmp_path / "corr.json"
    path.write_text(json.dumps(config))
    counts, normal, blocked = (tmp_path / name for name in ("c.csv", "a.json", "b.json"))
    assert main(["simulate", "--config", str(path), "--mode", "sampled", "--seed", "3",
                 "--counts-out", str(counts)]) == 0
    assert main(["keyrate", "--config", str(path), "--counts", str(counts),
                 "--out", str(normal)]) == 0
    observed = read_counts_csv(str(counts))
    packed = [list(observed.z_det), list(observed.z_err), list(observed.x_det),
              list(observed.x_err), observed.n_sifted_det]

    package_root = str(Path(corrbb84.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_PROBE, str(path), str(counts), str(blocked),
         json.dumps(packed)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

    a, b = (json.loads(p.read_text()) for p in (normal, blocked))
    for payload in (a, b):
        del payload["manifest"]["timestamp"]
    assert a == b
    assert a["result"]["audit"]["correlation"]["l_c"] > 0
    result = a["result"]
    assert json.loads(proc.stdout) == [result["key_length"], result["eps_sec"],
                                       result["e_ph_upper"]]


# Runs in a fresh interpreter: the expected-mode commands on argv[1:], then
# prints whether numpy was loaded.
EXPECTED_MODE_PROBE = """
import sys
from corrbb84.cli import main
config, key, counts, truth = sys.argv[1:]
if main(["keyrate", "--config", config, "--simulate", "--out", key]) != 0:
    sys.exit("keyrate --simulate failed")
if main(["simulate", "--config", config, "--mode", "expected", "--counts-out", counts,
         "--truth-out", truth]) != 0:
    sys.exit("simulate --mode expected failed")
print("numpy" in sys.modules)
"""


def _without_timestamp(path: Path) -> str:
    return re.sub(r'"timestamp": "[^"]*"', "", path.read_text())


def test_expected_simulation_never_loads_numpy(config_path, tmp_path):
    """``keyrate --simulate`` (expected mode) and ``simulate --mode expected``
    draw no sample, so they never import numpy, and write what the same
    commands write in a process that has it loaded."""
    names = ("key.json", "counts.csv", "truth.csv")
    fresh = [tmp_path / f"fresh_{name}" for name in names]
    loaded = [tmp_path / f"loaded_{name}" for name in names]
    package_root = str(Path(corrbb84.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", EXPECTED_MODE_PROBE, config_path, *map(str, fresh)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

    key, counts, truth = map(str, loaded)
    assert main(["keyrate", "--config", config_path, "--simulate", "--out", key]) == 0
    assert main(["simulate", "--config", config_path, "--mode", "expected",
                 "--counts-out", counts, "--truth-out", truth]) == 0
    for a, b in zip(fresh, loaded):
        assert _without_timestamp(a) == _without_timestamp(b)


# Runs in a fresh interpreter: optimize and scan on argv[1:], then prints
# whether numpy was loaded.
SEARCH_PROBE = """
import sys
from corrbb84.cli import main
config, optimized, scanned = sys.argv[1:]
if main(["optimize", "--config", config, "--out", optimized]):
    sys.exit("optimize failed")
if main(["scan", "--config", config, "--distances", "0,30", "--out", scanned]):
    sys.exit("scan failed")
print("numpy" in sys.modules)
"""


def test_search_commands_never_load_numpy(config_path, tmp_path):
    """``optimize`` and ``scan`` draw nothing, so they never import numpy,
    name no seed or generator in the manifest, and write what the same
    commands write in a process that has numpy loaded."""
    import numpy  # noqa: F401  (the in-process runs below have it loaded)

    fresh = [tmp_path / "fresh_optimize.json", tmp_path / "fresh_scan.csv"]
    loaded = [tmp_path / "loaded_optimize.json", tmp_path / "loaded_scan.csv"]
    package_root = str(Path(corrbb84.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SEARCH_PROBE, config_path, *map(str, fresh)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

    optimized, scanned = map(str, loaded)
    assert main(["optimize", "--config", config_path, "--out", optimized]) == 0
    assert main(["scan", "--config", config_path, "--distances", "0,30",
                 "--out", scanned]) == 0
    for a, b in zip(fresh, loaded):
        assert _without_timestamp(a) == _without_timestamp(b)
        assert '"rng_algorithm": null' in a.read_text() and '"seed": null' in a.read_text()
    assert json.loads(fresh[0].read_text())["result"]["key_length"] > 0
