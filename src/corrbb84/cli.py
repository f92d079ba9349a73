"""Command-line front end.

Subcommands: ``keyrate`` (counts file -> key-rate JSON), ``simulate`` (->
counts + ground-truth CSV), ``scan`` (-> rate-vs-distance CSV), ``optimize``
(-> best-parameters JSON), ``validate`` (-> oracle-suite pass/fail report).

Configs are UTF-8 JSON with explicit fields for every protocol, channel and
correlation parameter; the security epsilons carry no defaults and must be
spelled out, and a key outside its section's ``SECTION_KEYS``, a value not of
its kind there, or a key given twice in one object, is refused in every section
present, whichever command reads it.
Every output embeds a run manifest (tool version, config hash, seed,
bound-algorithm id, RNG id, timestamp); for a fixed config, seed, version and
command line (``scan --distances``, ``simulate --mode``; the manifest hashes
only the config) the numeric sections are byte-identical across runs -- only
the timestamp varies.
The manifest holds the seed only where a sample is drawn, with the RNG id
``numpy-pcg64``, and null for both elsewhere: an expected simulation draws
nothing, and ``keyrate``, ``optimize`` and ``scan`` take no ``--seed``, since
``keyrate`` reads its counts and a search draws nothing. Subcommands import
the simulator, optimizer and oracle suites only when they run; only a sample
or an oracle suite loads numpy.

Each output file is claimed before the command's work, as a temporary
beside it that replaces it only once the command has finished, so a failed
command leaves no partial output and every existing file as it was; an
output that is the process's stdout is written through stdout.

Exit codes: 0 success (including zero-key results, which set a flag in the
output), 1 oracle-suite failure or a closed output pipe, 2 configuration
errors, an unreadable input file or an output that cannot be opened or
written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext, suppress
from typing import TYPE_CHECKING

from . import __version__
from .correlations import CorrelationModel, validate_correlation
from .counts import CountTriple, GroundTruth, ObservedCounts
from .keyrate import DEFAULT_F_EC, evaluate_pipeline, pe_budget, validate_f_ec
from .model import ConfigError, EpsilonBudget, IntensitySet, ProtocolConfig, require

if TYPE_CHECKING:
    from .optimizer import OptimizationSpec
    from .simulator import ChannelModel

BOUND_ALGORITHM = "kl-bisection"
RNG_ALGORITHM = "numpy-pcg64"
MANIFEST_PREFIX = "# corrbb84-manifest: "

COUNT_CATEGORIES = ("det", "err")
BASES = ("Z", "X")
INTENSITIES = ("s", "w", "v")
# the counts CSV's (category, basis) -> ObservedCounts and GroundTruth field
COUNT_FIELDS = {
    ("det", "Z"): "z_det", ("err", "Z"): "z_err", ("det", "X"): "x_det", ("err", "X"): "x_err",
}
COUNTS_HEADER = ["category", "basis", "intensity", "count"]
SIFTED_TOTAL = ("sifted_total", "", "")
# every (category, basis, intensity) cell a counts file holds, each exactly once
COUNT_CELLS = {(*pair, mu) for pair in COUNT_FIELDS for mu in INTENSITIES} | {SIFTED_TOTAL}
EPSILONS = ("eps_A", "eps_B", "eps_C", "eps_PA", "eps_EV", "d")
# each config section by its dotted path: the keys it may hold (any other is
# refused) and the kind of value each holds, a section (dict), a number that a
# double holds finitely (float) or also a whole number (int)
SECTION_KEYS = {
    "config": dict.fromkeys(("protocol", "epsilons", "channel", "correlations"), dict),
    "protocol": {"N": int, "p_keep": float, "intensities": dict, "intensity_probs": dict},
    "protocol.intensities": dict.fromkeys(INTENSITIES, float),
    "protocol.intensity_probs": dict.fromkeys(INTENSITIES, float),
    "epsilons": dict.fromkeys(EPSILONS, float),
    "channel": dict.fromkeys(("distance_km", "f_EC", "attenuation_db_per_km",
                              "detector_efficiency", "dark_count_prob", "misalignment"), float),
    "correlations": {"delta_1": float, "decay_C": float, "l_c_eff": int},
}
# the arguments that name an output file
OUTPUT_ARGS = ("out", "counts_out", "truth_out")
# each scanned distance is one optimization, so a longer range is a typo
MAX_DISTANCES = 10_000


def make_manifest(config_text: str, seed: int | None) -> dict:
    """The run manifest; it names the generator only where a seed drives one."""
    return {
        "version": __version__,
        "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": seed,
        "bound_algorithm": BOUND_ALGORITHM,
        "rng_algorithm": None if seed is None else RNG_ALGORITHM,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _fmt(value: float) -> str:
    """17-significant-digit decimal; round-trip exact for doubles."""
    return format(float(value), ".17g")


# --- config ingestion -------------------------------------------------------


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field {where}.{key}")
    return section[key]


def _check_section(section: dict, path: str) -> None:
    """Check each key of ``section`` against ``SECTION_KEYS[path]`` and its
    value against the key's kind, and the same in each sub-section present,
    whichever command reads it; ``"correlations": null`` means no
    correlations. A whole number is stored as an int; the pipeline computes
    with float(value)."""
    kinds = SECTION_KEYS[path]
    for key, value in section.items():
        field, kind = f"{path}.{key}", kinds.get(key)
        if kind is None:
            raise ConfigError(f"unknown field {field}")
        if kind is dict:
            child = key if path == "config" else field
            if isinstance(value, dict):
                _check_section(value, child)
            elif not (child == "correlations" and value is None):
                raise ConfigError(f"{field} must be a JSON object, got {value!r}")
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{field} must be a number, got {value!r}")
        if not -sys.float_info.max <= value <= sys.float_info.max:  # also NaN
            raise ConfigError(f"{field} must be a finite number within the float range, "
                              f"got {value!r}")
        if kind is int:
            if isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"{field} must be a whole number, got {value!r}")
            section[key] = int(value)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused rather
    than left to its last copy."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"key {key!r} appears twice in one JSON object")
        data[key] = value
    return data


def load_config(path: str) -> tuple[dict, str]:
    """The config file's JSON object (UTF-8, no key twice in one object),
    every section checked by :func:`_check_section`, and its text, which the
    manifest hashes."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    except ValueError as exc:  # also integers beyond Python's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, not {type(data).__name__}")
    _check_section(data, "config")
    return data, raw


def parse_protocol(data: dict) -> ProtocolConfig:
    protocol = _require(data, "protocol", "config")
    intensities = _require(protocol, "intensities", "protocol")
    probs = _require(protocol, "intensity_probs", "protocol")
    epsilons = _require(data, "epsilons", "config")
    budget = EpsilonBudget(**{eps: _require(epsilons, eps, "epsilons") for eps in EPSILONS})
    config = ProtocolConfig(
        N=_require(protocol, "N", "protocol"),
        intensity_set=IntensitySet(
            **{mu: _require(intensities, mu, "protocol.intensities") for mu in INTENSITIES},
            **{f"p_{mu}": _require(probs, mu, "protocol.intensity_probs") for mu in INTENSITIES},
        ),
        p_keep=_require(protocol, "p_keep", "protocol"),
        epsilon_budget=budget,
    )
    require(config.problems)
    return config


def parse_f_ec(data: dict) -> float:
    """``channel.f_EC``, passed to the pipeline and the optimizer; a counts
    file is certified without the rest of the channel section."""
    f_ec = data.get("channel", {}).get("f_EC", DEFAULT_F_EC)
    require(validate_f_ec(f_ec))
    return f_ec


def parse_channel(data: dict) -> ChannelModel:
    from .simulator import ChannelModel, validate_channel
    section = _require(data, "channel", "config")
    _require(section, "distance_km", "channel")
    channel = ChannelModel(**{key: value for key, value in section.items() if key != "f_EC"})
    require(validate_channel(channel))
    return channel


def parse_correlations(data: dict, config: ProtocolConfig) -> CorrelationModel | None:
    """The correlation model; without ``l_c_eff`` the pipeline derives the
    length from d (``correlations.effective_length``)."""
    section = data.get("correlations")
    if section is None:
        return None
    for key in ("delta_1", "decay_C"):
        _require(section, key, "correlations")
    model = CorrelationModel(**section, truncation_d=config.epsilon_budget.d)
    require(validate_correlation(model))
    return model


# --- counts CSV -------------------------------------------------------------


@contextmanager
def _claimed_outputs(args):
    """Each output file of ``args`` swapped for a new empty temporary beside
    the file it names, which replaces that file only once the block has run.
    On any failure the temporaries are removed. A path that is this process's
    stdout, such as /dev/stdout, is swapped for ``sys.stdout`` and written
    through it, so a redirected file is appended to or replaced as the shell
    opened it; a path that names another device or a pipe is written in
    place. Two outputs that name one other file are refused, since one would
    replace the other."""
    claims = {}  # target -> (option, temporary)
    try:
        for name in OUTPUT_ARGS:
            path = getattr(args, name, None)
            with suppress(OSError):  # no such file, or no stdout
                if path and os.path.samestat(os.stat(path), os.fstat(1)):
                    setattr(args, name, sys.stdout)
                    continue
            if not path or (os.path.exists(path)
                            and not (os.path.isfile(path) or os.path.isdir(path))):
                continue
            target = os.path.realpath(path)  # a symlink keeps pointing at it
            option = "--" + name.replace("_", "-")
            if target in claims:
                raise ConfigError(f"{claims[target][0]} and {option} name the same file {path}")
            head, tail = os.path.split(target)
            temp = os.path.join(head, f".{tail}.{os.getpid()}-{len(claims)}.tmp")
            try:
                if os.path.exists(path):
                    open(path, "a").close()  # refuses a directory or a read-only file
                open(temp, "x").close()  # 0666 less the umask, as a plain open gives
            except OSError as exc:  # name the path given, not the temporary
                raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from exc
            claims[target] = option, temp
            setattr(args, name, temp)
        yield
        for target, (_, temp) in claims.items():
            os.replace(temp, target)
    finally:
        for _, temp in claims.values():
            with suppress(FileNotFoundError):
                os.remove(temp)


def _opened(path):
    """``path`` opened for writing, or ``sys.stdout`` as it is, left open,
    where the output claim found ``path`` to be stdout."""
    return nullcontext(path) if path is sys.stdout else open(path, "w", newline="")


@contextmanager
def _csv_output(path, manifest: dict, header: list[str]):
    """A CSV writer on ``path``, after the manifest line and ``header``."""
    with _opened(path) as handle:
        handle.write(MANIFEST_PREFIX + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        yield writer


def write_counts_csv(path: str, observed: ObservedCounts, manifest: dict) -> None:
    with _csv_output(path, manifest, COUNTS_HEADER) as writer:
        for category in COUNT_CATEGORIES:
            for basis in BASES:
                triple = getattr(observed, COUNT_FIELDS[(category, basis)])
                for label, value in zip(INTENSITIES, triple):
                    writer.writerow([category, basis, label, value])
        writer.writerow([*SIFTED_TOTAL, observed.n_sifted_det])


def _counts_rows(path: str, handle):
    """The CSV rows of the counts file's non-comment lines; a byte that is not
    UTF-8 or a malformed field is the file's ConfigError."""
    try:
        yield from csv.reader(line for line in handle if not line.startswith("#"))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from exc


def read_counts_csv(path: str) -> ObservedCounts:
    """The UTF-8 counts file as ObservedCounts; every cell of ``COUNT_CELLS``
    exactly once, and no other row."""
    cells: dict[tuple[str, str, str], int] = {}
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from exc
    with handle:
        rows = _counts_rows(path, handle)
        header = next(rows, None)
        if header != COUNTS_HEADER:
            raise ConfigError(f"unexpected counts CSV header in {path}: {header}")
        for row in rows:
            if not row:
                continue
            if len(row) != 4:
                raise ConfigError(f"counts file {path}: row {row} needs 4 fields")
            category, basis, intensity, text = row
            cell = (category, basis, intensity)
            if not text.isdecimal():
                raise ConfigError(f"counts file {path}: {text!r} is not a nonnegative whole count")
            if cell not in COUNT_CELLS:
                raise ConfigError(f"counts file {path}: unknown cell {cell}")
            if cell in cells:
                raise ConfigError(f"counts file {path}: cell {cell} appears twice")
            try:
                cells[cell] = int(text)
            except ValueError as exc:  # beyond Python's integer digit limit
                raise ConfigError(f"counts file {path}: cell {cell}: {exc}") from exc
    try:
        return ObservedCounts(
            **{
                name: CountTriple(*(cells[(category, basis, mu)] for mu in INTENSITIES))
                for (category, basis), name in COUNT_FIELDS.items()
            },
            n_sifted_det=cells[SIFTED_TOTAL],
        )
    except KeyError as exc:
        raise ConfigError(f"counts file {path} is missing cell {exc}") from exc


def write_truth_csv(path: str, truth: GroundTruth, manifest: dict) -> None:
    header = ["category", "basis", "intensity", "photon_number", "count"]
    with _csv_output(path, manifest, header) as writer:
        for (category, basis), name in COUNT_FIELDS.items():
            for label, *by_bucket in zip(INTENSITIES, *getattr(truth, name)):
                for bucket, value in enumerate(by_bucket):
                    writer.writerow([category, basis, label, bucket, value])
        writer.writerow(["trash_minus", "", "", 1, truth.trash_minus_single])


# --- subcommands ------------------------------------------------------------


def _write_json(path, payload: dict) -> None:
    """``payload`` as JSON on ``path``, or on stdout where there is none."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity: main exits 2, writing nothing
        raise ConfigError(f"the output holds a non-finite number ({exc})") from exc
    with _opened(path or sys.stdout) as handle:
        handle.write(text + "\n")


def cmd_keyrate(args) -> int:
    data, text = load_config(args.config)
    config = parse_protocol(data)
    model = parse_correlations(data, config)
    manifest = make_manifest(text, None)
    f_ec = parse_f_ec(data)
    observed = read_counts_csv(args.counts)
    result = evaluate_pipeline(observed, config, model, f_EC=f_ec)
    # by name: the audit is built on read, so dataclasses.asdict does not see it
    names = ("key_length", "eps_sec", "e_ph_upper", "z_det_lower", "lambda_EC", "audit")
    payload = {"manifest": manifest,
               "result": {**{name: getattr(result, name) for name in names},
                          "zero_key": result.key_length == 0}}
    _write_json(args.out, payload)
    return 0


def cmd_simulate(args) -> int:
    from .simulator import expected_counts, sample_counts
    data, text = load_config(args.config)
    config = parse_protocol(data)
    channel = parse_channel(data)
    sampled = args.mode == "sampled"
    if sampled and args.seed is None:
        raise ConfigError("sampled simulation requires --seed")
    manifest = make_manifest(text, args.seed if sampled else None)
    observed, truth = (sample_counts(config, channel, args.seed) if sampled
                       else expected_counts(config, channel))
    write_counts_csv(args.counts_out, observed, manifest)
    if args.truth_out:
        write_truth_csv(args.truth_out, truth, manifest)
    return 0


def _distance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"distance must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"distance must be finite, got {text!r}")
    return value


def parse_distances(spec: str) -> list[float]:
    """Either a comma list "0,10,25" or an inclusive range "start:stop:step"
    of at most MAX_DISTANCES values; every part a finite number, and at
    least one distance."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (_distance(p) for p in parts)
        if step <= 0:
            raise ConfigError("distance step must be positive")
        # start + i step for i up to span, by index: adding the step cannot
        # advance a float whose spacing exceeds twice the step, so a running
        # sum may never pass stop
        span = (stop + 1e-9 - start) / step
        if span >= MAX_DISTANCES:
            raise ConfigError(f"a distance range may hold at most {MAX_DISTANCES} values")
        count = math.floor(span) + 1 if span >= 0 else 0
        values = [round(start + i * step, 9) for i in range(count)]
    else:
        values = [_distance(p) for p in spec.split(",") if p]
    if not values:
        raise ConfigError(f"no distances in {spec!r}")
    return values


def _search_inputs(args) -> tuple[OptimizationSpec, ChannelModel, dict]:
    """The search spec, channel and manifest of ``optimize`` and ``scan``: the
    spec splits the eps_PE that ``keyrate.pe_budget`` finds the config to
    spend, so a search certifies at the eps_sec that ``keyrate`` reports and
    refuses the budgets it refuses; it takes the default budget and holds the
    protocol's ``v``, ``eps_PA`` and ``eps_EV`` fixed."""
    from .optimizer import OptimizationSpec
    data, text = load_config(args.config)
    config = parse_protocol(data)
    channel = parse_channel(data)
    model = parse_correlations(data, config)
    epsilons = config.epsilon_budget
    spec = OptimizationSpec(
        N=config.N, v=float(config.intensity_set.v), eps_pe_target=pe_budget(config, model)[2],
        eps_PA=epsilons.eps_PA, eps_EV=epsilons.eps_EV, correlation=model, f_EC=parse_f_ec(data),
    )
    return spec, channel, make_manifest(text, None)


def cmd_scan(args) -> int:
    from .optimizer import scan_distance
    from .simulator import validate_channel
    spec, channel, manifest = _search_inputs(args)
    distances = parse_distances(args.distances)
    for distance in distances:
        require(validate_channel(dataclasses.replace(channel, distance_km=distance)))
    rows = scan_distance(spec, channel, distances)
    columns = ["distance_km", "key_length", "eps_sec", "evaluations"] + sorted(
        key for key in rows[0] if key.startswith("param_"))
    with _csv_output(args.out, manifest, columns) as writer:
        for row in rows:
            writer.writerow([_fmt(row[col]) if isinstance(row[col], float) else row[col]
                             for col in columns])
    return 0


def cmd_optimize(args) -> int:
    from .optimizer import optimize_params
    spec, channel, manifest = _search_inputs(args)
    outcome = optimize_params(spec, channel)
    payload = {
        "manifest": manifest,
        "result": {
            "params": outcome.params,
            "key_length": outcome.key_length,
            "eps_sec": outcome.result.eps_sec,
            "evaluations": outcome.evaluations,
            "zero_key_everywhere": outcome.zero_key_everywhere,
        },
    }
    _write_json(args.out, payload)
    return 0


def cmd_validate(args) -> int:
    from .validation import run_validation
    manifest = make_manifest("validate:full", args.seed)
    checks = run_validation(seed=args.seed)
    for check in checks:
        stats = json.dumps(check.stats, sort_keys=True)
        print("PASS" if check.passed else "FAIL", check.name, stats)
    if args.out:
        checks_out = [dataclasses.asdict(check) for check in checks]
        _write_json(args.out, {"manifest": manifest, "checks": checks_out})
    return 0 if all(check.passed for check in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrbb84",
        description="Finite-key security engine for decoy-state BB84 with "
        "correlated bit-and-basis encoders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keyrate = sub.add_parser("keyrate", help="certified key length from counts")
    keyrate.add_argument("--config", required=True)
    keyrate.add_argument("--counts", required=True, help="observed-counts CSV")
    keyrate.add_argument("--out", help="result JSON path (default: stdout)")
    keyrate.set_defaults(func=cmd_keyrate)

    simulate = sub.add_parser("simulate", help="write counts and ground-truth CSVs")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--mode", choices=["expected", "sampled"], default="sampled")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--counts-out", required=True)
    simulate.add_argument("--truth-out")
    simulate.set_defaults(func=cmd_simulate)

    scan = sub.add_parser("scan", help="optimized key length vs distance CSV")
    scan.add_argument("--config", required=True)
    scan.add_argument("--distances", required=True, help='"0:100:10" or "0,10,25"')
    scan.add_argument("--out", required=True)
    scan.set_defaults(func=cmd_scan)

    optimize = sub.add_parser("optimize", help="optimize protocol parameters")
    optimize.add_argument("--config", required=True)
    optimize.add_argument("--out", help="result JSON path (default: stdout)")
    optimize.set_defaults(func=cmd_optimize)

    validate = sub.add_parser("validate", help="run the oracle suites")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--out", help="report JSON path")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = getattr(args, "seed", None)  # keyrate, optimize and scan take none
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {seed}")
        with _claimed_outputs(args):
            status = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so
        # the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # an output file or stdout that cannot be written
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself, which would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
