"""Command-line driver: CSV ingestion, experiment orchestration, and
machine-readable outputs.

Every subcommand reads an optional JSON config, an explicit integer seed
where randomness is involved (there is no wall-clock seeding), and an
output path. Each command's config keys are the fields of one frozen
dataclass, read by `read_config` through `take_fields`, with the fields of
a nested dataclass (such as `SurgeHypothesis`) at top level: `test` reads
`SurgeTestConfig`, `combine` `CombineConfig`, `power-curve`
`PowerCurveConfig`, `semisynth` `SemisynthRunConfig` and `federation`
`FederationRunConfig` (which nest `SemisynthConfig` and `FederationConfig`),
and `evaluate` `EvaluateConfig`. A key's JSON type and default are those of
its field; a command with `--seed` also reads the key "seed", which
`--seed` overrides.

Outputs are byte-deterministic for identical config and seed: floats are
rendered with repr (shortest round-trip form), JSON keys are sorted, and
line endings are always "\\n".

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import gc
import io
import json
import math
import sys
import typing
from pathlib import Path
from typing import Optional, Sequence

from . import combine
from .errors import (
    ConfigError,
    DomainError,
    FedsurvError,
    check_int_fields,
    checked_float,
    checked_int,
    checked_ints,
)
from .evaluation import AlarmSeries, MatchWindow, f1, pr_curve
from .experiments import (
    DEFAULT_THRESHOLDS,
    PowerCurveConfig,
    SemisynthConfig,
    builtin_wave_counts,
    run_power_curve,
    run_semisynth_sweep,
)
from .federation import FederationConfig, run_federation
from .semisynth import _PERIOD_DAYS, CountSeries, ShareVector, _check_aligned, _checked_seed
from .semisynth import split_multinomial
from .surge import SurgeHypothesis, SurgeWindow, exact_p_value

__all__ = ["main", "read_counts_csv"]

CSV_COLUMNS = ("site_id", "date", "count")


# ------------------------------------------------------------- ingestion


def _csv_rows(path: Path, columns: Sequence[str], only_these: bool):
    """Yield ``(line, row)`` for each data row of a CSV file, the row as a
    dict keyed by the header. The header must name every one of `columns`,
    each name once, and with `only_these` no other column. Every row must
    have exactly the header's cells; blank lines are skipped."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        for fault, names in (
            ("missing", [c for c in columns if c not in header]),
            ("repeated", sorted({c for c in header if header.count(c) > 1})),
            ("unknown", [c for c in header if only_these and c not in columns]),
        ):
            if names:
                raise ConfigError(f"{path}: {fault} column {', '.join(map(repr, names))}")
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise ConfigError(
                    f"{path}: line {reader.line_num}: {len(cells)} cells "
                    f"where the header has {len(header)}"
                )
            yield reader.line_num, dict(zip(header, cells))


def _cell(path: Path, line: int, row: dict, column: str, parse):
    """One cell of a row, converted by `parse`; a ValueError names the line."""
    try:
        return parse(row[column])
    except ValueError as exc:
        raise ConfigError(f"{path}: line {line}: bad {column}: {exc}") from exc


def read_counts_csv(path: Path | str) -> list[CountSeries]:
    """Parse a site_id,date,count CSV into one series per site.

    Dates are ISO-8601; cadence (daily or weekly) is inferred from the
    spacing and validated for every site. Rows may arrive in any order.
    Errors carry the offending line number.
    """
    path = Path(path)
    rows: dict[str, list[tuple[datetime.date, int]]] = {}
    for line, row in _csv_rows(path, CSV_COLUMNS, True):
        if row["site_id"] == "":
            raise ConfigError(f"{path}: line {line}: empty site_id")
        date = _cell(path, line, row, "date", datetime.date.fromisoformat)
        count = _cell(path, line, row, "count", int)
        if count < 0:
            raise ConfigError(f"{path}: line {line}: count must be nonnegative")
        rows.setdefault(row["site_id"], []).append((date, count))
    if not rows:
        raise ConfigError(f"{path}: no data rows")

    cadences = {days: name for name, days in _PERIOD_DAYS.items()}
    series = []
    for site in sorted(rows):
        entries = sorted(rows[site])
        if len(entries) < 2:
            raise ConfigError(
                f"{path}: site {site!r} has a single row; cadence cannot be inferred"
            )
        gap = (entries[1][0] - entries[0][0]).days
        if gap not in cadences:
            raise ConfigError(
                f"{path}: site {site!r} rows are {gap} days apart; "
                f"expected {' or '.join(_PERIOD_DAYS)}"
            )
        dates, counts = zip(*entries)
        try:
            series.append(CountSeries(site, cadences[gap], dates, counts))
        except DomainError as exc:
            raise ConfigError(f"{path}: site {site!r}: {exc}") from exc
    return series


def _read_column(path: Path, column: str, parse) -> list:
    """One column of a CSV file, converted by `parse`, in row order. A
    `period` column beside it numbers the rows: it must read 0, 1, 2, ...,
    so that the values line up with the periods they are scored against.
    A `period` column read for its own values lists each period once."""
    values = []
    first_line = {}
    for line, row in _csv_rows(path, (column,), False):
        if column != "period" and "period" in row:
            if _cell(path, line, row, "period", int) != len(values):
                raise ConfigError(
                    f"{path}: line {line}: period {row['period']!r} is not "
                    f"the row's position {len(values)}"
                )
        value = _cell(path, line, row, column, parse)
        if column == "period" and first_line.setdefault(value, line) != line:
            raise ConfigError(
                f"{path}: line {line}: period {value} repeats line {first_line[value]}"
            )
        values.append(value)
    return values


def _pooled(series: Sequence[CountSeries]) -> CountSeries:
    _check_aligned(series)
    counts = tuple(map(sum, zip(*(s.counts for s in series))))
    return CountSeries("pooled", series[0].period, series[0].timestamps, counts)


# --------------------------------------------------------------- config


def _field_value(raw, kind, what: str, base: Path):
    """The JSON value `raw` as a field of type `kind`, or a ConfigError
    naming `what`: a ``tuple[X, ...]`` is a list of X and a ``tuple[X, X]``
    a list of two; an int is an integer by the package's integer rule
    (``errors.checked_int``) and a float a finite number by its real-number
    rule (``errors.checked_float``), never bool; a str is a JSON string, and
    a `Path` one naming an existing file, relative to `base`."""
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        length = None if args[-1] is Ellipsis else len(args)
        if not isinstance(raw, list) or length not in (None, len(raw)):
            size = "a list" if length is None else f"a list of {length}"
            raise ConfigError(f"{what} must be {size}, got {raw!r}")
        return tuple(_field_value(v, args[0], f"{what} entry", base) for v in raw)
    if kind in (int, float):
        return (checked_int if kind is int else checked_float)(raw, what, error=ConfigError)
    if not isinstance(raw, str):
        raise ConfigError(f"{what} must be a string, got {raw!r}")
    if kind is Path:
        path = base / raw  # an absolute path stays as it is
        if not path.exists():
            raise ConfigError(f"{what}: file {raw!r} does not exist")
        return path
    return raw


def take_fields(data: dict, cls, base: Path):
    """An instance of the config dataclass `cls`, each field popped from
    `data` by its name. A nested config dataclass is read from its own
    fields, which stay top-level keys; an ``Optional`` one is read only when
    one of its keys, or of the keys the field's ``given_by`` metadata
    lists, is present, and is None otherwise. Any other field is read by
    ``_field_value``, and JSON null in an ``Optional`` field reads as not
    given. An absent key leaves the field's default; a field without one
    is required."""
    hints = typing.get_type_hints(cls)
    values = {}
    for field in dataclasses.fields(cls):
        kind = hints[field.name]
        optional = type(None) in typing.get_args(kind)
        kind = typing.get_args(kind)[0] if optional else kind  # Optional[X] is Union[X, None]
        if dataclasses.is_dataclass(kind):
            given = field.metadata.get("given_by", [f.name for f in dataclasses.fields(kind)])
            if not optional or any(key in data for key in given):
                values[field.name] = take_fields(data, kind, base)
        elif field.name in data:
            raw = data.pop(field.name)
            if raw is not None or not optional:
                values[field.name] = _field_value(raw, kind, f"config field {field.name!r}", base)
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"config field {field.name!r} is required")
    return cls(**values)


_NO_SEED = object()  # a seed that neither --seed nor the config's "seed" gives


def read_config(args, cls):
    """The config dataclass `cls` of a command, read by ``take_fields`` from
    the JSON file `args.config` (without one, every field's default), and
    the command's seed: ``--seed``, else the config's "seed" key as given,
    where the command takes ``--seed``; else `_NO_SEED`. A key that is left
    over, as a typo would be, raises ConfigError."""
    data, base = {}, Path.cwd()
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except ValueError as exc:  # also an integer literal past Python's digit limit
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        base = path.parent
    seed = _NO_SEED
    if "seed" in vars(args):
        config_seed = data.pop("seed", _NO_SEED)
        seed = config_seed if args.seed is None else args.seed
    config = take_fields(data, cls, base)
    if data:
        raise ConfigError(f"unknown config field {', '.join(repr(k) for k in sorted(data))}")
    return config, seed


def _required_seed(seed) -> int:
    if seed is _NO_SEED or seed is None:
        raise ConfigError("a seed is required: pass --seed or set \"seed\" in the config")
    return _checked_seed(seed)


@dataclasses.dataclass(frozen=True)
class SurgeTestConfig:
    """`test`: the surge test at period `at` of the counts in `csv`, pooled
    across sites or of one `site`."""

    csv: Path
    at: int
    hypothesis: SurgeHypothesis = SurgeHypothesis()
    site: Optional[str] = None

    def __post_init__(self) -> None:
        check_int_fields(self, ConfigError, at=0)


@dataclasses.dataclass(frozen=True)
class CombineConfig:
    """`combine`: one method over `p_values`. `rho` is given, or comes from
    the hypothesis when `theta` or `baseline_len` is (`alpha` is read only
    beside them), never both."""

    method: str
    p_values: tuple[float, ...]
    shares: Optional[tuple[float, ...]] = None
    total_count: Optional[int] = None
    rho: Optional[float] = None
    hypothesis: Optional[SurgeHypothesis] = dataclasses.field(
        default=None, metadata={"given_by": ("theta", "baseline_len")}
    )

    def __post_init__(self) -> None:
        if self.rho is not None and self.hypothesis is not None:
            raise ConfigError("rho and theta, baseline_len or alpha exclude each other")


@dataclasses.dataclass(frozen=True)
class SemisynthRunConfig:
    """`semisynth`: the sweep over the pooled counts of `csv`, or without
    one over the built-in fixture."""

    csv: Optional[Path] = None
    sweep: SemisynthConfig = SemisynthConfig()


@dataclasses.dataclass(frozen=True)
class FederationRunConfig:
    """`federation`: the protocol over the sites of `csv`, or without one
    over the built-in fixture split into `n_sites` sites (5 by default) by
    `shares` (equal by default; given alone, they set `n_sites`)."""

    csv: Optional[Path] = None
    protocol: FederationConfig = FederationConfig()
    n_sites: Optional[int] = None
    shares: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.csv is not None and (self.n_sites is not None or self.shares is not None):
            raise ConfigError("n_sites and shares apply only when no csv is given")
        if self.shares is not None and self.n_sites not in (None, len(self.shares)):
            raise ConfigError("shares length must equal n_sites")


@dataclasses.dataclass(frozen=True)
class EvaluateConfig:
    """`evaluate`: the p-values of `scores` against the truth alarms of
    `truth`, matched within `match_window` (by default the `cadence`'s)."""

    scores: Path
    truth: Path
    cadence: str = "weekly"
    match_window: Optional[tuple[int, int]] = None
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        if self.match_window is not None:
            checked_ints(self.match_window, "match_window", 0, error=ConfigError)


# --------------------------------------------------------------- output


def _fmt(x) -> str:
    return repr(float(x))


def _write_text(out: Optional[str | Path], *pieces: str) -> None:
    """Write the pieces, in order, to the file `out`, or without one to stdout."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with Path(out).open("w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class _FloatTexts(dict):
    """Each float's JSON text, ``float.__repr__``, rendered once per
    distinct value; NaN and the infinities raise ValueError, as
    ``json.dumps(..., allow_nan=False)`` does. Zeros are not kept, since
    0.0 and -0.0 are one key."""

    def __missing__(self, x: float) -> str:
        if x != x or x in (math.inf, -math.inf):
            raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
        text = float.__repr__(x)
        if x:
            self[x] = text
        return text


# The federation report is ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``
# plus a newline: its periods, the bulk of it, laid out by these templates at their depth
# in place of the empty list in one json.dumps of the rest of the document.
_PERIODS_KEY = '\n  "periods": ['
_PERIOD_JSON = (
    '%s\n    {\n      "alarm": %s,\n      "date": "%s",\n      "p": %s,'
    '\n      "period": %d,\n      "shares": %s\n    }'
)
_SHARES_JSON = "[\n        %s\n      ]"
_SHARE_SEP = ",\n        "


# -------------------------------------------------------------- commands


def cmd_test(args) -> int:
    cfg, _ = read_config(args, SurgeTestConfig)
    series = read_counts_csv(cfg.csv)
    if cfg.site is None:
        chosen = _pooled(series)
    else:
        chosen = next((s for s in series if s.site_id == cfg.site), None)
        if chosen is None:
            available = [s.site_id for s in series]
            raise ConfigError(f"site {cfg.site!r} not found; available: {available}")

    at, l = cfg.at, cfg.hypothesis.baseline_len
    if at < l or at >= len(chosen.counts):
        raise ConfigError(
            f"period {at} lacks {l} history periods inside a series of "
            f"length {len(chosen.counts)}"
        )
    window = SurgeWindow(chosen.counts[at - l : at], chosen.counts[at])
    p = exact_p_value(window, cfg.hypothesis)
    row = (str(at), str(window.baseline_total), str(window.total), _fmt(p))
    _write_text(args.out, _csv_text(("period", "c", "n", "p"), [row]))
    return 0


def cmd_combine(args) -> int:
    cfg, _ = read_config(args, CombineConfig)
    rho = cfg.rho if cfg.hypothesis is None else cfg.hypothesis.rho
    ev = combine.EvidenceSet(cfg.p_values, cfg.shares, cfg.total_count, rho)
    result = combine.combine_by_id(cfg.method, ev)
    row = (result.method, _fmt(result.statistic), _fmt(result.p))
    _write_text(args.out, _csv_text(("method", "statistic", "p"), [row]))
    return 0


def cmd_power_curve(args) -> int:
    pc, seed = read_config(args, PowerCurveConfig)
    result = run_power_curve(pc, _required_seed(seed))
    rows = [(_fmt(pt.theta_alt), pt.method, _fmt(pt.power)) for pt in result.points]
    _write_text(args.out, _csv_text(("theta_alt", "method", "power"), rows))
    return 0


def cmd_semisynth(args) -> int:
    cfg, seed = read_config(args, SemisynthRunConfig)
    counts = None if cfg.csv is None else _pooled(read_counts_csv(cfg.csv))
    result = run_semisynth_sweep(cfg.sweep, _required_seed(seed), counts=counts)
    rows = [
        (r.sweep, r.setting, _fmt(r.entropy), r.method, _fmt(r.recall_at_fdr), _fmt(r.f1))
        for r in result.rows
    ]
    header = ("sweep", "setting", "entropy", "method", "recall_at_fdr", "f1")
    _write_text(args.out, _csv_text(header, rows))
    return 0


def cmd_federation(args) -> int:
    cfg, seed = read_config(args, FederationRunConfig)
    if cfg.csv is not None:
        if seed is not _NO_SEED:
            raise ConfigError("seed applies only when no csv is given")
        sites, seed = read_counts_csv(cfg.csv), None
    else:  # no input data: split the built-in fixture into synthetic sites
        n_sites = 5 if cfg.n_sites is None else cfg.n_sites
        shares = ShareVector.equal(n_sites) if cfg.shares is None else ShareVector(cfg.shares)
        seed = _required_seed(seed)
        sites = split_multinomial(builtin_wave_counts(), shares, seed)

    fed_cfg = cfg.protocol
    combined = run_federation(sites, fed_cfg)
    timeline = sites[0].timestamps
    alpha = fed_cfg.hypothesis.alpha
    # every period is rendered before the output is opened, so that a
    # value JSON cannot hold leaves no file
    texts = _FloatTexts()
    periods, alarm_rows = [], []
    for cp in combined:
        date, p, alarm = timeline[cp.period_index].isoformat(), texts[cp.p], cp.p < alpha
        if alarm:
            alarm_rows.append((str(cp.period_index), date, p))
        shares = "null"
        if cp.shares is not None:
            shares = _SHARES_JSON % _SHARE_SEP.join(map(texts.__getitem__, cp.shares))
        comma = "," if periods else ""
        entry = (comma, "true" if alarm else "false", date, p, cp.period_index, shares)
        periods.append(_PERIOD_JSON % entry)
    config = dataclasses.asdict(fed_cfg)
    config.update(config.pop("hypothesis"), seed=seed)
    rest = {
        "config": config,
        "sites": sorted(s.site_id for s in sites),
        "periods": [],
        "summary": {"n_periods": len(periods), "n_alarms": len(alarm_rows)},
    }
    head, _, tail = json.dumps(rest, sort_keys=True, indent=2, allow_nan=False).partition(
        _PERIODS_KEY + "]"
    )
    tail = ("\n  ]" if periods else "]") + tail + "\n"
    _write_text(args.out, head, _PERIODS_KEY, *periods, tail)
    if args.out is not None:  # on stdout the report alone, whose periods carry `alarm`
        alarms_out = Path(args.out).with_suffix(".alarms.csv")
        _write_text(alarms_out, _csv_text(("period", "date", "p"), alarm_rows))
    return 0


def cmd_evaluate(args) -> int:
    cfg, _ = read_config(args, EvaluateConfig)
    # the cadence is checked even where an explicit window overrides its default
    window = MatchWindow.default_for(cfg.cadence)
    window = window if cfg.match_window is None else MatchWindow(*cfg.match_window)
    # a probability, unnamed: the cell's error names its column
    pvalues = _read_column(cfg.scores, "p", lambda text: checked_float(float(text), "", 0.0, 1.0))
    if not pvalues:
        raise ConfigError(f"{cfg.scores}: no data rows")
    truth = AlarmSeries.of(_read_column(cfg.truth, "period", int))
    precision, recall = pr_curve(pvalues, truth, window, cfg.thresholds)
    rows = [
        tuple(map(_fmt, row))
        for row in zip(sorted(cfg.thresholds), precision, recall, f1(precision, recall))
    ]
    _write_text(args.out, _csv_text(("threshold", "precision", "recall", "f1"), rows))
    return 0


# ------------------------------------------------------------ entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsurv",
        description="Federated epidemic surveillance experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, seeded):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="JSON", help="JSON config file")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        if seeded:
            p.add_argument("--seed", type=int, metavar="U64", help="RNG seed")
        p.set_defaults(func=func)

    add("test", cmd_test, "exact surge test on one CSV window", seeded=False)
    add("combine", cmd_combine, "combine per-site p-values", seeded=False)
    add("power-curve", cmd_power_curve, "calibrated Monte Carlo power curves", seeded=True)
    add("semisynth", cmd_semisynth, "semi-synthetic detection sweep", seeded=True)
    add("federation", cmd_federation, "federated protocol run", seeded=True)
    add("evaluate", cmd_evaluate, "precision/recall against truth alarms", seeded=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The command's collections scan only what it allocates, not the
    # objects start-up left; a caller that froze objects itself keeps them.
    freezing = gc.get_freeze_count() == 0
    if freezing:
        gc.freeze()
    try:
        return args.func(args)
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        print(f"fedsurv: error: {exc}", file=sys.stderr)
        return 2
    except (FedsurvError, OSError, MemoryError) as exc:  # MemoryError: a valid size too large
        print(f"fedsurv: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    finally:
        if freezing:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
