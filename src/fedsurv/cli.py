"""Command-line driver: CSV ingestion, experiment orchestration, and
machine-readable outputs.

Every subcommand reads an optional JSON config, an explicit integer seed
where randomness is involved (there is no wall-clock seeding), and an
output path. The config keys of `power-curve`, `semisynth` and
`federation` are the fields of `PowerCurveConfig`, `SemisynthConfig` and
`FederationConfig` (with the `SurgeHypothesis` fields at top level), read
by `ExperimentConfig.take_fields`; each key's JSON type and default are
those of its field.

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
import io
import json
import math
import sys
import typing
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

from . import combine
from .errors import ConfigError, DomainError, FedsurvError, checked_float, checked_int
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


# ------------------------------------------------------------ config bag


_REQUIRED = object()


def _as_kind(value, kind, what: str):
    """`value` as `kind`, or a ConfigError naming `what`: a JSON string for
    str; a finite number by the package's real-number rule
    (``errors.checked_float``, never bool) for float; an integer by its
    integer rule (``errors.checked_int``) for int."""
    if kind in (int, float):
        return (checked_int if kind is int else checked_float)(value, what, error=ConfigError)
    if isinstance(value, str):
        return value
    raise ConfigError(f"{what} must be a string, got {value!r}")


class _JsonConstant:
    """A NaN, Infinity or -Infinity literal, which JSON does not define and
    Python's parser accepts. It is of no kind, so the field holding it is
    rejected by name."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


class ExperimentConfig:
    """JSON-backed field bag. Commands take what they need; leftover keys
    are treated as configuration errors so typos cannot pass silently."""

    def __init__(self, data: dict, base_dir: Path):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        self._data = dict(data)
        self._base = base_dir

    @staticmethod
    def load(path: Optional[str]) -> "ExperimentConfig":
        if path is None:
            return ExperimentConfig({}, Path.cwd())
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text, parse_constant=_JsonConstant)
        except ValueError as exc:  # also an integer literal past Python's digit limit
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return ExperimentConfig(data, p.parent)

    def __contains__(self, key: str) -> bool:  # set and not yet taken
        return key in self._data

    def take(self, key: str, default=_REQUIRED):
        if key in self._data:
            return self._data.pop(key)
        if default is _REQUIRED:
            raise ConfigError(f"config field {key!r} is required")
        return default

    def take_scalar(self, key: str, default=_REQUIRED, kind=float):
        """A scalar field as `kind` (float, int or str). It must be a JSON
        number, integral when `kind` is int, or a JSON string for str; a
        default passes through unchecked."""
        raw = self.take(key, default)
        if raw is default:
            return default
        return _as_kind(raw, kind, f"config field {key!r}")

    def take_list(self, key: str, default=_REQUIRED, kind=float, length: Optional[int] = None):
        """A list-valued field as a tuple of `kind` (float, int or str), each
        element checked as ``take_scalar`` checks a scalar; a default passes
        through unchecked."""
        raw = self.take(key, default)
        if raw is default:
            return default
        if not isinstance(raw, list) or (length is not None and len(raw) != length):
            size = "a list" if length is None else f"a list of {length}"
            raise ConfigError(f"config field {key!r} must be {size}, got {raw!r}")
        return tuple(_as_kind(v, kind, f"config field {key!r} entry") for v in raw)

    def take_path(self, key: str, default=_REQUIRED) -> Optional[Path]:
        """A path field: a JSON string naming an existing file, relative to
        the config's directory. Only an optional field (default None) reads
        null as not given."""
        raw = self.take_scalar(key, default, str)
        if raw is None:
            return None
        p = Path(raw)
        if not p.is_absolute():
            p = self._base / p
        if not p.exists():
            raise ConfigError(f"config field {key!r}: file {raw!r} does not exist")
        return p

    def take_fields(self, cls):
        """An instance of the config dataclass `cls`, one key per field. A
        nested config dataclass is read from its own fields, which stay
        top-level keys; a ``tuple[X, ...]`` field is a list of X; any other
        field is a scalar of its annotated type. The field's own default
        applies when its key is absent."""
        hints = typing.get_type_hints(cls)
        values = {}
        for field in dataclasses.fields(cls):
            kind = hints[field.name]
            default = _REQUIRED if field.default is dataclasses.MISSING else field.default
            if dataclasses.is_dataclass(kind):
                values[field.name] = self.take_fields(kind)
            elif typing.get_origin(kind) is tuple:
                values[field.name] = self.take_list(field.name, default, typing.get_args(kind)[0])
            else:
                values[field.name] = self.take_scalar(field.name, default, kind)
        return cls(**values)

    def finish(self) -> None:
        if self._data:
            raise ConfigError(
                f"unknown config field {', '.join(repr(k) for k in sorted(self._data))}"
            )


def _resolve_seed(args, cfg: ExperimentConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.take("seed", None)
    if seed is None:
        raise ConfigError("a seed is required: pass --seed or set \"seed\" in the config")
    return _checked_seed(seed)


# --------------------------------------------------------------- output


_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def _fmt(x) -> str:
    return repr(float(x))


def _write_text(out: Optional[str | Path], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    byte for byte, without the pure-Python encoder that any ``indent``
    selects. Each distinct float is rendered once; zeros are not memoized,
    since 0.0 and -0.0 are one dict key. NaN and infinities raise
    ValueError and other types TypeError, as ``json.dumps`` does; the
    document must be a tree (there is no cycle check)."""
    floats: dict = {}
    out: list[str] = []

    def number(x) -> str:
        text = floats.get(x)
        if text is None:
            if x != x or x in (math.inf, -math.inf):
                raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
            text = float.__repr__(x)
            if x:
                floats[x] = text
        return text

    def key_text(key) -> str:
        if isinstance(key, str):
            return key
        if isinstance(key, float):
            return number(key)
        if key is True or key is False or key is None:
            return _JSON_LITERALS[key]
        if isinstance(key, int):
            return int.__repr__(key)
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")

    def write(value, indent: str) -> None:
        if isinstance(value, float):
            out.append(number(value))
        elif isinstance(value, str):
            out.append(encode_basestring_ascii(value))
        elif value is True or value is False or value is None:
            out.append(_JSON_LITERALS[value])
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, (list, tuple, dict)):
            if not value:
                out.append("{}" if isinstance(value, dict) else "[]")
                return
            inner = indent + "  "
            comma = "," + inner
            sep = inner
            if isinstance(value, dict):
                out.append("{")
                for key, item in sorted(value.items()):
                    out.append(sep)
                    out.append(encode_basestring_ascii(key_text(key)))
                    out.append(": ")
                    write(item, inner)
                    sep = comma
                out.append(indent + "}")
            else:
                out.append("[")
                for item in value:
                    out.append(sep)
                    write(item, inner)
                    sep = comma
                out.append(indent + "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(doc, "\n")
    out.append("\n")
    return "".join(out)


# -------------------------------------------------------------- commands


def cmd_test(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    csv_path = cfg.take_path("csv")
    hyp = cfg.take_fields(SurgeHypothesis)
    at = checked_int(cfg.take("at"), "config field 'at'", 0, error=ConfigError)
    site = cfg.take_scalar("site", None, str)
    cfg.finish()

    series = read_counts_csv(csv_path)
    if site is not None:
        matches = [s for s in series if s.site_id == site]
        if not matches:
            raise ConfigError(
                f"site {site!r} not found; available: {[s.site_id for s in series]}"
            )
        chosen = matches[0]
    else:
        chosen = _pooled(series)

    l = hyp.baseline_len
    if at < l or at >= len(chosen.counts):
        raise ConfigError(
            f"period {at} lacks {l} history periods inside a series of "
            f"length {len(chosen.counts)}"
        )
    window = SurgeWindow(chosen.counts[at - l : at], chosen.counts[at])
    p = exact_p_value(window, hyp)
    text = _csv_text(
        ("period", "c", "n", "p"),
        [(str(at), str(window.baseline_total), str(window.total), _fmt(p))],
    )
    _write_text(args.out, text)
    return 0


def cmd_combine(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    method = cfg.take_scalar("method", kind=str)
    p_values = cfg.take_list("p_values")
    shares = cfg.take_list("shares", None)
    total = cfg.take_scalar("total_count", None, int)
    rho = cfg.take_scalar("rho", None)
    if rho is None and ("theta" in cfg or "baseline_len" in cfg):
        rho = cfg.take_fields(SurgeHypothesis).rho
    cfg.finish()

    ev = combine.EvidenceSet(p_values, shares=shares, total_count=total, rho=rho)
    result = combine.combine_by_id(method, ev)
    text = _csv_text(
        ("method", "statistic", "p"),
        [(result.method, _fmt(result.statistic), _fmt(result.p))],
    )
    _write_text(args.out, text)
    return 0


def cmd_power_curve(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    seed = _resolve_seed(args, cfg)
    pc = cfg.take_fields(PowerCurveConfig)
    cfg.finish()
    result = run_power_curve(pc, seed)
    rows = [(_fmt(pt.theta_alt), pt.method, _fmt(pt.power)) for pt in result.points]
    rows.sort(key=lambda r: (r[1], float(r[0])))
    _write_text(args.out, _csv_text(("theta_alt", "method", "power"), rows))
    return 0


def cmd_semisynth(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    seed = _resolve_seed(args, cfg)
    csv_path = cfg.take_path("csv", None)
    sweep_cfg = cfg.take_fields(SemisynthConfig)
    cfg.finish()

    counts = None
    if csv_path is not None:
        counts = _pooled(read_counts_csv(csv_path))
    result = run_semisynth_sweep(sweep_cfg, seed, counts=counts)
    rows = [
        (r.sweep, r.setting, _fmt(r.entropy), r.method, _fmt(r.recall_at_fdr), _fmt(r.f1))
        for r in result.rows
    ]
    _write_text(
        args.out,
        _csv_text(("sweep", "setting", "entropy", "method", "recall_at_fdr", "f1"), rows),
    )
    return 0


def cmd_federation(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    csv_path = cfg.take_path("csv", None)
    fed_cfg = cfg.take_fields(FederationConfig)

    if csv_path is not None:
        if cfg.take("n_sites", None) is not None or cfg.take("shares", None) is not None:
            raise ConfigError("n_sites and shares apply only when no csv is given")
        cfg.finish()
        sites = read_counts_csv(csv_path)
        seed = None
    else:
        # no input data: split the built-in fixture into synthetic sites
        seed = _resolve_seed(args, cfg)
        n_sites = cfg.take_scalar("n_sites", None, int)
        shares_raw = cfg.take_list("shares", None)
        cfg.finish()
        if shares_raw is None:  # 5 equal sites by default
            shares = ShareVector.equal(5 if n_sites is None else n_sites)
        else:
            shares = ShareVector(shares_raw)
            if n_sites not in (None, shares.n_sites):
                raise ConfigError("shares length must equal n_sites")
        sites = split_multinomial(builtin_wave_counts(), shares, seed)

    combined = run_federation(sites, fed_cfg)
    timeline = sites[0].timestamps
    alpha = fed_cfg.hypothesis.alpha
    periods = [
        {
            **cp.to_json(),
            "date": timeline[cp.period_index].isoformat(),
            "alarm": bool(cp.p < alpha),
        }
        for cp in combined
    ]
    alarm_rows = [
        (str(e["period"]), e["date"], _fmt(e["p"])) for e in periods if e["alarm"]
    ]
    config = dataclasses.asdict(fed_cfg)
    config.update(config.pop("hypothesis"), seed=seed)
    doc = {
        "config": config,
        "sites": [s.site_id for s in sorted(sites, key=lambda s: s.site_id)],
        "periods": periods,
        "summary": {
            "n_periods": len(periods),
            "n_alarms": len(alarm_rows),
        },
    }
    _write_text(args.out, _json_text(doc))
    if args.out is not None:  # on stdout the report alone, whose periods carry `alarm`
        alarms_out = Path(args.out).with_suffix(".alarms.csv")
        _write_text(alarms_out, _csv_text(("period", "date", "p"), alarm_rows))
    return 0


def cmd_evaluate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    scores_path = cfg.take_path("scores")
    truth_path = cfg.take_path("truth")
    cadence = cfg.take_scalar("cadence", "weekly", str)
    window_raw = cfg.take_list("match_window", None, int, length=2)
    thresholds = cfg.take_list("thresholds", DEFAULT_THRESHOLDS)
    cfg.finish()

    # the cadence is checked even where an explicit window overrides its default
    default_window = MatchWindow.default_for(cadence)
    window = MatchWindow(*window_raw) if window_raw is not None else default_window
    # a probability, unnamed: the cell's error names its column
    pvalues = _read_column(scores_path, "p", lambda text: checked_float(float(text), "", 0.0, 1.0))
    if not pvalues:
        raise ConfigError(f"{scores_path}: no data rows")
    truth = AlarmSeries.of(_read_column(truth_path, "period", int))
    precision, recall = pr_curve(pvalues, truth, window, thresholds)
    rows = [
        tuple(map(_fmt, row))
        for row in zip(sorted(thresholds), precision, recall, f1(precision, recall))
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
    try:
        return args.func(args)
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        print(f"fedsurv: error: {exc}", file=sys.stderr)
        return 2
    except (FedsurvError, OSError, MemoryError) as exc:  # MemoryError: a valid size too large
        print(f"fedsurv: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
