"""Command-line front end and machine-readable verification reports.

Subcommands:

    verify    run lemma certifications (--lemma ID ... or --all)
    eval      print exact chart quantities at a rational point
    isolate   print the certified critical interval on the k=2 diagonal
    fixtures  check every shipped fixture against the pipeline
    report    run everything (all lemmas plus fixtures) and emit a report

Exact rationals cross this boundary as ``p/q`` strings only; decimal input is
rejected.  Exit code 0 means every non-NOTE item passed, 1 means some item
failed or mismatched, 2 means a usage or I/O error.  With ``--no-timing`` the
JSON report is byte-identical across runs of the same configuration.

``_report`` builds a report's payload once and ``emit_report`` renders it.
Each run setting is named once, in ``_ENV_CONFIG_TYPES``: a ``RunConfig``
field, a ``KCERT_CONFIG`` key and its flag's argparse dest (``--width``
sets ``isolation_width``).  Every command reads ``KCERT_CONFIG``, so a bad
file exits 2 from each.  ``--width`` reaches laudate's isolation and
``isolate``'s, ``--fixtures-dir`` the fixture comparisons and ``--format``
the rendering.
``--seed`` reaches no computation (no lemma's claim rests on a sample): it
is range-checked and echoed only, kept because the benchmark's cold-report
command passes it.  Any other flag or key is a usage error.

``main()`` is the console script.  After ``run()`` returns it flushes stdout
and calls ``gc.freeze()`` just before ``sys.exit``.  Freezing moves every
live object into the permanent generation, so the collections at interpreter
shutdown skip the roughly 14,000 objects a cold ``verify`` leaves, which
module teardown frees by reference count anyway; the exit of a cold
``verify`` is about 70% shorter (6.3 ms to 1.5 ms on a 2-CPU x86-64 host).
``run()`` never freezes, because tests and library callers call it in
process and their heap must stay collectable.  ``os._exit`` after a flush
would save a little more, but it skips ``atexit`` handlers and the flushing
of the other stdio buffers.  A report short enough to sit in stdout's buffer
is written only by that flush, so a failed write (a full disk, a closed pipe)
is reported there as ``i/o error: ...`` with exit 2, like a failed write
inside ``run()``, and stdout is pointed at ``os.devnull`` so that shutdown
does not try the write again.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .certify import (
    DEFAULT_ISOLATION_WIDTH,
    LEMMA_IDS,
    check_all_fixtures,
    run_lemma,
)
from .delpezzo import CHARTS
from .exprparse import FixtureError
from .functional import build_bundle, bundle_summary, quantity_text, restrict_diagonal
from .sampling import DEFAULT_SEED, check_seed
from .sturm import sturm_isolate


# string.whitespace, without importing ``string`` in every CLI process
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def _non_ascii(text: str) -> str:
    """Where the first non-ASCII character of ``text`` stands, or ""."""
    foreign = next((i for i, ch in enumerate(text) if not ch.isascii()), None)
    return "" if foreign is None else f" (non-ASCII {text[foreign]!r} at column {foreign + 1})"


def parse_rational(text: str) -> Fraction:
    """Exact ``p/q`` or integer in ASCII digits; decimals are rejected, never rounded."""
    stripped = text.strip(_ASCII_WHITESPACE)
    if re.fullmatch(r"-?[0-9]+", stripped):
        return Fraction(int(stripped))
    match = re.fullmatch(r"(-?[0-9]+)\s*/\s*([0-9]+)", stripped, re.ASCII)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 3/4 or 2, got {stripped!r}{_non_ascii(text)}"
        )
    if int(match.group(2)) == 0:
        raise argparse.ArgumentTypeError(f"zero denominator in {stripped!r}")
    return Fraction(int(match.group(1)), int(match.group(2)))


def parse_integer(text: str) -> int:
    """An integer in ASCII digits, as ``parse_rational`` reads them; ranges are
    checked by ``RunConfig``."""
    stripped = text.strip(_ASCII_WHITESPACE)
    if re.fullmatch(r"-?[0-9]+", stripped) is None:
        raise argparse.ArgumentTypeError(
            f"expected an integer like 42, got {stripped!r}{_non_ascii(text)}"
        )
    return int(stripped)


def parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))


# the run settings in the order the report echoes them, each with the JSON
# types KCERT_CONFIG may give it; true and false are not integers
_ENV_CONFIG_TYPES = {
    "isolation_width": (str, int),
    "format": (str,),
    "fixtures_dir": (str, type(None)),
    "seed": (int,),
}
_JSON_TYPE_NAMES = {int: "an integer", str: "a string", type(None): "null"}


class RunConfig:
    """The settings of one run, checked on construction."""

    __slots__ = ("tasks", *_ENV_CONFIG_TYPES, "include_timing")

    def __init__(
        self,
        tasks: list[str] | None = None,
        isolation_width: Fraction = DEFAULT_ISOLATION_WIDTH,
        format: str = "json",
        fixtures_dir: Path | str | None = None,
        seed: int = DEFAULT_SEED,
        include_timing: bool = True,
    ) -> None:
        if isolation_width <= 0:
            raise ValueError("isolation_width must be positive")
        check_seed(seed)
        if fixtures_dir is not None:
            if fixtures_dir == "":
                raise ValueError("fixtures_dir must name a directory")
            # one spelling per directory (DIR and DIR/ alike), so that every
            # fixture comparison of the run shares one cache entry
            fixtures_dir = Path(fixtures_dir)
        self.tasks = ["all"] if tasks is None else tasks
        self.isolation_width = isolation_width
        self.format = format
        self.fixtures_dir = fixtures_dir
        self.seed = seed
        self.include_timing = include_timing

    def as_dict(self) -> dict:
        """``tasks``, then each setting; the width and the directory as text."""
        out: dict = {"tasks": list(self.tasks)}
        for key in _ENV_CONFIG_TYPES:
            value = getattr(self, key)
            out[key] = str(value) if isinstance(value, (Fraction, Path)) else value
        return out


def _truncate_terms(text: str, limit: int = 40) -> str:
    parts = re.split(r"(?= [+-] )", text)
    if len(parts) <= limit:
        return text
    return "".join(parts[:limit]) + f" ...({len(parts) - limit} more terms)"


def _json_block(title: str, value: object) -> list[str]:
    """A markdown section holding ``value`` as JSON, long polynomials cut short."""
    text = json.dumps(value, indent=2)
    return ["", f"### {title}", "", "```", *map(_truncate_terms, text.splitlines()), "```"]


def emit_report(payload: dict, format: str) -> str:
    """The report ``payload`` of ``_report`` as indented JSON or as markdown.

    Markdown shows the lemmas' seconds column and the total seconds exactly
    when the payload carries ``total_seconds``, that is, when timing is on.
    """
    if format == "json":
        return json.dumps(payload, indent=2)
    timed = "total_seconds" in payload
    lines = ["# verification report", "", f"- version: {payload['version']}"]
    lines.append(f"- aggregate: **{payload['aggregate']}**")
    if timed:
        lines.append(f"- total seconds: {payload['total_seconds']}")
    lines += ["", "## configuration", ""]
    lines += [f"- {key}: {value}" for key, value in payload["config"].items()]
    if payload["lemmas"]:
        lines += ["", "## lemmas", ""]
        lines.append("| id | status |" + (" seconds |" if timed else ""))
        lines.append("|----|--------|" + ("---------|" if timed else ""))
        for item in payload["lemmas"]:
            seconds = f" {item['seconds']} |" if timed else ""
            lines.append(f"| {item['id']} | {item['status']} |{seconds}")
        for item in payload["lemmas"]:
            lines += _json_block(item["id"], item["witnesses"])
    if payload["fixtures"]:
        lines += ["", "## fixtures", "", "| name | verdict | constant |"]
        lines.append("|------|---------|----------|")
        for item in payload["fixtures"]:
            lines.append(f"| {item['name']} | {item['verdict']} | {item.get('constant', '')} |")
    if "bundles" in payload:
        lines += ["", "## chart summaries"]
        for summary in payload["bundles"]:
            lines += _json_block(summary["chart"], summary)
    lines.append("")
    return "\n".join(lines)


def _load_env_config() -> dict:
    """The settings in the ``KCERT_CONFIG`` file, checked in one place.

    The file must hold one JSON object whose keys are ``RunConfig`` fields
    and whose values have that field's JSON type; anything else raises
    ValueError, which ``run`` reports with exit 2.
    """
    path = os.environ.get("KCERT_CONFIG")
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            settings = json.load(handle)
        except RecursionError:
            raise ValueError("KCERT_CONFIG nests too deeply to decode") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"KCERT_CONFIG is not UTF-8: {exc}") from None
    if not isinstance(settings, dict):
        raise ValueError(f"KCERT_CONFIG must hold a JSON object, got {settings!r}")
    for key, value in settings.items():
        if key not in _ENV_CONFIG_TYPES:
            raise ValueError(
                f"unknown KCERT_CONFIG key {key!r}; known keys: {', '.join(_ENV_CONFIG_TYPES)}"
            )
        if type(value) not in _ENV_CONFIG_TYPES[key]:
            expected = " or ".join(_JSON_TYPE_NAMES[t] for t in _ENV_CONFIG_TYPES[key])
            raise ValueError(f"KCERT_CONFIG {key!r} must be {expected}, got {value!r}")
    if settings.get("format", "json") not in ("json", "markdown"):
        raise ValueError(
            f"KCERT_CONFIG 'format' must be json or markdown, got {settings['format']!r}"
        )
    if "isolation_width" in settings:
        settings["isolation_width"] = parse_rational(str(settings["isolation_width"]))
    return settings


def _config_from_args(args: argparse.Namespace, tasks: list[str] | None = None) -> RunConfig:
    """``KCERT_CONFIG`` settings overridden by flags; ``RunConfig`` checks the values.

    Every command reads the file; a command without a setting's flag
    (``eval`` has none, ``isolate`` only ``--width``) takes it from the file.
    """
    settings = _load_env_config()
    flags = {key: getattr(args, key, None) for key in _ENV_CONFIG_TYPES}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    return RunConfig(tasks=tasks, include_timing=not getattr(args, "no_timing", False), **settings)


def _report(
    config: RunConfig,
    lemma_ids: list[str] | tuple[str, ...],
    fixtures: bool = False,
    summaries: bool = False,
) -> int:
    """Print the report of the lemmas, in ``LEMMA_IDS`` order, then of the
    fixtures and the chart summaries if asked; return the exit code."""
    start = time.perf_counter()
    lemmas = [
        run_lemma(
            lemma_id,
            isolation_width=config.isolation_width,
            fixtures_dir=config.fixtures_dir,
        )
        for lemma_id in LEMMA_IDS
        if lemma_id in lemma_ids
    ]
    results = check_all_fixtures(config.fixtures_dir) if fixtures else []
    failed = any(lemma.status == "FAIL" for lemma in lemmas) or any(
        verdict.kind not in ("EXACT", "SCALED") for _, verdict in results
    )
    payload = {
        "version": __version__,
        "config": config.as_dict(),
        "lemmas": [lemma.as_dict(config.include_timing) for lemma in lemmas],
        "fixtures": [{"name": name, **verdict.as_dict()} for name, verdict in results],
        "aggregate": "FAIL" if failed else "PASS",
    }
    if summaries:
        payload["bundles"] = [bundle_summary(chart) for chart in CHARTS.values()]
    if config.include_timing:
        payload["total_seconds"] = round(time.perf_counter() - start, 3)
    print(emit_report(payload, config.format))
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all:
        lemma_ids = list(LEMMA_IDS)
    elif args.lemma:
        lemma_ids = list(dict.fromkeys(args.lemma))
        unknown = [l for l in lemma_ids if l not in LEMMA_IDS]
        if unknown:
            print(f"unknown lemma ids: {', '.join(unknown)}", file=sys.stderr)
            return 2
    else:
        print("verify requires --lemma ID or --all", file=sys.stderr)
        return 2
    return _report(_config_from_args(args, lemma_ids), lemma_ids)


def _cmd_fixtures(args: argparse.Namespace) -> int:
    return _report(_config_from_args(args, ["fixtures"]), (), fixtures=True)


def _cmd_report(args: argparse.Namespace) -> int:
    return _report(_config_from_args(args, ["all"]), LEMMA_IDS, fixtures=True, summaries=True)


def _cmd_eval(args: argparse.Namespace) -> int:
    _config_from_args(args)  # eval reads no setting, but a bad file is a usage error
    chart = CHARTS[args.chart]
    point = args.point
    if len(point) != len(chart.variables):
        print(
            f"chart {args.chart} expects {len(chart.variables)} coordinates",
            file=sys.stderr,
        )
        return 2
    if any(x <= 0 for x in point):
        print(
            f"chart {args.chart} coordinates must be positive, got "
            f"{','.join(str(x) for x in point)}",
            file=sys.stderr,
        )
        return 2
    print(quantity_text(build_bundle(chart), args.what, point))
    return 0


def _cmd_isolate(args: argparse.Namespace) -> int:
    width = _config_from_args(args).isolation_width
    intervals, _ = sturm_isolate(restrict_diagonal().p, (0, 2), width)
    if len(intervals) != 1:
        print(f"expected one critical interval, found {len(intervals)}", file=sys.stderr)
        return 1
    lo, hi = intervals[0]
    print(f"[{lo}, {hi}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcert",
        description="exact certification of convexity and critical-point claims "
        "on del Pezzo Kahler cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--width", dest="isolation_width", type=parse_rational, metavar="WIDTH",
            help="isolation width (p/q)",
        )
        p.add_argument("--format", choices=("json", "markdown"))
        p.add_argument("--fixtures-dir", dest="fixtures_dir")
        p.add_argument(
            "--seed", type=parse_integer,
            help="range-checked and echoed in the report; no computation reads it",
        )
        p.add_argument("--no-timing", action="store_true", dest="no_timing")

    verify = sub.add_parser("verify", help="run lemma certifications")
    selection = verify.add_mutually_exclusive_group()
    selection.add_argument("--lemma", action="append", metavar="ID")
    selection.add_argument("--all", action="store_true")
    add_common(verify)
    verify.set_defaults(func=_cmd_verify)

    evaluate = sub.add_parser("eval", help="print exact chart quantities")
    evaluate.add_argument("--chart", choices=tuple(CHARTS), required=True)
    evaluate.add_argument("--point", type=parse_point, required=True)
    evaluate.add_argument(
        "--what", choices=("V", "F1", "F2", "A", "B", "C", "calA"), required=True
    )
    evaluate.set_defaults(func=_cmd_eval)

    isolate = sub.add_parser("isolate", help="certified critical interval (k2)")
    isolate.add_argument("--width", dest="isolation_width", type=parse_rational, metavar="WIDTH")
    isolate.set_defaults(func=_cmd_isolate)

    fixtures = sub.add_parser("fixtures", help="fixture management")
    fixtures.add_argument("action", choices=("check",))
    add_common(fixtures)
    fixtures.set_defaults(func=_cmd_fixtures)

    report = sub.add_parser("report", help="run everything and emit a report")
    add_common(report)
    report.set_defaults(func=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FixtureError as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The console script: ``run()``, a flush of stdout, a frozen heap, exit.

    The rest of the process is interpreter shutdown, so nothing allocated
    here needs collecting (module docstring); ``run()`` itself never freezes.
    """
    code = run()
    if sys.stdout is not None:  # None when the process starts with no stdout
        try:
            sys.stdout.flush()
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            # the shutdown flush would fail again: point stdout at devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            code = 2
    gc.freeze()
    sys.exit(code)
