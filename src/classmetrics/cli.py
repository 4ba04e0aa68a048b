"""Command-line entry point.

Discovers .java files, runs tokenize -> parse -> model -> metrics ->
reports, writes the report bundle under --out and prints a per-class
summary plus the CCC/WMC, CCC/CMC and CCC/CC correlations.

Exit codes: 0 success (warnings allowed in tolerant mode), 1 parse/model
error in strict mode, 2 bad settings or no input files, 3 unwritable
output directory.
"""

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .lexer import LexError, tokenize
from .metrics import MetricConfig, compute_rows
from .model import ModelError, build_model
from .parser import ParseError, parse
from .report import SHEET_COLUMNS, build_bundle, sheet_cells
from .weyuker import (CCC_METRIC, generate_corpus, project_corpus,
                      reports_to_json, reports_to_text, run_all)

_DEFAULTS = {
    "out": "out",
    "format": "all",
    "moa_policy": "project",
    "wmc": "unity",
    "count_short_circuit": False,
    "count_constructors": True,
    "strict": False,
    "weyuker": False,
    "weyuker_corpus": "synthetic",
    "seed": 42,
    "trials": 1000,
    "fixed_timestamp": False,
}

_EPOCH = "1970-01-01T00:00:00Z"


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="classmetrics",
        description="Class-level complexity metrics for Java source trees.")
    ap.add_argument("inputs", nargs="+", metavar="PATH",
                    help="source files and/or directories (searched "
                         "recursively for *.java)")
    ap.add_argument("--out", metavar="DIR", default=None,
                    help="output directory (default: out)")
    ap.add_argument("--format", choices=["csv", "json", "all"], default=None,
                    help="metric sheet format(s) to write (default: all)")
    ap.add_argument("--moa-policy", choices=["project", "any-class"],
                    default=None, dest="moa_policy",
                    help="which field types count for MOA (default: project)")
    ap.add_argument("--wmc", choices=["unity", "weighted"], default=None,
                    help="WMC column mode (default: unity)")
    ap.add_argument("--count-short-circuit", action="store_true",
                    default=None, dest="count_short_circuit",
                    help="count && and || as decision points")
    ap.add_argument("--count-constructors", action=argparse.BooleanOptionalAction,
                    default=None, dest="count_constructors",
                    help="count constructors as methods (default: yes)")
    ap.add_argument("--strict", action="store_true", default=None,
                    help="fail (exit 1) on any parse warning or error")
    ap.add_argument("--weyuker", action="store_true", default=None,
                    help="also run the Weyuker property harness")
    ap.add_argument("--weyuker-corpus",
                    choices=["synthetic", "project", "both"], default=None,
                    dest="weyuker_corpus",
                    help="corpus for the harness (default: synthetic)")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for the synthetic corpus (default: 42)")
    ap.add_argument("--trials", type=int, default=None,
                    help="trial budget per property (default: 1000)")
    ap.add_argument("--fixed-timestamp", action="store_true", default=None,
                    dest="fixed_timestamp",
                    help="pin the run timestamp for byte-identical output")
    ap.add_argument("--config", metavar="FILE", default=None,
                    help="key=value config file; command-line flags win")
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    return ap


def load_config_file(path: str) -> dict:
    """Parse a simple key=value config file mirroring the CLI flags."""
    settings = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        default = _DEFAULTS[key]
        if isinstance(default, bool):
            if value.lower() in ("1", "true", "yes", "on"):
                settings[key] = True
            elif value.lower() in ("0", "false", "no", "off"):
                settings[key] = False
            else:
                raise ValueError(f"{path}:{lineno}: bad boolean {value!r}")
        elif isinstance(default, int):
            settings[key] = int(value)
        else:
            settings[key] = value
    return settings


def _effective_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if args.config:
        settings.update(load_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["trials"] < 1:
        raise ValueError(f"trials must be at least 1, got {settings['trials']}")
    return settings


def discover_files(inputs: list[str]) -> list[Path]:
    found = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            found.extend(p for p in path.rglob("*.java") if p.is_file())
        elif path.is_file():
            found.append(path)
    unique = sorted({p.as_posix(): p for p in found}.items())
    return [p for _, p in unique]


def _input_digest(files: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _print_summary(rows, cfg, corr) -> None:
    table = [SHEET_COLUMNS] + [sheet_cells(row, cfg) for row in rows]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(SHEET_COLUMNS))]
    for line in table:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(line, widths)).rstrip())
    print()
    for name in ("WMC", "CMC", "CC"):
        value = corr[name]
        rendered = "undefined" if value is None else f"{value:.6f}"
        print(f"pearson(CCC, {name}) = {rendered}")


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        settings = _effective_settings(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cfg = MetricConfig(
        moa_policy=settings["moa_policy"],
        count_short_circuit=settings["count_short_circuit"],
        count_constructors=settings["count_constructors"],
        wmc_mode=settings["wmc"],
    )
    strict = settings["strict"]

    files = discover_files(args.inputs)
    if not files:
        print("error: no .java files found under the given inputs",
              file=sys.stderr)
        return 2

    out_dir = Path(settings["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 3

    units = []
    warnings = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            unit = parse(tokenize(source), path.as_posix())
        except (LexError, ParseError, UnicodeDecodeError) as exc:
            message = f"{path.as_posix()}: {exc}"
            if strict:
                print(f"error: {message}", file=sys.stderr)
                return 1
            warnings.append(f"{message} (file skipped)")
            continue
        warnings.extend(unit.warnings)
        units.append(unit)

    try:
        model = build_model(units)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if warnings and strict:
        for message in warnings:
            print(f"error: {message}", file=sys.stderr)
        return 1
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)

    rows = compute_rows(model, cfg)
    timestamp = (_EPOCH if settings["fixed_timestamp"]
                 else datetime.now(timezone.utc)
                 .strftime("%Y-%m-%dT%H:%M:%SZ"))
    metadata = {
        "tool": "classmetrics",
        "version": __version__,
        "generated": timestamp,
        "config": {
            "moa_policy": cfg.moa_policy,
            "count_short_circuit": cfg.count_short_circuit,
            "count_constructors": cfg.count_constructors,
            "wmc_mode": cfg.wmc_mode,
        },
        "inputs": {"files": len(files), "sha256": _input_digest(files)},
    }
    bundle = build_bundle(model, rows, cfg, metadata)

    (out_dir / "model.xml").write_bytes(bundle.model_xml)
    if settings["format"] in ("csv", "all"):
        (out_dir / "metrics.csv").write_text(bundle.sheet_csv,
                                             encoding="utf-8")
    if settings["format"] in ("json", "all"):
        (out_dir / "metrics.json").write_text(bundle.sheet_json,
                                              encoding="utf-8")
    (out_dir / "chart.svg").write_text(bundle.chart_svg, encoding="utf-8")
    (out_dir / "run.json").write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    if settings["weyuker"]:
        corpus_kind = settings["weyuker_corpus"]
        corpus = []
        if corpus_kind in ("synthetic", "both"):
            corpus.extend(generate_corpus(settings["seed"]))
        if corpus_kind in ("project", "both"):
            corpus.extend(project_corpus(model, cfg))
        reports = run_all(CCC_METRIC, corpus, settings["seed"],
                          settings["trials"])
        (out_dir / "weyuker.json").write_text(
            reports_to_json(reports, len(corpus)), encoding="utf-8")
        weyuker_text = reports_to_text(reports, len(corpus))
        (out_dir / "weyuker.txt").write_text(weyuker_text, encoding="utf-8")
        print(weyuker_text)

    _print_summary(rows, cfg, bundle.correlations)
    print(f"\nreports written to {out_dir.as_posix()}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
