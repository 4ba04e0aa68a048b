"""Command-line entry point.

Discovers .java files, runs tokenize -> parse -> model -> metrics ->
reports, writes the report bundle under --out and prints a per-class
summary plus the CCC/WMC, CCC/CMC and CCC/CC correlations.

The bundle is the files named in BUNDLE_FILES. A run writes the ones it
produced, removes the others from --out, and touches no other file
there. It writes them only after every other step has succeeded, first
into a staging directory in --out and then moved into place (see
"Report bundle" in RULES.md).

Exit codes: 0 success (warnings allowed in tolerant mode), 1 parse/model
error in strict mode, 2 bad settings or no input files, 3 unwritable
output directory or bundle file.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
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

# Allowed values of the choice settings, for flags and config file alike.
_CHOICES = {
    "format": ("csv", "json", "all"),
    "moa_policy": ("project", "any-class"),
    "wmc": ("unity", "weighted"),
    "weyuker_corpus": ("synthetic", "project", "both"),
}

_EPOCH = "1970-01-01T00:00:00Z"

BUNDLE_FILES = ("metrics.csv", "metrics.json", "model.xml", "chart.svg",
                "run.json", "weyuker.json", "weyuker.txt")


def build_arg_parser() -> argparse.ArgumentParser:
    """Flags that are not given are absent from the namespace."""
    ap = argparse.ArgumentParser(
        prog="classmetrics", argument_default=argparse.SUPPRESS,
        description="Class-level complexity metrics for Java source trees.")
    ap.add_argument("inputs", nargs="+", metavar="PATH",
                    help="source files and/or directories (searched "
                         "recursively for *.java)")
    ap.add_argument("--out", metavar="DIR",
                    help="output directory (default: out)")
    ap.add_argument("--format", choices=_CHOICES["format"],
                    help="metric sheet format(s) to write (default: all)")
    ap.add_argument("--moa-policy", choices=_CHOICES["moa_policy"],
                    help="which field types count for MOA (default: project)")
    ap.add_argument("--wmc", choices=_CHOICES["wmc"],
                    help="WMC column mode (default: unity)")
    ap.add_argument("--count-short-circuit", action="store_true",
                    help="count && and || as decision points")
    ap.add_argument("--count-constructors", action=argparse.BooleanOptionalAction,
                    help="count constructors as methods (default: yes)")
    ap.add_argument("--strict", action="store_true",
                    help="fail (exit 1) on any parse warning or error")
    ap.add_argument("--weyuker", action="store_true",
                    help="also run the Weyuker property harness")
    ap.add_argument("--weyuker-corpus", choices=_CHOICES["weyuker_corpus"],
                    help="corpus for the harness (default: synthetic)")
    ap.add_argument("--seed", type=int,
                    help="seed for the synthetic corpus (default: 42)")
    ap.add_argument("--trials", type=int,
                    help="trial budget per property (default: 1000)")
    ap.add_argument("--fixed-timestamp", action="store_true",
                    help="pin the run timestamp for byte-identical output")
    ap.add_argument("--config", metavar="FILE",
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
            try:
                settings[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad integer {value!r}") from None
        elif key in _CHOICES and value not in _CHOICES[key]:
            raise ValueError(f"{path}:{lineno}: bad {key} {value!r} "
                             f"(choose from {', '.join(_CHOICES[key])})")
        else:
            settings[key] = value
    return settings


def _effective_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if "config" in args:
        settings.update(load_config_file(args.config))
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _DEFAULTS)
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


def _read_source(path: Path, digest) -> str:
    """Add the file's path and bytes to `digest`, then decode the same
    bytes as Path.read_text(encoding="utf-8") would: UnicodeDecodeError
    propagates, and both \\r\\n and a lone \\r become \\n."""
    data = path.read_bytes()
    digest.update(os.fsencode(path))
    digest.update(b"\0")
    digest.update(data)
    digest.update(b"\0")
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _write_bundle(out_dir: Path, files: dict[str, bytes]) -> None:
    """Write `files` into a staging directory inside `out_dir`, check that
    no bundle name there is held by a directory or other non-file, then
    move each file into place and remove the bundle names not in `files`.
    An OSError before the first move leaves `out_dir` as it was; the
    staging directory is removed in every case."""
    stage = Path(tempfile.mkdtemp(prefix=".bundle-", dir=out_dir))
    try:
        for name, data in files.items():
            (stage / name).write_bytes(data)
        for name in BUNDLE_FILES:
            target = out_dir / name
            if target.exists() and not target.is_file():
                raise OSError(f"bundle name held by a non-file: {target}")
        for name in BUNDLE_FILES:
            if name in files:
                os.replace(stage / name, out_dir / name)
            else:
                (out_dir / name).unlink(missing_ok=True)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _print_summary(cells, corr) -> None:
    table = [SHEET_COLUMNS] + [[str(cell) for cell in line] for line in cells]
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
    digest = hashlib.sha256()
    for path in files:
        try:
            source = _read_source(path, digest)
            unit = parse(tokenize(source), path.as_posix())
        except (LexError, ParseError, UnicodeDecodeError, OSError) as exc:
            # An OSError's text repeats the path; its strerror does not.
            reason = getattr(exc, "strerror", None) or exc
            message = f"{path.as_posix()}: {reason}"
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

    for message in warnings:
        print(f"{'error' if strict else 'warning'}: {message}",
              file=sys.stderr)
    if warnings and strict:
        return 1

    rows = compute_rows(model, cfg)
    timestamp = (_EPOCH if settings["fixed_timestamp"]
                 else datetime.now(timezone.utc)
                 .strftime("%Y-%m-%dT%H:%M:%SZ"))
    metadata = {
        "tool": "classmetrics",
        "version": __version__,
        "generated": timestamp,
        "config": cfg._asdict(),
        "inputs": {"files": len(files), "sha256": digest.hexdigest()},
    }
    cells = [sheet_cells(row, cfg) for row in rows]
    formats = (("csv", "json") if settings["format"] == "all"
               else (settings["format"],))
    bundle = build_bundle(model, rows, cfg, formats, cells)
    bundle.files["run.json"] = (
        json.dumps(metadata, indent=2, sort_keys=True) + "\n").encode()

    if settings["weyuker"]:
        corpus_kind = settings["weyuker_corpus"]
        corpus = []
        if corpus_kind in ("synthetic", "both"):
            corpus.extend(generate_corpus(settings["seed"]))
        if corpus_kind in ("project", "both"):
            corpus.extend(project_corpus(model, cfg))
        reports = run_all(CCC_METRIC, corpus, settings["seed"],
                          settings["trials"])
        bundle.files["weyuker.json"] = reports_to_json(
            reports, len(corpus)).encode()
        weyuker_text = reports_to_text(reports, len(corpus))
        bundle.files["weyuker.txt"] = weyuker_text.encode()
        print(weyuker_text)

    try:
        _write_bundle(out_dir, bundle.files)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 3

    _print_summary(cells, bundle.correlations)
    print(f"\nreports written to {out_dir.as_posix()}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
