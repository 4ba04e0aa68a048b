"""Command-line entry point.

Discovers .java files, runs tokenize -> parse -> model -> metrics ->
reports, writes the report bundle under --out and prints a per-class
summary plus the CCC/WMC, CCC/CMC and CCC/CC correlations. Standard
output is written once, after the bundle is in place.

A run whose sources are large enough, on more than one CPU, lexes and
parses them in forked children as well as in its own process (see
_slices and _outcomes); what it writes and prints does not change.

The bundle is the files named in BUNDLE_FILES. A run writes the ones it
produced, removes the others from --out, and touches no other file
there. It writes them only after every other step has succeeded, first
into a staging directory in --out and then moved into place (see
"Report bundle" in RULES.md).

The Weyuker harness is imported only for a run that asks for it (see
_load_harness).

Exit codes: 0 success (warnings allowed in tolerant mode), 1 parse/model
error in strict mode, 2 bad settings or no input files, 3 unwritable
output directory, bundle file or standard output.
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

from . import __version__
from .lexer import LexError, tokenize
from .metrics import DEFAULT_CONFIG, MetricConfig, compute_rows
from .model import ModelError, build_model
from .parser import CompilationUnit, ParseError, parse
from .report import SHEET_COLUMNS, build_bundle, sheet_cells


# Every setting, in --help order: its default, its help text and, for a
# choice setting, its allowed values (for flag and config file alike). A
# flag's help text ends with its default, unless the default is False.
_SETTINGS = {
    "out": ("out", "output directory", None),
    "format": ("all", "metric sheet format(s) to write",
               ("csv", "json", "all")),
    "moa_policy": (DEFAULT_CONFIG.moa_policy,
                   "which field types count for MOA",
                   ("project", "any-class")),
    "wmc": (DEFAULT_CONFIG.wmc_mode, "WMC column mode", ("unity", "weighted")),
    "count_short_circuit": (DEFAULT_CONFIG.count_short_circuit,
                            "count && and || as decision points", None),
    "count_constructors": (DEFAULT_CONFIG.count_constructors,
                           "count constructors as methods", None),
    "strict": (False, "fail (exit 1) on any parse warning or error", None),
    "weyuker": (False, "also run the Weyuker property harness", None),
    "weyuker_corpus": ("synthetic", "corpus for the harness",
                       ("synthetic", "project", "both")),
    "seed": (42, "seed for the synthetic corpus", None),
    "trials": (1000, "trial budget per property", None),
    "fixed_timestamp": (
        False, "pin the run timestamp for byte-identical output", None),
}

_EPOCH = "1970-01-01T00:00:00Z"

# The classmetrics.weyuker names that main uses.
_HARNESS = ("CCC_METRIC", "generate_corpus", "project_corpus",
            "reports_to_json", "reports_to_text", "run_all")

BUNDLE_FILES = ("metrics.csv", "metrics.json", "model.xml", "chart.svg",
                "run.json", "weyuker.json", "weyuker.txt")

# A run lexes and parses in more than one process only when each gets at
# least this many bytes of source: below it, the fork and the pickled
# units cost more than a second CPU saves.
MIN_SLICE_BYTES = 64 * 1024


def build_arg_parser() -> argparse.ArgumentParser:
    """Flags that are not given are absent from the namespace."""
    ap = argparse.ArgumentParser(
        prog="classmetrics", argument_default=argparse.SUPPRESS,
        description="Class-level complexity metrics for Java source trees.")
    ap.add_argument("inputs", nargs="+", metavar="PATH",
                    help="source files and/or directories (searched "
                         "recursively for *.java)")
    for key, (default, text, choices) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if default is False:
            ap.add_argument(flag, action="store_true", help=text)
        elif default is True:
            ap.add_argument(flag, action=argparse.BooleanOptionalAction,
                            help=f"{text} (default: yes)")
        else:
            ap.add_argument(flag, type=type(default), choices=choices,
                            metavar="DIR" if key == "out" else None,
                            help=f"{text} (default: {default})")
    ap.add_argument("--config", metavar="FILE",
                    help="key=value config file; command-line flags win")
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    return ap


def load_config_file(path: str) -> dict:
    """Parse a simple key=value config file mirroring the CLI flags."""
    settings = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        default, _, choices = _SETTINGS[key]
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
        elif choices and value not in choices:
            raise ValueError(f"{path}:{lineno}: bad {key} {value!r} "
                             f"(choose from {', '.join(choices)})")
        else:
            settings[key] = value
    return settings


def _effective_settings(args: argparse.Namespace) -> dict:
    settings = {key: row[0] for key, row in _SETTINGS.items()}
    if "config" in args:
        settings.update(load_config_file(args.config))
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _SETTINGS)
    if settings["trials"] < 1:
        raise ValueError(f"trials must be at least 1, got {settings['trials']}")
    return settings


def __getattr__(name: str):
    """The harness names, from classmetrics.weyuker, until main has
    bound them here (PEP 562)."""
    if name not in _HARNESS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import weyuker
    return getattr(weyuker, name)


def _load_harness() -> None:
    """Bind the harness names into this module for main. A name already
    set here is kept, so a wrapper set on it before the load stays."""
    for name in _HARNESS:
        globals().setdefault(name, __getattr__(name))


def discover_files(inputs: list[str]) -> list[Path]:
    """The `*.java` files under `inputs` (see "File discovery" in RULES.md)."""
    found = [path for path in map(Path, inputs) if path.is_file()]
    dirs = [path for path in map(Path, inputs) if path.is_dir()]
    while dirs:
        try:  # an unreadable directory is skipped, as by os.walk
            with os.scandir(dirs.pop()) as scan:
                entries = list(scan)
        except OSError:
            continue
        for entry in entries:
            try:  # as by os.path.isfile, a failed stat skips the entry
                if entry.name.endswith(".java") and entry.is_file():
                    found.append(Path(entry.path))
                elif entry.is_dir() and not entry.is_symlink():
                    dirs.append(entry.path)
            except OSError:
                pass
    unique = sorted({p.as_posix(): p for p in found}.items())
    return [p for _, p in unique]


def _read(path: Path, digest) -> bytes | str:
    """The file's bytes, added with its path to `digest`; or, when it
    cannot be read, the message that skips it."""
    try:
        data = path.read_bytes()
    except OSError as exc:  # its text repeats the path; its strerror not
        return f"{path.as_posix()}: {exc.strerror or exc}"
    digest.update(os.fsencode(path))
    digest.update(b"\0")
    digest.update(data)
    digest.update(b"\0")
    return data


def _lex_parse(path: Path, data: bytes | str) -> CompilationUnit | str:
    """The file's CompilationUnit, or the message that skips it. `data`
    is what _read gave. The bytes are decoded as UTF-8 with universal
    newlines: a leading byte-order mark is dropped, and both \\r\\n and
    a lone \\r become \\n."""
    if isinstance(data, str):
        return data
    try:
        source = data.decode("utf-8-sig").replace("\r\n", "\n")
        return parse(tokenize(source.replace("\r", "\n")), path.as_posix())
    except (LexError, ParseError, UnicodeDecodeError) as exc:
        return f"{path.as_posix()}: {exc}"


def _slices(files: list[Path]) -> list[list[Path]]:
    """`files` cut, in order, into runs of about equal source bytes: one
    run per CPU this process may use, each of at least MIN_SLICE_BYTES.
    One run in all where a fork is not safe: no os.fork, another thread
    or one CPU."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        return [files]
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return [files]
    sizes = [_size(path) for path in files]
    total = sum(sizes)
    count = min(cpus, total // MIN_SLICE_BYTES)
    slices, start, done = [], 0, 0
    for end, size in enumerate(sizes, 1):
        done += size  # cut where the bytes so far pass the next share
        if len(slices) < count - 1 and (
                done * count >= total * (len(slices) + 1)):
            slices.append(files[start:end])
            start = end
    slices.append(files[start:])
    return [part for part in slices if part]


def _size(path: Path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:  # _read meets it again
        return 0


def _outcomes(files: list[Path], digest):
    """Each file's outcome, in file order: its CompilationUnit or the
    message that skips it. The files are read and added to `digest` in
    order. With more than one slice (see _slices), a forked child lexes
    and parses each slice but the last, which this process does. A
    slice whose child fails is done here after all, so the outcomes and
    any exception raised are those of a run in one process."""
    slices = _slices(files)
    if len(slices) == 1:
        for path in files:
            yield _lex_parse(path, _read(path, digest))
        return
    import pickle  # noqa: F401 (loaded once, before the forks)
    children, own, failure = [], [], None
    try:
        for part in slices[:-1]:
            items = [_read(path, digest) for path in part]
            children.append(_Child(part, items))
        try:
            for path in slices[-1]:
                own.append(_lex_parse(path, _read(path, digest)))
        except Exception as exc:  # raised after earlier slices' outcomes
            failure = exc
        received = [child.receive() for child in children]
    finally:
        for child in children:
            child.reap()
    for child, outcomes in zip(children, received):
        yield from outcomes or map(_lex_parse, child.part, child.items)
    yield from own
    if failure is not None:
        raise failure


class _Child:
    """A forked process that lexes and parses one slice of the files and
    sends the outcomes back, as one pickle, through a pipe. `items` are
    the slice's bytes or skip messages, from _read."""

    def __init__(self, part: list[Path], items: list):
        self.part, self.items, self.pid = part, items, None
        try:
            read_fd, write_fd = os.pipe()
        except OSError:  # no child: the slice is done in this process
            return
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return
        if self.pid == 0:
            code = 1
            try:
                import pickle
                os.close(read_fd)
                payload = pickle.dumps(list(map(_lex_parse, part, items)),
                                       pickle.HIGHEST_PROTOCOL)
                with open(write_fd, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:  # the child never returns into the caller
                os._exit(code)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def receive(self) -> list | None:
        """The outcomes the child sent, or None if there is no child, it
        did not exit 0 or its payload does not load. Reaps the child."""
        if self.pid is None:
            return None
        with self.pipe:
            payload = self.pipe.read()
        pid, self.pid = self.pid, None
        if os.waitpid(pid, 0)[1] != 0:
            return None
        import pickle
        try:
            return pickle.loads(payload)
        except Exception:  # a payload that does not load can raise anything
            return None

    def reap(self) -> None:
        """Kill and reap the child if receive has not reaped it."""
        if self.pid is not None:
            import signal
            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


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


def _summary(cells, corr) -> str:
    """The per-class table, a blank line and the three correlations."""
    table = [SHEET_COLUMNS] + [[str(cell) for cell in line] for line in cells]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(SHEET_COLUMNS))]
    lines = ["  ".join(cell.ljust(width)
                       for cell, width in zip(line, widths)).rstrip()
             for line in table]
    lines.append("")
    for name in ("WMC", "CMC", "CC"):
        value = corr[name]
        rendered = "undefined" if value is None else f"{value:.6f}"
        lines.append(f"pearson(CCC, {name}) = {rendered}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        settings = _effective_settings(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if settings["weyuker"]:
        _load_harness()  # before the run's data, so as not to add to its peak

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
    for outcome in _outcomes(files, digest):
        if isinstance(outcome, str):
            if strict:
                print(f"error: {outcome}", file=sys.stderr)
                return 1
            warnings.append(f"{outcome} (file skipped)")
        else:
            warnings.extend(outcome.warnings)
            units.append(outcome)

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
                 else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    metadata = {
        "tool": "classmetrics",
        "version": __version__,
        "generated": timestamp,
        "config": cfg._asdict(),
        "inputs": {"files": len(files), "sha256": digest.hexdigest()},
    }
    cells = [sheet_cells(row) for row in rows]
    formats = (("csv", "json") if settings["format"] == "all"
               else (settings["format"],))
    bundle = build_bundle(model, rows, cells, formats)
    bundle.files["run.json"] = (
        json.dumps(metadata, indent=2, sort_keys=True) + "\n").encode()

    stdout = ""
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
        stdout = weyuker_text + "\n"

    try:
        _write_bundle(out_dir, bundle.files)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 3

    # Standard output is written once, and only with the bundle in place.
    stdout += _summary(cells, bundle.correlations)
    print(f"{stdout}\nreports written to {out_dir.as_posix()}/\n", end="")
    return 0


def console_main() -> int:
    """The `classmetrics` script and `python -m classmetrics`: main() in a
    process that runs without the cyclic garbage collector. A run leaves
    a small, fixed set of cyclic garbage (from argparse and closures), so
    collecting it during the run is wasted work; gc.freeze() moves every
    object to the permanent generation, so the collection at interpreter
    exit does not walk them. main() itself leaves `gc` alone."""
    gc.disable()
    try:
        code = main()
        print(end="", flush=True)  # flushes stdout, if there is one
        return code
    except OSError as exc:
        if exc.filename is not None:  # not a stream's error: a fault
            raise
        if not isinstance(exc, BrokenPipeError):
            print(f"error: standard output: {exc.strerror or exc}",
                  file=sys.stderr)
        # so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
