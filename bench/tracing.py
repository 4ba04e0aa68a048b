"""Traced in-process run of the classmetrics CLI.

    python bench/tracing.py SECONDS RESULT_JSON -- CLI_ARGS...

Runs `classmetrics.cli.main(CLI_ARGS)` in this process, alternating plain
and traced calls for SECONDS, then one call that measures allocation
peaks, and writes per-layer metrics to RESULT_JSON. Tracing replaces
public functions with span-recording wrappers in the module namespace
where their caller looks them up, and restores them afterwards; nothing
in classmetrics is edited. A name that no longer exists is reported as
absent. Each layer is named after its module; a layer's self time is
the time of its spans minus the time covered by their child spans, so
the self times of all layers add up to the traced wall time of `main`.
"""

import contextlib
import importlib
import io
import json
import pathlib
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import checks

LAYERS = ("cli", "lexer", "parser", "model", "metrics", "report", "weyuker")
BODY_WALKS = ("count_decision_points", "classify_calls", "count_returns",
              "count_short_circuit_ops", "collect_new_types")
# Report files that hold rendered sheets, model and chart.
RENDERED_FILES = ("model.xml", "metrics.csv", "metrics.json", "chart.svg")
MIN_PAIRS = 2


class Tracer:
    """Spans in memory: (name, start, end, parent index or -1)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.errors = Counter()
        self.counts = Counter()
        self.results = {}

    def wrap(self, fn, name, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[label] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if observe is not None:
                observe(self, result)
            return result

        return traced


class _MetricProxy:
    """Stands in for the metric object handed to the harness."""

    def __init__(self, metric, call):
        self._metric = metric
        self._call = call

    def __call__(self, cls):
        return self._call(cls)

    def __getattr__(self, attr):
        return getattr(self._metric, attr)


def _count(key, size=len):
    def observe(tracer, result):
        tracer.counts[key] += size(result)
    return observe


def _keep(key):
    def observe(tracer, result):
        tracer.results.setdefault(key, []).append(result)
    return observe


def _encoded_len(value) -> int:
    return len(value.encode("utf-8") if isinstance(value, str) else value)


def _sheet_label(args, kwargs):
    fmt = kwargs.get("format", args[1] if len(args) > 1 else "csv")
    return f"report.emit_sheet.{fmt}"


# (module, attribute, span name, observer)
PATCHES = [
    ("cli", "discover_files", "cli.discover", _count("cli.files")),
    ("cli", "tokenize", "lexer.tokenize", _count("lexer.tokens")),
    ("cli", "parse", "parser.parse", _keep("units")),
    ("cli", "build_model", "model.build_model", _keep("models")),
    ("cli", "compute_rows", "metrics.compute_rows", _count("metrics.rows")),
    ("cli", "build_bundle", "report.build_bundle", None),
    ("cli", "sheet_cells", "report.sheet_cells", None),
    ("cli", "generate_corpus", "weyuker.generate_corpus", None),
    ("cli", "project_corpus", "weyuker.project_corpus", None),
    ("cli", "run_all", "weyuker.run_all", _keep("reports")),
    ("parser", "scan_body", "parser.scan_body", None),
    *[("parser", walk, f"parser.{walk}", None) for walk in BODY_WALKS],
    ("report", "emit_model_xml", "report.emit_model_xml",
     _count("report.bytes_rendered", _encoded_len)),
    ("report", "emit_sheet", _sheet_label,
     _count("report.bytes_rendered", _encoded_len)),
    ("report", "emit_chart", "report.emit_chart",
     _count("report.bytes_rendered", _encoded_len)),
    ("report", "correlations", "report.correlations", None),
    ("report", "sheet_cells", "report.sheet_cells", None),
    ("weyuker", "check_property", "weyuker.check_property", None),
    ("weyuker", "concat", "weyuker.concat", None),
    ("weyuker", "rename", "weyuker.rename", None),
]


@contextlib.contextmanager
def patched(replacements):
    """Set (object, attribute, value) triples; restore them on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def _module(name):
    return importlib.import_module(f"classmetrics.{name}")


def tracing_replacements(tracer: Tracer, absent: set):
    """Span wrappers for every patched name that exists, plus byte
    counters on pathlib reads and writes."""
    out = []
    for module, attr, label, observe in PATCHES:
        mod = _module(module)
        if hasattr(mod, attr):
            out.append((mod, attr,
                        tracer.wrap(getattr(mod, attr), label, observe)))
        else:
            absent.add(f"{module}.{attr}")
    cli = _module("cli")
    if hasattr(cli, "CCC_METRIC"):
        metric = cli.CCC_METRIC
        out.append((cli, "CCC_METRIC", _MetricProxy(
            metric, tracer.wrap(metric, "weyuker.metric"))))
    else:
        absent.add("cli.CCC_METRIC")
    out.extend(_io_counters(tracer))
    return out


def _io_counters(tracer: Tracer):
    path = pathlib.Path
    read_text, read_bytes = path.read_text, path.read_bytes
    write_text, write_bytes = path.write_text, path.write_bytes
    counts = tracer.counts

    def counting_read_text(self, *args, **kwargs):
        text = read_text(self, *args, **kwargs)
        counts["cli.bytes_read"] += len(text.encode("utf-8"))
        return text

    def counting_read_bytes(self):
        data = read_bytes(self)
        counts["cli.bytes_read"] += len(data)
        return data

    def counting_write_text(self, data, encoding=None, *args, **kwargs):
        size = len(data.encode(encoding or "utf-8"))
        counts["cli.bytes_written"] += size
        counts[f"written:{self.name}"] += size
        return write_text(self, data, encoding, *args, **kwargs)

    def counting_write_bytes(self, data):
        counts["cli.bytes_written"] += len(data)
        counts[f"written:{self.name}"] += len(data)
        return write_bytes(self, data)

    return [(path, "read_text", counting_read_text),
            (path, "read_bytes", counting_read_bytes),
            (path, "write_text", counting_write_text),
            (path, "write_bytes", counting_write_bytes)]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _) in enumerate(spans)]


def span_table(spans) -> dict:
    """name -> [calls, inclusive seconds, self seconds]."""
    table = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced call of main."""
    table = span_table(tracer.spans)

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    def inclusive(*names):
        return sum(table.get(n, [0, 0.0, 0.0])[1] for n in names)

    selfs = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in table.items():
        selfs[name.split(".")[0]] += own
    counts = tracer.counts
    units = tracer.results.get("units", [])
    decls = []
    pending = [d for u in units for d in getattr(u, "type_decls", [])]
    while pending:
        decl = pending.pop()
        decls.append(decl)
        pending.extend(getattr(decl, "nested", []))
    models = tracer.results.get("models", [])
    trials = sum(getattr(r, "trials", 0)
                 for reports in tracer.results.get("reports", [])
                 for r in reports)
    main_s = inclusive("cli.main")
    bodies = calls("parser.scan_body")
    rows = counts["metrics.rows"]
    rendered = counts["report.bytes_rendered"]
    written = sum(counts[f"written:{n}"] for n in RENDERED_FILES)
    check_s = inclusive("weyuker.run_all")
    evals = calls("weyuker.metric")
    return {
        "cli.self_s": selfs["cli"],
        "cli.discover_s": inclusive("cli.discover"),
        "cli.files": counts["cli.files"],
        "cli.bytes_read": counts["cli.bytes_read"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "lexer.self_s": selfs["lexer"],
        "lexer.calls": calls("lexer.tokenize"),
        "lexer.tokens": counts["lexer.tokens"],
        "lexer.tokens_per_s": _ratio(counts["lexer.tokens"], selfs["lexer"]),
        "lexer.errors": tracer.errors["lexer.tokenize"],
        "parser.self_s": selfs["parser"],
        "parser.scan_body_s": inclusive("parser.scan_body"),
        "parser.bodies": bodies,
        "parser.body_walks_per_body": _ratio(
            sum(calls(f"parser.{w}") for w in BODY_WALKS), bodies),
        "parser.classes": len(decls),
        "parser.methods": sum(len(getattr(d, "methods", [])) for d in decls),
        "parser.warnings": sum(len(getattr(u, "warnings", [])) for u in units),
        "parser.errors": tracer.errors["parser.parse"],
        "model.self_s": selfs["model"],
        "model.classes": sum(len(getattr(m, "classes", {})) for m in models),
        "metrics.self_s": selfs["metrics"],
        "metrics.rows": rows,
        "report.self_s": selfs["report"],
        "report.xml_s": inclusive("report.emit_model_xml"),
        "report.csv_s": inclusive("report.emit_sheet.csv"),
        "report.json_s": inclusive("report.emit_sheet.json"),
        "report.svg_s": inclusive("report.emit_chart"),
        "report.corr_s": inclusive("report.correlations"),
        "report.bytes_rendered": rendered,
        "report.bytes_written": written,
        "report.written_ratio": _ratio(written, rendered),
        "report.cells_per_row": _ratio(calls("report.sheet_cells"), rows),
        "weyuker.self_s": selfs["weyuker"],
        "weyuker.corpus_s": inclusive("weyuker.generate_corpus",
                                      "weyuker.project_corpus"),
        "weyuker.check_s": check_s,
        "weyuker.trials": trials,
        "weyuker.trials_per_s": _ratio(trials, check_s),
        "weyuker.metric_evals": evals,
        "weyuker.evals_per_trial": _ratio(evals, trials),
        "weyuker.concat_calls": calls("weyuker.concat"),
        "trace.main_s": main_s,
        "trace.accounted_ratio": _ratio(sum(selfs.values()), main_s),
    }


def alloc_replacements(peaks: Counter):
    """Wrappers that trace allocations inside each lexer and parser call
    only, keeping the largest peak a single call reached."""
    def measured(fn, key):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[key] = max(peaks[key], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    cli = _module("cli")
    return [(cli, attr, measured(getattr(cli, attr), key))
            for attr, key in (("tokenize", "lexer.alloc_peak_mb"),
                              ("parse", "parser.alloc_peak_mb"))
            if hasattr(cli, attr)]


class Runner:
    """Calls main in this process and checks that each call's report
    bytes match the first call's."""

    def __init__(self, cli_args: list[str]):
        self.cli_args = cli_args
        self.out = Path(cli_args[cli_args.index("--out") + 1])
        self.reference = None
        self.attempted = 0
        self.failures = []

    def call(self, main) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(self.cli_args)
        except BaseException as exc:  # SystemExit from argparse included
            self.failures.append(f"main raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"main returned {code}")
            return elapsed
        try:
            found = checks.digests(self.out)
        except OSError as exc:
            self.failures.append(f"reading the reports failed: {exc}")
            return elapsed
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            self.failures.append("report bytes differ from the first call")
        return elapsed


def _traced_call(runner: Runner, cli, absent: set):
    """One traced call of main. The tracer, which holds the call's parse
    results, is dropped on return so that it cannot slow the next call."""
    tracer = Tracer()
    with patched(tracing_replacements(tracer, absent)):
        elapsed = runner.call(tracer.wrap(cli.main, "cli.main"))
    return elapsed, layer_metrics(tracer), span_table(tracer.spans)


def run(seconds: float, cli_args: list[str]) -> dict:
    cli = _module("cli")
    runner = Runner(cli_args)
    runner.call(cli.main)  # warm-up and reference bytes
    plain, traced, passes = [], [], []
    absent = set()
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PAIRS or time.perf_counter() < deadline:
        plain.append(runner.call(cli.main))
        seconds_traced, metrics, table = _traced_call(runner, cli, absent)
        traced.append(seconds_traced)
        passes.append((metrics, table))
    peaks = Counter()
    with patched(alloc_replacements(peaks)):
        runner.call(cli.main)
    metrics = {name: statistics.median(p[0][name] for p in passes)
               for name in passes[0][0]}
    return {"metrics": _with_run_metrics(
                metrics, statistics.median(traced) / statistics.median(plain),
                peaks),
            "attempted": runner.attempted,
            "failures": runner.failures, "absent": sorted(absent),
            "spans": passes[-1][1], "passes": len(passes)}


def _with_run_metrics(metrics: dict, overhead: float, peaks: Counter) -> dict:
    """Add the metrics measured over the whole run, not per traced call."""
    metrics["trace.overhead_ratio"] = overhead
    for key in ("lexer.alloc_peak_mb", "parser.alloc_peak_mb"):
        metrics[key] = peaks[key] / 2 ** 20
    return metrics


def empty_metrics() -> dict:
    """Every per-layer metric at 0, for a run whose traced child failed."""
    return _with_run_metrics(layer_metrics(Tracer()), 0.0, Counter())


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result = run(float(argv[0]), argv[3:])
    Path(argv[1]).write_text(json.dumps(result, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
