"""End-to-end benchmark of the classmetrics CLI.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Builds a seeded corpus for the workload, then runs `python -m classmetrics`
on it as a child process, one invocation at a time, for S seconds. With
--trace 0 it prints the end-to-end metrics: the median ratio of each
invocation's wall time, and of its CPU time, to those of the reference
job in calibrate.py run just before it; the median peak RSS of one
invocation; and set-up time (the median time of
`python -c "import classmetrics.cli"`). CPU time and RSS come from
os.wait4, so reaped grandchildren count. It also prints the raw median
wall and CPU seconds and corpus KiB per wall second. With --trace 1 it
runs bench/tracing.py in a fresh process instead and prints per-layer
metrics. Every invocation's output is checked (see checks.py); one that
exits non-zero, prints a traceback or fails a check counts as failed.
Without --workload, every workload runs untraced and then traced, each
run printing its metrics, record and result in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it holds the
run record: corpus description, sha256 of every report file, and the
machine (nproc, Python version, load average at start and end).

Nothing outside the checkout is read or written; scratch files live in
.bench_work/ and are removed at the end of the run.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "classmetrics" / "fixtures" / "dlib"
WORK = ROOT / ".bench_work"

DEFAULT_SECONDS = 30        # run_seconds in BENCHMARK.json
SETUP_SAMPLES = 15
MIN_INVOCATIONS = 5
CHILD_TIMEOUT_S = 120
MAX_MESSAGES = 20
TRACEBACK = b"Traceback (most recent call last)"

# The gated end-to-end metrics. Raw wall and CPU seconds move by 10-20 %
# between runs on a shared box as its speed drifts, so the gated times
# are ratios to calibrate.py run just before each invocation; the raw
# seconds are still measured and reported in the run record.
END_TO_END_UNITS = {"wall_rel": "1", "cpu_rel": "1", "peak_rss_mb": "MiB",
                    "setup_s": "s"}
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "kb_per_s": "KiB/s",
             "calibrate_s": "s"}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: bytes

    def problems(self) -> list[str]:
        found = []
        if self.returncode != 0:
            found.append(f"exit code {self.returncode}")
        if TRACEBACK in self.stderr:
            found.append("traceback on stderr")
        return found


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], cwd: Path,
          timeout: float = CHILD_TIMEOUT_S) -> Invocation:
    """Run one child to completion. Wall time runs from spawn to exit;
    CPU time and peak RSS come from os.wait4, which on Linux include the
    child's own reaped children."""
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Invocation(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, proc.returncode, stderr)


def machine() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg": _loadavg()}


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


class Tally:
    """Invocations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[:MAX_MESSAGES - len(self.messages)])


def measure_setup(work: Path) -> float:
    """Median start-up time: interpreter start plus importing the CLI."""
    probe = spawn([sys.executable, "-c", "import classmetrics.cli as c; "
                   "print(c.__file__)"], work)
    where = Path((work / "stdout.txt").read_text().strip() or ".")
    if probe.returncode != 0 or SRC not in where.resolve().parents:
        raise RuntimeError(f"classmetrics not importable from {SRC}")
    return statistics.median(
        spawn([sys.executable, "-c", "import classmetrics.cli"], work).wall_s
        for _ in range(SETUP_SAMPLES))


def measure_cli(workload, corpus, work: Path, seconds: float):
    """Untraced invocations for `seconds`, after one untimed reference
    invocation whose output gets the full check. Each timed invocation
    comes right after a run of calibrate.py; returns (invocation,
    calibration run) pairs."""
    out = work / "out"
    argv = [sys.executable, "-m", "classmetrics", corpus.root.name,
            "--out", out.name, *workload.flags]
    calibrate = [sys.executable, str(BENCH / "calibrate.py")]
    tally = Tally()

    def invoke() -> tuple[Invocation, list[str]]:
        shutil.rmtree(out, ignore_errors=True)
        inv = spawn(argv, work)
        return inv, inv.problems()

    inv, problems = invoke()
    if not problems:
        problems = checks.run_checks(lambda: workload.check(corpus, out))
    reference = None if problems else checks.digests(out)
    tally.add(problems)
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        reference_job = spawn(calibrate, work)
        if reference_job.problems():
            raise RuntimeError(f"calibrate.py failed: {reference_job.stderr}")
        inv, problems = invoke()
        if reference is None:
            problems.append("reference output failed its check")
        elif not problems:
            problems = checks.run_checks(lambda: _same_bytes(out, reference))
        tally.add(problems)
        samples.append((inv, reference_job))
    return samples, tally, reference


def _same_bytes(out: Path, reference: dict) -> list[str]:
    if checks.digests(out) == reference:
        return []
    return ["report bytes differ from the first invocation"]


def measure_traced(workload, corpus, work: Path, seconds: float):
    """One traced child process; its last output gets the full check."""
    argv = [sys.executable, str(BENCH / "tracing.py"), str(seconds),
            "trace.json", "--", corpus.root.name, "--out", "out",
            *workload.flags]
    inv = spawn(argv, work)
    tally = Tally()
    problems = inv.problems()
    if problems:
        tally.add(problems + [inv.stderr.decode(errors="replace")[-500:]])
        return tracing.empty_metrics(), tally, None, {}
    result = json.loads((work / "trace.json").read_text(encoding="utf-8"))
    problems = checks.run_checks(lambda: workload.check(corpus, work / "out"))
    # Each failed call left one message; a failed check of the output
    # fails every call, since all calls' report bytes were compared.
    tally.attempted = result["attempted"]
    tally.failed = tally.attempted if problems else len(result["failures"])
    tally.messages = (problems + result["failures"])[:MAX_MESSAGES]
    extra = {"absent": result["absent"], "passes": result["passes"],
             "spans": result["spans"]}
    digests = None if problems else checks.digests(work / "out")
    return result["metrics"], tally, digests, extra


def cli_metrics(samples, corpus_bytes: int, setup_s: float):
    """(gated end-to-end metrics, raw seconds) from (invocation,
    calibration run) pairs; every figure is a median over invocations."""
    def median(f):
        return statistics.median(f(inv, ref) for inv, ref in samples)

    wall = median(lambda inv, ref: inv.wall_s)
    gated = {
        "wall_rel": median(lambda inv, ref: inv.wall_s / ref.wall_s),
        "cpu_rel": median(lambda inv, ref: inv.cpu_s / ref.cpu_s),
        "peak_rss_mb": median(lambda inv, ref: inv.rss_mb),
        "setup_s": setup_s,
    }
    raw = {
        "wall_s": wall,
        "cpu_s": median(lambda inv, ref: inv.cpu_s),
        "kb_per_s": corpus_bytes / 1024 / wall,
        "calibrate_s": median(lambda inv, ref: ref.wall_s),
    }
    return gated, raw


def unit_of(metric: str) -> str:
    suffix = metric.split(".", 1)[1]
    if suffix.endswith("_per_s"):
        return "1/s"
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_mb"):
        return "MiB"
    if suffix.startswith("bytes"):
        return "B"
    if "ratio" in suffix or "_per_" in suffix:
        return "1"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{'trace' if trace else 'plain'}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "machine_start": machine()}
        corpus = workload.make(FIXTURES, work / "corpus", seed)
        if trace:
            values, tally, digests, extra = measure_traced(
                workload, corpus, work, seconds)
            record.update(extra)
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in values.items()}
        else:
            setup_s = measure_setup(work)
            samples, tally, digests = measure_cli(workload, corpus, work,
                                                  seconds)
            values, raw = cli_metrics(samples, corpus.bytes, setup_s)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
            record["raw"] = {k: {"value": v, "unit": RAW_UNITS[k]}
                             for k, v in raw.items()}
            record["wall_s_quartiles"] = statistics.quantiles(
                [inv.wall_s for inv, _ in samples], n=4)
        if not corpus.methods and digests:
            corpus.methods = sum(int(row["NM"])
                                 for row in checks.read_sheet(work / "out"))
        record.update(corpus=corpus.describe(),
                      invocations=tally.attempted, failed=tally.failed,
                      failed_ratio=tally.failed / tally.attempted,
                      failures=tally.messages, report_sha256=digests,
                      machine_end=machine())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    return {"record": record,
            "result": {"correct": tally.failed == 0,
                       "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics}}


def print_run(run: dict) -> None:
    record, result = run["record"], run["result"]
    print(f"{record['workload']} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}): "
          f"{result['attempted']} invocations, {result['failed']} failed, "
          f"failed_ratio {record['failed_ratio']:.4f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6f} {metric['unit']}")
    for name, metric in record.get("raw", {}).items():
        print(f"  {name:<28} {metric['value']:>16.6f} {metric['unit']}"
              f"  (raw, not gated)")
    for message in record["failures"]:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark the classmetrics CLI on seeded corpora.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload (default: all, untraced and "
                         "traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 runs the traced run instead")
    args = ap.parse_args(argv)
    if not (SRC / "classmetrics" / "cli.py").is_file():
        print(f"error: no classmetrics sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload:
        plan = [(args.workload, bool(args.trace))]
    else:
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    for name, trace in plan:
        try:
            run = run_workload(name, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_run(run)
        print(json.dumps({"record": run["record"]}, sort_keys=True))
        print(json.dumps(run["result"]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
