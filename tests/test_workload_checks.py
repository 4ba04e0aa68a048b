"""Each benchmark workload's own output checks pass on a run of the CLI
with that workload's corpus and flags, so output the benchmark would
count as incorrect fails here first. The benchmark is imported, never
changed."""

from pathlib import Path

from classmetrics import cli
from conftest import DLIB_DIR

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 7


def test_every_workload_passes_its_own_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    from workloads import WORKLOADS
    problems = {}
    for name, workload in WORKLOADS.items():
        corpus = workload.make(DLIB_DIR, tmp_path / name, SEED)
        out = tmp_path / f"{name}-out"
        code = cli.main(
            [corpus.root.name, "--out", out.name, *workload.flags])
        problems[name] = [f"exit code {code}"] if code else workload.check(
            corpus, out)
    assert problems == dict.fromkeys(WORKLOADS, [])
