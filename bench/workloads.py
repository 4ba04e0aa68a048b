"""The benchmark workloads: how each builds its corpus, which CLI flags it
runs with, and how its output is checked. BENCHMARK.json records why each
workload was chosen, with its corpus description."""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import corpus as corpora
from corpus import Corpus

# Sizes chosen so that one CLI invocation takes about 1.5 s on a 2-core
# Xeon VM, giving a run of 30 s enough invocations for a steady median.
DLIB_COPIES = 40
DEEP_BYTES = 640 * 1024

_SHEET_FILES = ["model.xml", "metrics.csv", "chart.svg", "run.json"]
_ALL_FILES = _SHEET_FILES + ["metrics.json", "weyuker.json", "weyuker.txt"]


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple
    make: Callable[[Path, Path, int], Corpus]  # (fixture dir, root, seed)
    check: Callable[[Corpus, Path], list[str]]  # (corpus, report dir)


def _fixture_check(verdicts: dict):
    """Checks for corpora made of fixture copies, all formats written and
    the harness run with the given allowed verdicts."""
    def check(corpus: Corpus, out: Path) -> list[str]:
        rows = checks.read_sheet(out)
        return checks.run_checks(
            lambda: checks.expect_files(out, _ALL_FILES),
            lambda: checks.copy_invariance(rows, corpus.fixture_types,
                                           corpus.copies),
            lambda: checks.identities(rows),
            lambda: checks.ccc_sum(rows, corpus.fixture_types),
            lambda: checks.json_matches_csv(out, rows),
            lambda: checks.weyuker_verdicts(out, verdicts),
            lambda: checks.input_count(out, corpus.files),
        )
    return check


def _check_decision_deep(corpus: Corpus, out: Path) -> list[str]:
    rows = checks.read_sheet(out)
    no_interfaces = dict.fromkeys(corpus.oracle, 0)
    return checks.run_checks(
        lambda: checks.expect_files(out, _SHEET_FILES),
        lambda: checks.cfg_oracle(rows, corpus.oracle),
        lambda: checks.identities(rows),
        lambda: checks.ccc_sum(rows, no_interfaces),
        lambda: checks.input_count(out, corpus.files),
    )


WORKLOADS = {w.name: w for w in [
    # Every layer does real work: the lexer (comments on every second
    # copy), parser, model, metrics, all four report formats and the
    # harness on the project corpus.
    Workload(
        name="dlib-wide",
        flags=("--weyuker", "--weyuker-corpus", "project",
               "--moa-policy", "any-class", "--format", "all",
               "--fixed-timestamp"),
        make=lambda fixtures, root, seed: corpora.dlib_wide(
            fixtures, root, seed, DLIB_COPIES),
        check=_fixture_check(checks.STRUCTURAL_VERDICTS),
    ),
    # The lexer and the parser's body scan dominate; no harness, and
    # --format csv renders formats that are never written.
    Workload(
        name="decision-deep",
        flags=("--wmc", "weighted", "--format", "csv", "--fixed-timestamp"),
        make=lambda fixtures, root, seed: corpora.decision_deep(
            root, seed, DEEP_BYTES),
        check=_check_decision_deep,
    ),
    # The README example: start-up, import and the synthetic harness
    # dominate, so start-up costs that help the big corpora show here.
    Workload(
        name="fixture-cli",
        flags=("--moa-policy", "any-class", "--weyuker", "--fixed-timestamp"),
        make=lambda fixtures, root, seed: corpora.copy_fixtures(
            fixtures, root),
        check=_fixture_check(checks.CRITERION_4_VERDICTS),
    ),
]}
