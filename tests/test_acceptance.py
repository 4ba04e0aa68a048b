"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py -v`."""

import contextlib
import hashlib
import json
import random
import time
from fractions import Fraction

from classmetrics import build_model, parse, tokenize
from classmetrics.cli import main as cli_main
from classmetrics.metrics import MetricConfig, compute_rows
from classmetrics.report import correlations, emit_sheet, sheet_cells
from classmetrics.weyuker import (CCC_METRIC, generate_corpus,
                                  reports_to_text, run_all)

from conftest import FIXTURES, parse_file
from synth import random_project
from test_report import oracle_pearson

from cfg_oracle import cyclomatic_from_cfg, random_body, wrap_method

ANY_CLASS = MetricConfig(moa_policy="any-class")


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_namedb_reference_values(namedb_trio_dir):
    with criterion(1, "NameDB fixture reproduces its documented "
                      "reference values in under 1 s"):
        started = time.monotonic()
        units = [parse_file(p)
                 for p in sorted(namedb_trio_dir.glob("*.java"))]
        model = build_model(units)
        rows = {r.class_name: r for r in compute_rows(model)}
        elapsed = time.monotonic() - started
        namedb = rows["NameDB"]
        assert namedb.avcc == Fraction(1)   # AVCC = 1
        assert namedb.pack == 1             # NPI = 1
        assert namedb.nqu == 3              # NQ = 3
        assert namedb.nsub == 0             # NSB = 0
        assert namedb.nomt == 6             # NM = 6
        assert namedb.cc == 7               # CC = 7.00
        assert namedb.nsup == 2             # NS = 2
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_formula_identity(dlib_model):
    with criterion(2, "CCC and CC identities hold exactly on every "
                      "fixture row and >= 500 synthetic classes"):
        checked = 0

        def assert_identities(rows):
            nonlocal checked
            for row in rows:
                expected_ccc = (Fraction(row.nomt) + row.avcc + row.moa
                                + row.ext + row.nsup + row.nsub + row.intr
                                + row.pack + row.nqu)
                assert row.ccc == expected_ccc, row.class_name
                assert row.cc == row.iv + row.cmc, row.class_name
                checked += 1

        for cfg in (MetricConfig(), ANY_CLASS):
            assert_identities(compute_rows(dlib_model, cfg))
        tolerant_units = [parse_file(p) for p in
                          sorted((FIXTURES / "tolerant").glob("*.java"))]
        assert_identities(compute_rows(build_model(tolerant_units)))

        rng = random.Random(424242)
        for _ in range(11):
            assert_identities(compute_rows(random_project(rng, 50)))
        assert checked >= 500 + 2 * 18


def test_criterion_3_mccabe_against_cfg_oracle():
    with criterion(3, "1 + decision points equals E - N + 2P from an "
                      "independent CFG on >= 50 structured bodies"):
        checked = 0
        for seed in range(60):
            rng = random.Random(31000 + seed)
            body_ast = random_body(rng)
            source = wrap_method(body_ast)
            unit = parse(tokenize(source), f"gen{seed}.java")
            assert not unit.warnings, unit.warnings
            [decl] = unit.type_decls
            [method] = decl.methods
            production = 1 + method.body.decision_point_count
            oracle = cyclomatic_from_cfg(body_ast)
            assert production == oracle, f"seed {seed}: {source}"
            checked += 1
        assert checked >= 50


def test_criterion_4_weyuker_table(capsys):
    with criterion(4, "Weyuker harness at seed 42 / 1000 trials matches "
                      "the required verdicts in under 10 s"):
        started = time.monotonic()
        corpus = generate_corpus(42)
        reports = run_all(CCC_METRIC, corpus, 42, 1000)
        elapsed = time.monotonic() - started
        verdicts = {r.property_number: r.verdict for r in reports}
        assert verdicts[1] == "witnessed"
        assert verdicts[3] == "witnessed"
        assert verdicts[4] == "witnessed"
        assert verdicts[6] == "witnessed"
        assert verdicts[7] == "not-applicable"
        assert verdicts[8] == "no-counterexample-found"  # no violation
        assert verdicts[9] == "no-counterexample-found"  # no superadditivity
        # P5 must be emitted with whatever was found; a divergence from the
        # reference table is reported, never suppressed.
        p5 = next(r for r in reports if r.property_number == 5)
        assert p5.verdict in ("witnessed", "no-counterexample-found")
        text = reports_to_text(reports, len(corpus))
        assert "\n 5  " in text
        if p5.verdict == "witnessed":
            assert p5.witness is not None
            assert "DIVERGES" in text
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_5_correlations(dlib_model):
    with criterion(5, "CCC/WMC, CCC/CMC, CCC/CC correlations are defined, "
                      "deterministic and r(CCC, CMC) > 0"):
        rows = compute_rows(dlib_model, ANY_CLASS)
        first = correlations(rows)
        second = correlations(compute_rows(dlib_model, ANY_CLASS))
        assert first == second
        for name, value in first.items():
            assert value is not None, name
            assert -1.0 <= value <= 1.0, name
        assert first["CMC"] > 0
        expected = oracle_pearson([r.ccc for r in rows],
                                  [r.cmc for r in rows])
        assert abs(first["CMC"] - expected) < 1e-12


def test_criterion_6_byte_determinism(namedb_trio_dir, tmp_path, capsys):
    with criterion(6, "two --fixed-timestamp runs produce byte-identical "
                      "model.xml, metrics.csv, metrics.json, chart.svg, "
                      "weyuker.json"):
        digests = []
        for label in ("a", "b"):
            out = tmp_path / label
            code = cli_main([str(namedb_trio_dir), "--out", str(out),
                             "--weyuker", "--fixed-timestamp"])
            assert code == 0
            digests.append({
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("model.xml", "metrics.csv", "metrics.json",
                             "chart.svg", "weyuker.json")
            })
        assert digests[0] == digests[1]


def test_criterion_7_tolerant_parse(tmp_path, capsys):
    with criterion(7, "annotation + generic method are skipped with "
                      "warnings and other classes' metrics are unchanged"):
        out = tmp_path / "mixed"
        code = cli_main([str(FIXTURES / "tolerant"), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning:" in captured.err
        mixed_lines = (out / "metrics.csv").read_text().splitlines()
        plain_row = next(line for line in mixed_lines
                         if line.startswith("C,Plain,"))

        # The same class analyzed without the unsupported neighbor.
        plain_unit = parse_file(FIXTURES / "tolerant" / "Plain.java")
        solo_rows = compute_rows(build_model([plain_unit]))
        solo_row = emit_sheet([sheet_cells(row) for row in solo_rows],
                              "csv").splitlines()[1]
        assert plain_row == solo_row
