import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import classmetrics
from classmetrics.metrics import MetricConfig, compute_rows
from classmetrics.weyuker import (CCC_METRIC, CMC_METRIC, CorpusEntry,
                                  MetricFunction, SyntheticClass,
                                  check_property, collect_names, concat,
                                  fixture_corpus, from_class_model,
                                  generate_corpus, project_corpus,
                                  random_corpus, rename, reports_to_json,
                                  reports_to_text, run_all, submetrics_of,
                                  verify_witness)


def make(methods=(), **kwargs):
    return SyntheticClass(
        methods=frozenset(methods),
        **{key: frozenset(value) for key, value in kwargs.items()})


EMPTY = SyntheticClass()
P_SIMPLE = make([("m1()", 1, 0, 0, True)])
Q_SIMPLE = make([("m2()", 3, 1, 0, False)])


# ---------------------------------------------------------------------------
# concat


def test_concat_idempotent():
    for entry in fixture_corpus():
        assert concat(entry.cls, entry.cls) == entry.cls


def test_concat_identity_element():
    for entry in fixture_corpus():
        assert concat(EMPTY, entry.cls) == entry.cls
        assert concat(entry.cls, EMPTY) == entry.cls


def test_concat_disjoint_methods_average():
    combined = concat(P_SIMPLE, Q_SIMPLE)
    sub = submetrics_of(combined)
    assert sub["NOMT"] == 2
    assert sub["AVCC"] == 2
    assert sub["NOMT"] + sub["AVCC"] == 4


def test_concat_collision_keeps_left_tuple():
    p = make([("m(int)", 1, 0, 0, True)])
    q = make([("m(int)", 9, 2, 5, False)])
    assert concat(p, q) == p
    assert concat(q, p) == q


def test_concat_commutative_on_disjoint_signatures():
    rng = random.Random(13)
    entries = random_corpus(13, 30)
    for _ in range(60):
        a, b = rng.sample(entries, 2)
        sigs_a = {m[0] for m in a.cls.methods}
        sigs_b = {m[0] for m in b.cls.methods}
        if sigs_a & sigs_b:
            continue
        assert concat(a.cls, b.cls) == concat(b.cls, a.cls)


def test_submetric_union_bound_over_random_pairs():
    rng = random.Random(4242)
    entries = random_corpus(4242, 40)
    for _ in range(200):
        a, b = rng.sample(entries, 2)
        combined = submetrics_of(concat(a.cls, b.cls))
        pa, pb = submetrics_of(a.cls), submetrics_of(b.cls)
        for name in ("NOMT", "MOA", "EXT", "NSUP", "NSUB", "INTR",
                     "PACK", "NQU"):
            assert combined[name] <= pa[name] + pb[name], name
        # AVCC is also subadditive under this merge; P9 relies on it.
        assert combined["AVCC"] <= pa["AVCC"] + pb["AVCC"]


# ---------------------------------------------------------------------------
# rename


def rename_corpora(model):
    return [fixture_corpus(), random_corpus(5, 100), project_corpus(model)]


def test_rename_identity(dlib_model):
    for corpus in rename_corpora(dlib_model):
        for entry in corpus:
            names = collect_names(entry.cls)
            assert rename(entry.cls, {n: n for n in names}) == entry.cls


def test_rename_preserves_metric(dlib_model):
    for corpus in rename_corpora(dlib_model):
        for entry in corpus:
            names = sorted(collect_names(entry.cls))
            reversed_map = {n: n[::-1] + "_x" for n in names}
            renamed = rename(entry.cls, reversed_map)
            assert CCC_METRIC(renamed) == CCC_METRIC(entry.cls)
            # collect_names finds exactly the names rename looks up.
            assert collect_names(renamed) == set(reversed_map.values())


def test_rename_swap_preserves_cardinalities():
    p = make([("a()", 1, 0, 0, True), ("b()", 2, 1, 0, False)])
    swapped = rename(p, {"a": "b", "b": "a"})
    assert swapped != p
    assert len(swapped.methods) == 2
    assert submetrics_of(swapped) == submetrics_of(p)


def test_rename_rejects_non_injective_mapping():
    p = make([("a()", 1, 0, 0, True), ("b()", 1, 0, 0, True)])
    with pytest.raises(ValueError):
        rename(p, {"a": "same", "b": "same"})
    # One signature fixes the lookup order: the parameter types, then the
    # method name.
    with pytest.raises(ValueError) as err:
        rename(make([("a(b)", 1, 0, 0, True)]), {"a": "same", "b": "same"})
    assert str(err.value) == ("mapping is not injective: 'b' and 'a' "
                              "both map to 'same'")


CLASH_SCRIPT = """
from classmetrics.weyuker import SyntheticClass, rename
p = SyntheticClass(methods=frozenset(
    (f"f{i}()", 1, 0, 0, True) for i in range(3)))
try:
    rename(p, {"f0": "same", "f1": "f1", "f2": "same"})
except ValueError as exc:
    print(exc)
"""


def test_rename_clash_message_ignores_hash_seed():
    # Three signatures sit in a frozenset, whose iteration order follows
    # string hashing; the message must not.
    src = str(Path(classmetrics.__file__).resolve().parents[1])
    messages = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", CLASH_SCRIPT],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        messages.add(result.stdout)
    assert messages == {"mapping is not injective: 'f0' and 'f2' "
                        "both map to 'same'\n"}


def test_rename_requires_full_coverage():
    with pytest.raises(ValueError):
        rename(P_SIMPLE, {})


# ---------------------------------------------------------------------------
# from_class_model cross-check (dual route for the engine)


def test_synthetic_mapping_reproduces_engine_ccc(dlib_model):
    for cfg in (MetricConfig(), MetricConfig(moa_policy="any-class")):
        rows = {row.class_name: row for row in compute_rows(dlib_model, cfg)}
        for entry in project_corpus(dlib_model, cfg):
            assert CCC_METRIC(entry.cls) == rows[entry.ident].ccc, entry.ident
            assert CMC_METRIC(entry.cls) == rows[entry.ident].cmc


def test_ccc_metric_equals_submetric_sum(dlib_model):
    fixtures = fixture_corpus()
    corpora = [generate_corpus(seed) for seed in (1, 42, 2024)]
    corpora.append(random_corpus(5, 300))
    corpora.append([CorpusEntry(f"{a.ident}+{b.ident}", concat(a.cls, b.cls))
                    for a in fixtures for b in fixtures])
    corpora.append(project_corpus(dlib_model))
    for corpus in corpora:
        for entry in corpus:
            assert (CCC_METRIC(entry.cls)
                    == sum(submetrics_of(entry.cls).values())), entry.ident


# ---------------------------------------------------------------------------
# check_property


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        check_property(1, CCC_METRIC, fixture_corpus(), 0)
    with pytest.raises(ValueError):
        check_property(12, CCC_METRIC, fixture_corpus(), 10)


def test_p1_witnessed_on_empty_and_namedb():
    corpus = [e for e in fixture_corpus()
              if e.ident in ("empty", "namedb-shape")]
    report = check_property(1, CCC_METRIC, corpus, 100)
    assert report.verdict == "witnessed"
    values = {c["ident"]: c["value"] for c in report.witness["classes"]}
    assert values == {"empty": "0", "namedb-shape": "22"}


def test_p7_always_not_applicable():
    report = check_property(7, CCC_METRIC, [], 1)
    assert report.verdict == "not-applicable"


def test_p2_structural_note():
    report = check_property(2, CCC_METRIC, fixture_corpus(), 10)
    assert report.verdict == "not-applicable"
    assert "structural" in report.note


# C(12, 2) - 1, C(12, 2), C(12, 2) + 1, and past P6's 25 * 10 triples.
@pytest.mark.parametrize("budget", [65, 66, 67, 300])
def test_trial_budget_against_constant_metric(budget):
    # A constant metric gives no witness except P3's, so every other
    # search runs until its candidates or its budget run out, and each
    # trial count follows from n and the budget alone.
    n = 12
    pairs = comb(n, 2)
    zero = MetricFunction("ZERO", lambda cls: Fraction(0))
    corpus = [CorpusEntry(f"c{i}", make([(f"m{i}()", 1, 0, 0, True)]))
              for i in range(n)]
    reports = {r.property_number: r for r in run_all(zero, corpus, 0, budget)}
    expected = {1: min(budget, pairs), 5: min(budget, pairs),
                9: min(budget, pairs), 6: min(budget, 25 * (n - 2)),
                8: budget, 4: 0}
    for k, trials in expected.items():
        assert reports[k].verdict == "no-counterexample-found", k
        assert reports[k].trials == trials, k
    assert (reports[3].verdict, reports[3].trials) == ("witnessed", 1)
    assert reports[4].note == "corpus declares no equivalence groups"
    # P1's and P9's notes claim the whole search ran, which a spent
    # budget does not show.
    for k in (1, 9):
        assert bool(reports[k].note) == (budget >= pairs), k


def test_p8_no_violation_across_corpus():
    corpus = generate_corpus(42)
    report = check_property(8, CCC_METRIC, corpus, 500, seed=42)
    assert report.verdict == "no-counterexample-found"
    assert report.trials == 500


def test_p9_never_superadditive():
    corpus = generate_corpus(7)
    report = check_property(9, CCC_METRIC, corpus, 800, seed=7)
    assert report.verdict == "no-counterexample-found"


def test_run_all_seed42_matches_expected_verdicts():
    corpus = generate_corpus(42)
    reports = run_all(CCC_METRIC, corpus, 42, 1000)
    verdicts = {r.property_number: r.verdict for r in reports}
    assert verdicts[1] == "witnessed"
    assert verdicts[3] == "witnessed"
    assert verdicts[4] == "witnessed"
    assert verdicts[6] == "witnessed"
    assert verdicts[7] == "not-applicable"
    assert verdicts[8] == "no-counterexample-found"
    assert verdicts[9] == "no-counterexample-found"
    assert verdicts[5] in ("witnessed", "no-counterexample-found")


def test_witnesses_reverify():
    corpus = generate_corpus(42)
    for report in run_all(CCC_METRIC, corpus, 42, 1000):
        if report.verdict == "witnessed":
            assert verify_witness(report, CCC_METRIC, corpus), \
                report.property_number


def test_reports_are_deterministic():
    corpus = generate_corpus(42)
    first = run_all(CCC_METRIC, corpus, 42, 1000)
    second = run_all(CCC_METRIC, generate_corpus(42), 42, 1000)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_report_accumulation_is_merge_safe(dlib_model):
    # Per-property reports are independent; assembling them in any order
    # yields the same set, and run_all's shared metric values give what
    # each property evaluating the corpus on its own gives.
    for corpus in (generate_corpus(11), project_corpus(dlib_model)):
        forward = {r.property_number: r.to_dict()
                   for r in run_all(CCC_METRIC, corpus, 11, 200)}
        backward = {
            k: check_property(k, CCC_METRIC, corpus, 200, 11).to_dict()
            for k in range(9, 0, -1)}
        assert forward == backward


# ---------------------------------------------------------------------------
# emission


def test_json_report_form():
    corpus = generate_corpus(42)
    reports = run_all(CCC_METRIC, corpus, 42, 300)
    payload = json.loads(reports_to_json(reports, len(corpus)))
    assert payload["seed"] == 42
    assert payload["trial_budget"] == 300
    assert len(payload["properties"]) == 9
    by_number = {p["property"]: p for p in payload["properties"]}
    assert by_number[7]["verdict"] == "not-applicable"
    assert by_number[9]["reference"] == "fails"


def test_text_report_mirrors_reference_table():
    corpus = generate_corpus(42)
    reports = run_all(CCC_METRIC, corpus, 42, 1000)
    text = reports_to_text(reports, len(corpus))
    assert "seed=42" in text
    assert "reference" in text
    for k in range(1, 10):
        assert f"\n {k}  " in text
    if any(r.property_number == 5 and r.verdict == "witnessed"
           for r in reports):
        assert "DIVERGES" in text
