import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classmetrics
from classmetrics import build_model, weyuker
from classmetrics.metrics import MetricConfig, compute_row, compute_rows
from classmetrics.weyuker import (CCC_METRIC, CorpusEntry,
                                  MetricFunction, SyntheticClass,
                                  check_property, concat, fixture_corpus,
                                  from_class_model, generate_corpus,
                                  project_corpus, random_corpus, rename,
                                  reports_to_json, reports_to_text, run_all)
import weyuker_oracle
from conftest import FIXTURES, model_from_sources, parse_file, parse_source
from synth import random_project
from weyuker_oracle import (CMC_METRIC, collect_names, submetrics_of,
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


# The reference name walk: every identifier of p through `fn`, in walk
# order, rebuilding the class part by part.
def reference_map_names(p, fn):
    def map_type(text):
        base = text
        while base.endswith("[]"):
            base = base[:-2]
        return fn(base) + text[len(base):]

    def map_signature(sig):
        name, _, rest = sig.partition("(")
        params = [map_type(t) for t in rest.rstrip(")").split(",") if t]
        return f"{fn(name)}({','.join(params)})"

    return SyntheticClass(
        methods=frozenset(
            (map_signature(sig), c, vr, ec, vd)
            for (sig, c, vr, ec, vd) in sorted(p.methods)),
        fields=frozenset(
            (fn(n), map_type(t), u) for (n, t, u) in sorted(p.fields)),
        ancestors=frozenset(fn(n) for n in sorted(p.ancestors)),
        subclasses=frozenset(fn(n) for n in sorted(p.subclasses)),
        interfaces=frozenset(fn(n) for n in sorted(p.interfaces)),
        imports=frozenset(fn(n) for n in sorted(p.imports)),
    )


def reference_rename(p, mapping):
    source_of = {}

    def lookup(name):
        if name not in mapping:
            raise ValueError(f"mapping does not cover name {name!r}")
        target = mapping[name]
        src = source_of.setdefault(target, name)
        if src != name:
            raise ValueError(
                f"mapping is not injective: {src!r} and {name!r} "
                f"both map to {target!r}")
        return target

    return reference_map_names(p, lookup)


def reference_names(p):
    names = []
    reference_map_names(p, lambda name: names.append(name) or name)
    return names


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# Names built from the characters a signature is parsed by, plus format
# braces, so that a template that leaked a name would show.
_NAME = st.text(alphabet="ab(),[]{}0 ", max_size=6)
_TYPE = st.builds(str.__add__, _NAME, st.sampled_from(["", "[]", "[][]"]))
_SIGNATURE = st.one_of(_NAME, st.builds(
    "{}({}{}".format, _NAME, st.lists(_TYPE, max_size=3).map(",".join),
    st.sampled_from([")", "))", ""])))
_NUMBER = st.integers(0, 3)
_SYNTHETIC = st.builds(
    SyntheticClass,
    methods=st.frozensets(st.tuples(_SIGNATURE, _NUMBER, _NUMBER, _NUMBER,
                                    st.booleans()), max_size=4),
    fields=st.frozensets(st.tuples(_NAME, _TYPE, st.booleans()), max_size=3),
    ancestors=st.frozensets(_NAME, max_size=3),
    subclasses=st.frozensets(_NAME, max_size=2),
    interfaces=st.frozensets(_NAME, max_size=2),
    imports=st.frozensets(_NAME, max_size=2))


@settings(max_examples=150, deadline=None)
@given(_SYNTHETIC, st.data())
def test_rename_matches_reference_walk_property(cls, data):
    names = reference_names(cls)
    assert collect_names(cls) == set(names)
    distinct = sorted(set(names))
    shuffled = data.draw(st.permutations(distinct))
    mappings = [
        dict(zip(distinct, shuffled)),  # a bijection
        {n: data.draw(st.sampled_from("xyz")) for n in distinct},
        {n: f"t{i}" for i, n in enumerate(distinct)
         if data.draw(st.booleans())},  # may leave names uncovered
    ]
    for mapping in mappings:
        assert (outcome(rename, cls, mapping)
                == outcome(reference_rename, cls, mapping))


# A metric that reads names: how many method signatures sort before "m".
EARLY = MetricFunction(
    "EARLY", lambda cls: Fraction(sum(m[0] < "m" for m in cls.methods)))


def replay_p8(metric, corpus, seed, budget):
    """P8's trial stream rebuilt from its rule: the first `budget`
    entries round-robin, one trial each, a nameless class tried with no
    draw, then a shuffle or a prefix renaming drawn from the seeded rng
    and applied with rename. Returns (witness ident and mapping, trials,
    the (class, mapping) pairs drawn)."""
    rng = random.Random(seed * 1000003 + 8)
    named = [(e, metric(e.cls), sorted(set(reference_names(e.cls))))
             for e in corpus[:budget]]
    trials, drawn = 0, []
    for entry, value, names in itertools.cycle(named):
        if trials == budget:
            break
        trials += 1
        if not names:
            continue
        if rng.random() < 0.5:
            shuffled = names[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(names, shuffled))
        else:
            mapping = {n: f"r{i}_{n}" for i, n in enumerate(names)}
        drawn.append((entry.cls, mapping))
        if metric(rename(entry.cls, mapping)) != value:
            return (entry.ident, mapping), trials, drawn
    return None, trials, drawn


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_p8_replays_its_trial_rule(seed):
    corpus = generate_corpus(seed)
    for metric, budget in [(EARLY, 1000), (EARLY, 3), (CCC_METRIC, 1000),
                           (CCC_METRIC, 7)]:
        report = check_property(8, metric, corpus, budget, seed)
        found, trials, _ = replay_p8(metric, corpus, seed, budget)
        assert report.trials == trials
        if found is None:
            assert report.verdict == "no-counterexample-found"
        else:
            ident, mapping = found
            assert report.witness["classes"][0]["ident"] == ident
            assert report.witness["mapping"] == mapping
            assert verify_witness(report, metric, corpus)
    # The name-reading metric is caught, so the witness branch ran.
    assert check_property(8, EARLY, corpus, 1000, seed).witness


def recording(calls, fn):
    """fn, appending each call's arguments to `calls` first."""
    return lambda *args: calls.append(args) or fn(*args)


def test_p8_builds_one_skeleton_per_entry(monkeypatch):
    built = []
    monkeypatch.setattr(weyuker, "_skeleton",
                        recording(built, weyuker._skeleton))
    corpus = generate_corpus(42)
    reports = run_all(CCC_METRIC, corpus, 42, 1000)
    assert reports[7].trials == 1000
    assert len(built) == len(corpus) == 60

    # Three copies of every class, side by side: a run still builds one
    # skeleton and makes one metric call per distinct class, one concat
    # and one metric call per distinct ordered union, and one metric call
    # per distinct renamed class, that is per distinct (class, mapping).
    copies = [e._replace(ident=f"{e.ident}~{i}")
              for e in corpus for i in range(3)]
    asked = []  # every union the reference evaluation asks for
    monkeypatch.setattr(weyuker_oracle, "concat",
                        recording(asked, weyuker.concat))
    weyuker_oracle.run_all(CCC_METRIC, copies, 42, 1000)
    _, trials, drawn = replay_p8(CCC_METRIC, copies, 42, 1000)
    renamed = {(cls, tuple(sorted(mapping.items()))) for cls, mapping in drawn}
    built.clear()
    made, evaluated = [], []
    monkeypatch.setattr(weyuker, "concat", recording(made, weyuker.concat))
    metric = MetricFunction("CCC", recording(evaluated, CCC_METRIC))
    reports = run_all(metric, copies, 42, 1000)
    assert reports[7].trials == trials == 1000
    assert len(built) == 60
    assert len(made) == len(set(made)) and set(made) == set(asked)
    assert len(asked) > len(made)
    assert len(drawn) > len(renamed)
    assert len(evaluated) == 60 + len(made) + len(renamed)


# ---------------------------------------------------------------------------
# The class view: rows and the harness read the same parts, and both are
# checked against the oracle's sub-metrics, which sum them independently


def test_synthetic_mapping_reproduces_engine_ccc(dlib_model):
    for cfg in (MetricConfig(), MetricConfig(moa_policy="any-class")):
        rows = {row.class_name: row for row in compute_rows(dlib_model, cfg)}
        for entry in project_corpus(dlib_model, cfg):
            assert CCC_METRIC(entry.cls) == rows[entry.ident].ccc, entry.ident
            assert CMC_METRIC(entry.cls) == rows[entry.ident].cmc


def test_project_corpus_refuses_an_unknown_moa_policy():
    # As compute_row does, though no field of A has a class type.
    model = model_from_sources("class A { int x; void f() { } }")
    with pytest.raises(ValueError, match="unknown MOA policy: 'bogus'"):
        project_corpus(model, MetricConfig(moa_policy="bogus"))


# Legal Java: a repeated import is ignored (JLS 7.5.1-7.5.4).
REPEATED_IMPORTS = (
    "package p; import java.util.*; import java.util.*; "
    "import static java.lang.Math.max; import static java.lang.Math.max; "
    "class A { int f() { return max(1, 2); } }")


def test_harness_ccc_is_the_sheet_ccc_for_every_class(dlib_model):
    tolerant = sorted((FIXTURES / "tolerant").glob("*.java"))
    repeated = model_from_sources(REPEATED_IMPORTS)
    # Invalid Java (JLS 8.3, 8.4.2): the parser keeps the first of each.
    repeated_members = model_from_sources(
        "class A { int x; int x; void f() {} void f() {} }")
    # A constructor and a method may share name(params); both count.
    shared_signature = model_from_sources("class A { A() {} void A() {} }")
    models = [dlib_model, build_model([parse_file(p) for p in tolerant]),
              repeated, repeated_members, shared_signature]
    for model in models:
        for decl in model.ordered_decls():
            assert (CCC_METRIC(from_class_model(decl, model))
                    == compute_row(decl, model).ccc), decl.name
    [decl] = repeated.ordered_decls()
    row = compute_row(decl, repeated)
    assert (row.pack, row.ccc) == (2, 6)


ROW_SUBMETRICS = ("nomt", "avcc", "moa", "ext", "nsup", "nsub", "intr",
                  "pack", "nqu")


def test_rows_match_the_oracle_submetrics_of_the_class_view(dlib_model):
    models = [dlib_model] + [random_project(random.Random(seed), 50)
                             for seed in (3, 17, 2024)]
    configs = [MetricConfig(moa_policy=policy, count_constructors=ctors)
               for policy in ("project", "any-class")
               for ctors in (True, False)]
    checked = 0
    for model, cfg in itertools.product(models, configs):
        for decl, row in zip(model.ordered_decls(), compute_rows(model, cfg)):
            sub = submetrics_of(from_class_model(decl, model, cfg))
            assert ([getattr(row, name) for name in ROW_SUBMETRICS]
                    == [sub[name.upper()] for name in ROW_SUBMETRICS]), (
                row.class_name, cfg)
            checked += 1
    assert checked == 4 * (len(dlib_model.ordered_decls()) + 3 * 50)


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


def test_p6_third_class_may_share_a_members_ident():
    # Project idents have no package, so a class in another package can
    # carry a member's name; only the two member entries themselves are
    # excluded as the third class.
    corpus = [CorpusEntry("Node", make([("m()", 1, 0, 0, True)])),
              CorpusEntry("Leaf", make([("n()", 1, 0, 0, True)])),
              CorpusEntry("Node", make([("m()", 5, 1, 2, False)]))]
    report = check_property(6, CCC_METRIC, corpus, 10)
    assert (report.verdict, report.trials) == ("witnessed", 1)
    assert report.witness["relation"] == (
        "mu(Node)=mu(Leaf)=2 but mu(Node+Node)=2 != mu(Leaf+Node)=8")


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


# The squared method count: superadditive on classes whose signatures
# are disjoint, and distinct on classes with distinct method counts.
SQUARED = MetricFunction("NOMT2",
                         lambda cls: Fraction(len(cls.methods)) ** 2)


def test_p9_witnessed_by_a_superadditive_metric():
    corpus = [CorpusEntry("a", make([("f()", 1, 0, 0, True)])),
              CorpusEntry("b", make([("g()", 1, 0, 0, True)]))]
    report = check_property(9, SQUARED, corpus, 10)
    assert (report.verdict, report.trials, report.note) == (
        "witnessed", 1, "")
    assert report.witness == {
        "classes": [{"ident": "a", "value": "1"},
                    {"ident": "b", "value": "1"},
                    {"ident": "a+b", "value": "4"}],
        "relation": "1 + 1 < 4"}
    text = reports_to_text([report], len(corpus))
    assert " 9  witnessed                  holds         fails      DIVERGES\n" \
        in text
    assert text.endswith("\nP9 witness: 1 + 1 < 4\n")


def test_p6_notes_a_corpus_without_equal_values():
    corpus = [CorpusEntry("one", make([("f()", 1, 0, 0, True)])),
              CorpusEntry("two", make([("f()", 1, 0, 0, True),
                                       ("g()", 1, 0, 0, True)]))]
    report = check_property(6, SQUARED, corpus, 10)
    assert (report.verdict, report.trials, report.witness) == (
        "no-counterexample-found", 0, None)
    assert report.note == "no equal-valued class pair found to start from"


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


def packaged_dlib_units(dlib_dir, copies: int) -> list:
    """The dlib fixtures copied into packages dlib.p0, dlib.p1, ..., one
    package per copy, as in the bench's wide corpus."""
    return [parse_source(path.read_text(encoding="utf-8").replace(
                "package dlib;", f"package dlib.p{copy};", 1),
                f"p{copy}/{path.name}")
            for copy in range(copies) for path in sorted(dlib_dir.glob("*.java"))]


def test_witnesses_naming_two_namesakes_reverify(dlib_dir):
    # Project idents carry no package. Two packages' copies of the dlib
    # classes plus a third package's different BaseObject, last in the
    # corpus.
    units = packaged_dlib_units(dlib_dir, 2)
    units.append(parse_source("package dlib.p9; public class BaseObject "
                              "{ void f() { if (a) g(); } }",
                              "p9/BaseObject.java"))
    corpus = project_corpus(build_model(units))
    reports = run_all(CMC_METRIC, corpus, 42, 1000)
    assert reports[5].witness["relation"] == (
        "mu(BaseObject)=mu(NamedObject)=4 but mu(BaseObject+BaseObject)=4"
        " != mu(NamedObject+BaseObject)=8")
    for report in reports:
        if report.verdict == "witnessed":
            assert verify_witness(report, CMC_METRIC, corpus), \
                report.property_number


@pytest.fixture(scope="module")
def three_package_model(dlib_dir):
    return build_model(packaged_dlib_units(dlib_dir, 3))


def test_project_corpus_keeps_one_object_per_distinct_class(
        three_package_model):
    model = three_package_model
    corpus = project_corpus(model)
    decls = model.ordered_decls()
    assert [e.ident for e in corpus] == list(map(model.display_name_of, decls))
    assert [e.cls for e in corpus] == [from_class_model(d, model)
                                       for d in decls]
    # Each package's copy of a class equals the others', and all three
    # are one object.
    distinct = {e.cls for e in corpus}
    assert len(distinct) == len(corpus) // 3
    assert len({id(e.cls) for e in corpus}) == len(distinct)


@pytest.mark.parametrize("seed", [7, 42])
def test_shared_classes_report_as_equal_copies(seed, three_package_model):
    # Matching a shared class by identity must give the bytes that equal
    # but distinct objects give, and the reference evaluation's.
    corpus = project_corpus(three_package_model)
    fresh = [e._replace(cls=SyntheticClass(*map(frozenset, map(list, e.cls))))
             for e in corpus]
    assert all(f.cls == e.cls and f.cls is not e.cls
               for f, e in zip(fresh, corpus))
    for metric in (CCC_METRIC, CMC_METRIC):
        got = run_all(metric, corpus, seed, 1000)
        for want in (run_all(metric, fresh, seed, 1000),
                     weyuker_oracle.run_all(metric, corpus, seed, 1000)):
            for render in (reports_to_json, reports_to_text):
                assert (render(got, len(corpus))
                        == render(want, len(corpus))), metric.name


def held_by_project_corpus(model) -> int:
    """The bytes, by tracemalloc, that project_corpus's result holds."""
    tracemalloc.start()
    try:
        corpus = project_corpus(model)  # alive while it is measured
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_project_corpus_memory_does_not_grow_with_copies(dlib_dir):
    # Twelve packages' copies of the fixtures add entries but no class.
    one, twelve = (held_by_project_corpus(build_model(
        packaged_dlib_units(dlib_dir, copies))) for copies in (1, 12))
    assert twelve < 3 * one, (one, twelve)


@pytest.mark.parametrize("seed", [7, 42])
def test_run_all_matches_the_reference_evaluation(seed):
    # The reference evaluates the metric for every entry and concat for
    # every candidate; sharing evaluations between repeats must not
    # change a byte of either report.
    corpus = generate_corpus(seed)
    repeated = [e._replace(ident=f"{e.ident}~{i}")
                for i in range(3) for e in corpus]
    for entries, budget, metric in itertools.product(
            (corpus, repeated), (17, 1000), (CCC_METRIC, EARLY)):
        got = run_all(metric, entries, seed, budget)
        want = weyuker_oracle.run_all(metric, entries, seed, budget)
        for render in (reports_to_json, reports_to_text):
            assert (render(got, len(entries))
                    == render(want, len(entries))), (budget, metric.name)


def one_name_corpus() -> list[CorpusEntry]:
    """Classes of one name each, so every shuffle is the identity and a
    class's renamings repeat from its second draw of a kind on."""
    return [CorpusEntry(f"one-{i}", cls) for i, cls in enumerate([
        make(fields=[("Buffer", "Buffer", True)]),  # name and type alike
        make([("z()", 2, 1, 0, False)]),
        make(ancestors=["Base"]),
        make([("a()", 1, 0, 0, True)]),  # EARLY changes when it is renamed
        make(imports=["java.io.*"]),
        EMPTY,
    ])]


@pytest.mark.parametrize("seed", [7, 42])
def test_memoised_renamings_match_the_reference_evaluation(seed, dlib_model):
    # The reference evaluates every renamed class on every trial; a run
    # that evaluates each distinct renamed class once must give the same
    # bytes, with and without a witness.
    project = project_corpus(dlib_model)
    repeated = [e._replace(ident=f"{e.ident}~{i}")
                for i in range(3) for e in project]
    for entries, budget, metric in itertools.product(
            (repeated, one_name_corpus()), (17, 1000),
            (CCC_METRIC, EARLY, CMC_METRIC)):
        got = run_all(metric, entries, seed, budget)
        want = weyuker_oracle.run_all(metric, entries, seed, budget)
        for render in (reports_to_json, reports_to_text):
            assert (render(got, len(entries))
                    == render(want, len(entries))), (budget, metric.name)
    # At seed 42, EARLY's witness comes on the fifth visit to its class,
    # after its identity shuffles were evaluated once and reused.
    p8 = check_property(8, EARLY, one_name_corpus(), 1000, seed)
    assert p8.witness["mapping"] == {"a": "r0_a"}
    assert p8.trials == {7: 4, 42: 28}[seed]


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
