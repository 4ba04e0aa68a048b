"""Empirical evaluation of class metrics against Weyuker's properties.

Classes are abstracted to SyntheticClass values (sets of method tuples,
fields, relations); metrics.py defines that view, from_class_model and
the CCC evaluator, where a sheet row sums the same parts. Concatenation
of two classes is the set union of their parts, deduplicating methods by
signature. The harness searches a corpus for witnesses (existential
properties) or violations (universal properties) within a trial budget
and reports verdicts next to a reference verdict table, flagging
divergences instead of suppressing them. The project corpus holds one
object per distinct class: equal classes, such as copies of one source
in several packages, share the first object built for them.

Trial rule: each property check walks a stream of candidates (class
pairs, triples or renamings). A candidate counts as one trial before it
is tried; when `trial_budget` trials have been counted and a further
candidate is due, the search stops with no-counterexample-found. A note
that claims the whole stream was searched is set only when the stream
ran to its end.

Renaming (property 8) works on a class's name skeleton: its name slots
in one walk order (methods sorted, each one's parameter types before its
name, then the sorted fields, name before type, ancestors, subclasses,
interfaces and imports) and format templates that rebuild the class
from one name per slot. rename looks every slot up, then fills the
templates. The P8 check builds each class's skeleton and sorted names
once and keeps them for the whole check; it evaluates each distinct
renamed class once: every trial draws a mapping, and only a mapping not
drawn for that class before is built, checked, filled and evaluated.
"""

import itertools
import json
import random
from fractions import Fraction
from sys import intern
from typing import NamedTuple

from .metrics import (DEFAULT_CONFIG, MetricConfig, SyntheticClass, ccc_of,
                      from_class_model)
from .model import ProjectModel
from .parser import Record


class MetricFunction(NamedTuple):
    name: str
    evaluator: object  # SyntheticClass -> Fraction

    def __call__(self, cls: SyntheticClass) -> Fraction:
        return self.evaluator(cls)


CCC_METRIC = MetricFunction("CCC", ccc_of)


class CorpusEntry(NamedTuple):
    ident: str
    cls: SyntheticClass
    equivalence_group: str | None = None


class PropertyReport(Record, note=""):
    # verdict: witnessed | no-counterexample-found | not-applicable
    __slots__ = ("property_number", "metric_name", "verdict", "witness",
                 "trials", "trial_budget", "seed", "note")
    _KEYS = ("property", "metric", "verdict", "witness", "trials",
             "trial_budget", "seed", "note")  # to_dict's, in slot order

    def to_dict(self) -> dict:
        return dict(zip(self._KEYS, self._values()))


# ---------------------------------------------------------------------------
# Core operations


def concat(p: SyntheticClass, q: SyntheticClass) -> SyntheticClass:
    """Union of all parts; method signatures deduplicate keeping p's
    tuple on collision."""
    merged = {**_by_signature(q), **_by_signature(p)}
    # Every other part is the union of the two.
    return SyntheticClass(frozenset(merged.values()),
                          *[a | b for a, b in zip(p[1:], q[1:])])


def _by_signature(p: SyntheticClass) -> dict:
    """p's methods by signature, the last in sorted order on a collision."""
    if isinstance(p, _Indexed):
        return p.by_signature
    return {m[0]: m for m in sorted(p.methods)}


class _Indexed(SyntheticClass):
    """A class with its signature map made once. It equals and hashes as
    the class itself, so concat takes it in the class's place."""

    def __new__(cls, p: SyntheticClass):
        self = super().__new__(cls, *p)
        self.by_signature = _by_signature(p)
        return self


def _skeleton(p: SyntheticClass) -> tuple[list[str], list[str], tuple]:
    """p's name skeleton: its name slots in walk order, its sorted
    distinct names, and the shape that _fill rebuilds p from."""
    slots: list[str] = []

    def slot(name: str, suffix: str = "") -> str:
        slots.append(name)
        return intern(f"{{0[{len(slots) - 1}]}}{suffix}")

    def type_slot(text: str) -> str:
        base = text
        while base.endswith("[]"):
            base = base[:-2]
        return slot(base, text[len(base):])

    methods = []
    for sig, *facts in sorted(p.methods):
        name, _, params = sig.partition("(")
        params = [type_slot(t) for t in params.rstrip(")").split(",") if t]
        methods.append((intern(f"{slot(name)}({','.join(params)})"), *facts))
    fields = [(slot(n), type_slot(t), u) for n, t, u in sorted(p.fields)]
    bounds = [len(slots)]
    for part in p[2:]:  # ancestors, subclasses, interfaces, imports
        slots.extend(sorted(part))
        bounds.append(len(slots))
    # Columns, so that _fill zips each part's filled templates with the
    # numbers and flags beside them. Classes share interned templates.
    shape = tuple(zip(*methods)) or ((),) * 5, tuple(zip(*fields)) or ((),) * 3
    return slots, sorted(set(slots)), (*shape, tuple(bounds))


def _fill(shape: tuple, targets: list[str]) -> SyntheticClass:
    """The class a skeleton's shape describes, with targets[i] in slot i."""
    (sigs, *facts), (names, types, users), bounds = shape
    fill = itertools.repeat(targets)
    return SyntheticClass(
        frozenset(zip(map(str.format, sigs, fill), *facts)),
        frozenset(zip(map(str.format, names, fill),
                      map(str.format, types, fill), users)),
        *[frozenset(targets[start:end])
          for start, end in zip(bounds, bounds[1:])])


def rename(p: SyntheticClass, mapping: dict[str, str]) -> SyntheticClass:
    """Apply a name bijection to every identifier in p."""
    slots, _, shape = _skeleton(p)
    source_of: dict[str, str] = {}  # target -> first name mapped to it
    for name in slots:
        if name not in mapping:
            raise ValueError(f"mapping does not cover name {name!r}")
        src = source_of.setdefault(mapping[name], name)
        if src != name:
            raise ValueError(
                f"mapping is not injective: {src!r} and {name!r} "
                f"both map to {mapping[name]!r}")
    return _fill(shape, [mapping[name] for name in slots])


# ---------------------------------------------------------------------------
# Corpora


def fixture_corpus() -> list[CorpusEntry]:
    """Handcrafted classes exercising every property check."""

    def cls(**parts):
        return SyntheticClass(**{k: frozenset(v) for k, v in parts.items()})

    name_db = cls(
        methods=[
            ("NameDB(String)", 1, 0, 1, True),
            ("FindName(int)", 1, 1, 1, False),
            ("FindName(Integer)", 1, 1, 1, False),
            ("FindNumber(String)", 1, 1, 1, False),
            ("AddName(String,int)", 1, 0, 2, True),
            ("AddName(String,Object)", 1, 0, 2, True),
        ],
        fields=[("Names", "Hashtable", True)],
        ancestors=["NamedObject", "BaseObject"],
        imports=["java.util.*"],
    )
    return [
        CorpusEntry("empty", cls()),
        CorpusEntry("namedb-shape", name_db),
        CorpusEntry("deep-single", cls(
            methods=[("collate(String)", 60, 1, 4, False)])),
        CorpusEntry("wide-simple", cls(
            methods=[(f"step{i}()", 1, 0, 0, True) for i in range(12)])),
        CorpusEntry("twin-a", cls(methods=[("ping()", 1, 0, 0, True)])),
        CorpusEntry("twin-b", cls(methods=[("pong()", 1, 0, 0, True)])),
        CorpusEntry("twin-probe", cls(methods=[("ping()", 5, 1, 2, False)])),
        CorpusEntry("lookup-loop", cls(
            methods=[("find(int)", 3, 1, 0, False)],
            fields=[("table", "int[]", False)],
        ), equivalence_group="table-lookup"),
        CorpusEntry("lookup-unrolled", cls(
            methods=[("find(int)", 8, 1, 0, False)],
            fields=[("table", "int[]", False)],
        ), equivalence_group="table-lookup"),
        CorpusEntry("io-facade", cls(
            methods=[("open(String)", 2, 1, 3, False),
                     ("close()", 1, 0, 2, True)],
            fields=[("channel", "Channel", True)],
            ancestors=["Facade"],
            interfaces=["Closeable"],
            imports=["java.io.*", "java.net.*", "java.util.*"],
        )),
    ]


_METHOD_NAMES = ["read", "write", "open", "close", "size", "flush",
                 "reset", "find", "add", "remove", "clear", "copy"]
_PARAM_SHAPES = ["", "int", "String", "int,int", "String,Object", "Object"]
_FIELD_TYPES = [("Buffer", True), ("Codec", True), ("Table", True),
                ("String", False), ("int[]", False)]
_RELATION_NAMES = ["Base", "Stream", "Panel", "Widget", "Root"]
_IMPORT_NAMES = ["java.io.*", "java.util.*", "java.awt.*", "java.net.*"]
# (names, largest sample) for ancestors, subclasses, interfaces, imports
_NAME_SET_DRAWS = [(_RELATION_NAMES, 3), (_RELATION_NAMES, 2),
                   (_RELATION_NAMES, 2), (_IMPORT_NAMES, 3)]


def random_corpus(seed: int, size: int) -> list[CorpusEntry]:
    """Seeded random classes with heavy-tailed method complexity."""
    rng = random.Random(seed)
    entries = []
    for i in range(size):
        methods = {}
        for _ in range(rng.randint(0, 10)):
            sig = (f"{rng.choice(_METHOD_NAMES)}"
                   f"({rng.choice(_PARAM_SHAPES)})")
            complexity = (rng.randint(1, 6) if rng.random() < 0.92
                          else rng.randint(10, 80))
            value_returns = rng.randint(0, 3)
            is_void = value_returns == 0 and rng.random() < 0.5
            methods[sig] = (sig, complexity, value_returns,
                            rng.randint(0, 12), is_void)
        fields = set()
        for k in range(rng.randint(0, 4)):
            type_name, user_defined = rng.choice(_FIELD_TYPES)
            fields.add((f"f{k}", type_name, user_defined))
        entries.append(CorpusEntry(f"rand-{i:03d}", SyntheticClass(
            frozenset(methods.values()), frozenset(fields),
            *[frozenset(rng.sample(names, rng.randint(0, most)))
              for names, most in _NAME_SET_DRAWS])))
    return entries


def generate_corpus(seed: int) -> list[CorpusEntry]:
    """The fixture classes, then seeded random ones: 60 in all."""
    fixtures = fixture_corpus()
    return fixtures + random_corpus(seed, 60 - len(fixtures))


def project_corpus(model: ProjectModel,
                   cfg: MetricConfig = DEFAULT_CONFIG) -> list[CorpusEntry]:
    # Each class to itself: a repeat takes the first object built for it
    # and is freed at once, and class-keyed lookups match it by identity.
    first: dict[SyntheticClass, SyntheticClass] = {}
    corpus = []
    for decl in model.ordered_decls():
        cls = from_class_model(decl, model, cfg)
        corpus.append(CorpusEntry(model.display_name_of(decl),
                                  first.setdefault(cls, cls)))
    return corpus


# ---------------------------------------------------------------------------
# Property checks


class _Values(list):
    """A run's (entry, metric value) pairs, one metric call per distinct
    class, and union values by ordered class pair (concat keeps p's tuple
    on a collision). Each distinct class is indexed by signature once for
    the unions. In P9's stream a pair recurs only if a class repeats."""

    def __init__(self, metric: MetricFunction, corpus: list[CorpusEntry]):
        value_of = {c: metric(c) for c in dict.fromkeys(e.cls for e in corpus)}
        super().__init__((e, value_of[e.cls]) for e in corpus)
        self.metric, self.unions = metric, {}
        self.indexed = {c: _Indexed(c) for c in value_of}
        self.repeats = len(value_of) < len(corpus)

    def union(self, p, q, keep=True) -> Fraction:
        value = self.unions.get((p, q))
        if value is None:
            value = self.metric(concat(self.indexed[p], self.indexed[q]))
            if keep:
                self.unions[p, q] = value
        return value


def check_property(k: int, metric: MetricFunction,
                   corpus: list[CorpusEntry], trial_budget: int,
                   seed: int = 0, *, values: list | None = None
                   ) -> PropertyReport:
    """Search `corpus` for property k's witness or violation; `values`
    is the evaluation run_all shares, made here when absent."""
    if trial_budget <= 0:
        raise ValueError("trial budget must be positive")
    if k not in _PROPERTIES:
        raise ValueError(f"property number must be 1..9, got {k}")

    report = PropertyReport(
        property_number=k, metric_name=metric.name, verdict="",
        witness=None, trials=0, trial_budget=trial_budget, seed=seed)
    search = _PROPERTIES[k][3]
    if isinstance(search, str):
        report.verdict, report.note = "not-applicable", search
        return report

    values = values or _Values(metric, corpus)
    report.witness = search(report, values, random.Random(seed * 1000003 + k))
    report.verdict = ("witnessed" if report.witness
                      else "no-counterexample-found")
    return report


def run_all(metric: MetricFunction, corpus: list[CorpusEntry],
            seed: int, trial_budget: int) -> list[PropertyReport]:
    """All nine properties over one evaluation of the corpus."""
    values = _Values(metric, corpus)
    return [check_property(k, metric, corpus, trial_budget, seed,
                           values=values)
            for k in _PROPERTIES]


def _witness(*pairs: tuple[str, Fraction], **extra) -> dict:
    return {"classes": [{"ident": ident, "value": str(value)}
                        for ident, value in pairs], **extra}


def _trials(report: PropertyReport, candidates):
    """Yield each candidate as one trial, counted before it runs. When
    the budget is spent the verdict becomes no-counterexample-found and
    the stream stops, so a checker whose loop ends with report.verdict
    still empty has tried every candidate."""
    for candidate in candidates:
        if report.trials >= report.trial_budget:
            report.verdict = "no-counterexample-found"
            return
        report.trials += 1
        yield candidate


def _check_p1(report, values, rng):
    for (a, va), (b, vb) in _trials(report, itertools.combinations(values, 2)):
        if va != vb:
            return _witness((a.ident, va), (b.ident, vb),
                            relation=f"mu({a.ident}) != mu({b.ident})")
    if not report.verdict:
        report.note = "all corpus classes share one metric value"
    return None


def _check_p3(report, values, rng):
    for (a, va), (b, vb) in _trials(report, itertools.combinations(values, 2)):
        if a.cls != b.cls and va == vb:
            return _witness((a.ident, va), (b.ident, vb),
                            relation=f"distinct classes with mu = {va}")
    return None


def _check_p4(report, values, rng):
    groups: dict[str, list] = {}
    for entry, value in values:
        if entry.equivalence_group:
            groups.setdefault(entry.equivalence_group, []).append(
                (entry, value))
    if not groups:
        report.note = "corpus declares no equivalence groups"
    pairs = itertools.chain.from_iterable(
        itertools.combinations(members, 2)
        for _, members in sorted(groups.items()))
    for (a, va), (b, vb) in _trials(report, pairs):
        if va != vb:
            return _witness(
                (a.ident, va), (b.ident, vb),
                relation=(f"equivalent implementations "
                          f"({a.equivalence_group}) with different mu"))
    return None


def _check_p5(report, values, rng):
    for (a, va), (b, vb) in _trials(report, itertools.combinations(values, 2)):
        vc = values.union(a.cls, b.cls)
        if va > vc or vb > vc:
            worse, worse_v = (a, va) if va > vc else (b, vb)
            report.note = ("violation: average-complexity dilution can "
                           "shrink the combined metric below a part")
            return _witness(
                (worse.ident, worse_v), (f"{a.ident}+{b.ident}", vc),
                relation=(f"mu({worse.ident}) = {worse_v} > "
                          f"mu({a.ident}+{b.ident}) = {vc}"),
                pair=[a.ident, b.ident])
    return None


def _check_p6(report, values, rng):
    equal_pairs = list(itertools.islice(
        ((x, y) for x, y in itertools.combinations(values, 2)
         if x[0].cls != y[0].cls and x[1] == y[1]), 25))
    if not equal_pairs:
        report.note = "no equal-valued class pair found to start from"
    # The third class r is neither member entry; skipping one uses no trial.
    triples = ((a, va, b, vb, r, vr)
               for (a, va), (b, vb) in equal_pairs
               for r, vr in values if r is not a and r is not b)
    for a, va, b, vb, r, vr in _trials(report, triples):
        var, vbr = values.union(a.cls, r.cls), values.union(b.cls, r.cls)
        if var != vbr:
            return _witness(
                (a.ident, va), (b.ident, vb), (r.ident, vr),
                relation=(f"mu({a.ident})=mu({b.ident})={va} but "
                          f"mu({a.ident}+{r.ident})={var} != "
                          f"mu({b.ident}+{r.ident})={vbr}"))
    return None


def _renaming(names: list[str], shuffled: tuple | None) -> dict:
    """A P8 mapping of a class's sorted names: onto their shuffle, or
    onto prefixed copies when shuffled is None."""
    if shuffled is None:
        return {n: f"r{i}_{n}" for i, n in enumerate(names)}
    return dict(zip(names, shuffled))


def _check_p8(report, values, rng):
    # Trials visit the first trial_budget entries round-robin. Each class
    # gets its skeleton and a dict of its renamed values, by drawn shuffle
    # or None for the prefix renaming, on its first visit.
    skeletons = {}
    entries = values[:report.trial_budget]
    for entry, value in _trials(report, itertools.cycle(entries)):
        if entry.cls not in skeletons:
            skeletons[entry.cls] = (*_skeleton(entry.cls), {})
        slots, names, shape, renamed_by = skeletons[entry.cls]
        if not names:
            continue
        shuffled = None
        if rng.random() < 0.5:
            shuffled = names[:]
            rng.shuffle(shuffled)
            shuffled = tuple(shuffled)
        renamed = renamed_by.get(shuffled)
        if renamed is None:
            targets = list(map(_renaming(names, shuffled).__getitem__, slots))
            if len(set(targets)) != len(names):
                raise ValueError("renaming is not a bijection")
            renamed = renamed_by[shuffled] = values.metric(
                _fill(shape, targets))
        if renamed != value:
            return _witness(
                (entry.ident, value), (f"renamed({entry.ident})", renamed),
                mapping=_renaming(names, shuffled),
                relation="metric changed under bijective renaming")
    report.note = ("metric invariant under every bijective renaming tried"
                   if values else "empty corpus")
    return None


def _check_p9(report, values, rng):
    for (a, va), (b, vb) in _trials(report, itertools.combinations(values, 2)):
        vc = values.union(a.cls, b.cls, keep=values.repeats)  # asked last
        if va + vb < vc:
            return _witness((a.ident, va), (b.ident, vb),
                            (f"{a.ident}+{b.ident}", vc),
                            relation=f"{va} + {vb} < {vc}")
    if not report.verdict:
        report.note = ("expected: every component metric of a union is at "
                       "most the sum over the parts, and the average "
                       "complexity of a union never exceeds the sum of the "
                       "parts' averages")
    return None


# Per property: the claimed verdict this harness cross-checks (divergences
# are reported, never forced into agreement), the (outcome, agreement)
# reported with a witness and without one, and the search for a witness.
# A witness shows that an existential property holds and that a universal
# one (P5, P8) fails. P2 and P7 are never tried: their rows hold the
# not-applicable note in place of a search.
_PROPERTIES = {
    1: ("holds", ("holds", "agree"), ("not shown", "inconclusive"), _check_p1),
    2: ("holds", None, ("n/a", "untested (structural note)"),
        "structural claim, not an empirical test: the metric's value set is "
        "discrete (rationals with denominator bounded by the method count), "
        "so over classes of bounded size every value is taken by only "
        "finitely many classes"),
    3: ("holds", ("holds", "agree"), ("not shown", "inconclusive"), _check_p3),
    4: ("holds", ("holds", "agree"), ("not shown", "inconclusive"), _check_p4),
    5: ("holds", ("fails", "DIVERGES"), ("no violation", "consistent"),
        _check_p5),
    6: ("holds", ("holds", "agree"), ("not shown", "inconclusive"), _check_p6),
    7: ("n/a", None, ("n/a", "agree"),
        "not applicable to class-level metrics"),
    8: ("holds", ("fails", "DIVERGES"), ("no violation", "consistent"),
        _check_p8),
    9: ("fails", ("holds", "DIVERGES"), ("not shown", "consistent"),
        _check_p9),
}


# ---------------------------------------------------------------------------
# Report rendering


def _verdicts(report: PropertyReport) -> dict[str, str]:
    """The report's outcome, reference and agreement, from _PROPERTIES."""
    reference, witnessed, unwitnessed, _ = _PROPERTIES[report.property_number]
    outcome, agreement = (witnessed if report.verdict == "witnessed"
                          else unwitnessed)
    return dict(outcome=outcome, reference=reference, agreement=agreement)


def reports_to_json(reports: list[PropertyReport], corpus_size: int) -> str:
    first = reports[0]
    payload = {
        "metric": first.metric_name,
        "seed": first.seed,
        "trial_budget": first.trial_budget,
        "corpus_size": corpus_size,
        "properties": [
            dict(r.to_dict(), **_verdicts(r))
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reports_to_text(reports: list[PropertyReport], corpus_size: int) -> str:
    first = reports[0]
    row = "{:>2}  {:<26} {:<13} {:<10} {}".format
    lines = [
        f"Weyuker property evaluation for {first.metric_name} "
        f"(seed={first.seed}, budget={first.trial_budget}, "
        f"corpus={corpus_size} classes)",
        "",
        row("P", "verdict", "outcome", "reference", "agreement"),
    ]
    for r in reports:
        lines.append(row(r.property_number, r.verdict, *_verdicts(r).values()))
    lines.append("")
    for r in reports:
        if r.witness:
            lines.append(f"P{r.property_number} witness: "
                         f"{r.witness['relation']}")
        if r.note:
            lines.append(f"P{r.property_number} note: {r.note}")
    return "\n".join(lines) + "\n"
