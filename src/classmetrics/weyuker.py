"""Empirical evaluation of class metrics against Weyuker's properties.

Classes are abstracted to SyntheticClass values (sets of method tuples,
fields, relations). Concatenation of two classes is the set union of
their parts, deduplicating methods by signature. The harness searches a
corpus for witnesses (existential properties) or violations (universal
properties) within a trial budget and reports verdicts next to a
reference verdict table, flagging divergences instead of suppressing
them.

Trial rule: each property check walks a stream of candidates (class
pairs, triples or renamings). A candidate counts as one trial before it
is tried; when `trial_budget` trials have been counted and a further
candidate is due, the search stops with no-counterexample-found. A note
that claims the whole stream was searched is set only when the stream
ran to its end.
"""

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .metrics import (MetricConfig, ccc_value, included_methods,
                      method_cyclomatic)
from .model import ProjectModel, is_user_defined
from .parser import ClassDecl

# (signature, complexity, value_return_count, external_call_count, is_void)
MethodTuple = tuple[str, int, int, int, bool]
# (name, type_name, is_user_defined)
FieldTuple = tuple[str, str, bool]


@dataclass(frozen=True)
class SyntheticClass:
    methods: frozenset = frozenset()
    fields: frozenset = frozenset()
    ancestors: frozenset = frozenset()
    subclasses: frozenset = frozenset()
    interfaces: frozenset = frozenset()
    imports: frozenset = frozenset()


@dataclass(frozen=True)
class MetricFunction:
    name: str
    evaluator: object  # SyntheticClass -> Fraction

    def __call__(self, cls: SyntheticClass) -> Fraction:
        return self.evaluator(cls)


@dataclass(frozen=True)
class CorpusEntry:
    ident: str
    cls: SyntheticClass
    equivalence_group: str | None = None


@dataclass
class PropertyReport:
    property_number: int
    metric_name: str
    verdict: str  # witnessed | no-counterexample-found | not-applicable
    witness: dict | None
    trials: int
    trial_budget: int
    seed: int
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "property": self.property_number,
            "metric": self.metric_name,
            "verdict": self.verdict,
            "witness": self.witness,
            "trials": self.trials,
            "trial_budget": self.trial_budget,
            "seed": self.seed,
            "note": self.note,
        }


# Claimed verdict table this harness cross-checks empirically; divergences
# are reported, never forced into agreement.
REFERENCE_VERDICTS = {
    1: "holds", 2: "holds", 3: "holds", 4: "holds", 5: "holds",
    6: "holds", 7: "n/a", 8: "holds", 9: "fails",
}

_EXISTENTIAL = {1, 3, 4, 6, 9}
_UNIVERSAL = {5, 8}


# ---------------------------------------------------------------------------
# Core operations


def concat(p: SyntheticClass, q: SyntheticClass) -> SyntheticClass:
    """Union of all parts; method signatures deduplicate keeping p's
    tuple on collision."""
    merged = {m[0]: m for m in sorted(q.methods)}
    for m in sorted(p.methods):
        merged[m[0]] = m
    return SyntheticClass(
        methods=frozenset(merged.values()),
        fields=p.fields | q.fields,
        ancestors=p.ancestors | q.ancestors,
        subclasses=p.subclasses | q.subclasses,
        interfaces=p.interfaces | q.interfaces,
        imports=p.imports | q.imports,
    )


def _map_names(p: SyntheticClass, fn) -> SyntheticClass:
    """Apply `fn` to every identifier in p, in a fixed order: the
    methods in sorted order, each one's parameter types (array suffixes
    kept) before its name, then the sorted field names and types,
    ancestors, subclasses, interfaces and imports."""

    def map_type(text: str) -> str:
        base = text
        while base.endswith("[]"):
            base = base[:-2]
        return fn(base) + text[len(base):]

    def map_signature(sig: str) -> str:
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


def rename(p: SyntheticClass, mapping: dict[str, str]) -> SyntheticClass:
    """Apply a name bijection to every identifier in p."""
    source_of: dict[str, str] = {}  # target -> first name mapped to it

    def lookup(name: str) -> str:
        if name not in mapping:
            raise ValueError(f"mapping does not cover name {name!r}")
        target = mapping[name]
        src = source_of.setdefault(target, name)
        if src != name:
            raise ValueError(
                f"mapping is not injective: {src!r} and {name!r} "
                f"both map to {target!r}")
        return target

    return _map_names(p, lookup)


def collect_names(p: SyntheticClass) -> set[str]:
    """Every identifier that rename looks up."""
    names: set[str] = set()

    def record(name: str) -> str:
        names.add(name)
        return name

    _map_names(p, record)
    return names


# ---------------------------------------------------------------------------
# Metric evaluators over SyntheticClass


def submetrics_of(cls: SyntheticClass) -> dict[str, Fraction]:
    """Each sub-metric on its own: the reference view that CCC_METRIC,
    which sums them as one Fraction, is tested against."""
    nomt = len(cls.methods)
    complexity = sum(m[1] for m in cls.methods)
    return {
        "NOMT": Fraction(nomt),
        "AVCC": Fraction(complexity, nomt) if nomt else Fraction(0),
        "MOA": Fraction(sum(1 for f in cls.fields if f[2])),
        "EXT": Fraction(sum(m[3] for m in cls.methods)),
        "NSUP": Fraction(len(cls.ancestors)),
        "NSUB": Fraction(len(cls.subclasses)),
        "INTR": Fraction(len(cls.interfaces)),
        "PACK": Fraction(len(cls.imports)),
        "NQU": Fraction(sum(m[2] for m in cls.methods)),
    }


def _ccc_of(cls: SyntheticClass) -> Fraction:
    methods = cls.methods
    complexity = value_returns = external_calls = 0
    for _, c, vr, ec, _ in methods:
        complexity += c
        value_returns += vr
        external_calls += ec
    int_sum = (len(methods) + sum(1 for f in cls.fields if f[2])
               + external_calls + len(cls.ancestors) + len(cls.subclasses)
               + len(cls.interfaces) + len(cls.imports) + value_returns)
    return ccc_value(int_sum, complexity, len(methods))


def _cmc_of(cls: SyntheticClass) -> Fraction:
    return Fraction(sum(m[1] for m in cls.methods))


CCC_METRIC = MetricFunction("CCC", _ccc_of)
CMC_METRIC = MetricFunction("CMC", _cmc_of)


def from_class_model(decl: ClassDecl, model: ProjectModel,
                     cfg: MetricConfig | None = None) -> SyntheticClass:
    """Lossless (for metric purposes) mapping of a parsed class."""
    cfg = cfg or MetricConfig()
    methods = []
    for m in included_methods(decl, cfg):
        body = m.body
        methods.append((
            m.signature,
            method_cyclomatic(m, cfg),
            body.value_return_count if body else 0,
            body.external_call_count if body else 0,
            m.is_constructor or m.return_type_name == "void",
        ))
    fields = [
        (f.name, f.declared_type_name + "[]" * f.array_rank,
         is_user_defined(f.declared_type_name, model, cfg.moa_policy))
        for f in decl.fields
    ]
    return SyntheticClass(
        methods=frozenset(methods),
        fields=frozenset(fields),
        ancestors=frozenset(model.ancestors_of(decl)),
        subclasses=frozenset(model.subclasses_of(decl)),
        interfaces=frozenset() if decl.kind == "interface"
        else frozenset(model.implemented_of(decl)),
        imports=frozenset(model.unit_of(decl).imports),
    )


# ---------------------------------------------------------------------------
# Corpora


def fixture_corpus() -> list[CorpusEntry]:
    """Handcrafted classes exercising every property check."""

    def cls(methods=(), fields=(), ancestors=(), subclasses=(),
            interfaces=(), imports=()):
        return SyntheticClass(
            methods=frozenset(methods),
            fields=frozenset(fields),
            ancestors=frozenset(ancestors),
            subclasses=frozenset(subclasses),
            interfaces=frozenset(interfaces),
            imports=frozenset(imports),
        )

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


def random_corpus(seed: int, size: int = 48) -> list[CorpusEntry]:
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
        entries.append(CorpusEntry(
            ident=f"rand-{i:03d}",
            cls=SyntheticClass(
                methods=frozenset(methods.values()),
                fields=frozenset(fields),
                ancestors=frozenset(rng.sample(_RELATION_NAMES,
                                               rng.randint(0, 3))),
                subclasses=frozenset(rng.sample(_RELATION_NAMES,
                                                rng.randint(0, 2))),
                interfaces=frozenset(rng.sample(_RELATION_NAMES,
                                                rng.randint(0, 2))),
                imports=frozenset(rng.sample(_IMPORT_NAMES,
                                             rng.randint(0, 3))),
            ),
        ))
    return entries


def generate_corpus(seed: int, size: int = 60) -> list[CorpusEntry]:
    fixtures = fixture_corpus()
    return fixtures + random_corpus(seed, max(0, size - len(fixtures)))


def project_corpus(model: ProjectModel,
                   cfg: MetricConfig | None = None) -> list[CorpusEntry]:
    return [
        CorpusEntry(model.display_name_of(decl),
                    from_class_model(decl, model, cfg))
        for decl in model.ordered_decls()
    ]


# ---------------------------------------------------------------------------
# Property checks


def check_property(k: int, metric: MetricFunction,
                   corpus: list[CorpusEntry], trial_budget: int,
                   seed: int = 0, *, values: list | None = None
                   ) -> PropertyReport:
    """Search `corpus` for property k's witness or violation. `values`
    pairs each corpus entry with its metric value when the caller has
    them already; otherwise the corpus is evaluated here."""
    if trial_budget <= 0:
        raise ValueError("trial budget must be positive")
    if k not in range(1, 10):
        raise ValueError(f"property number must be 1..9, got {k}")

    report = PropertyReport(
        property_number=k, metric_name=metric.name, verdict="",
        witness=None, trials=0, trial_budget=trial_budget, seed=seed)

    if k == 7:
        report.verdict = "not-applicable"
        report.note = "not applicable to class-level metrics"
        return report
    if k == 2:
        report.verdict = "not-applicable"
        report.note = (
            "structural claim, not an empirical test: the metric's value "
            "set is discrete (rationals with denominator bounded by the "
            "method count), so over classes of bounded size every value "
            "is taken by only finitely many classes")
        return report

    if values is None:
        values = [(e, metric(e.cls)) for e in corpus]
    checker = {
        1: _check_p1, 3: _check_p3, 4: _check_p4, 5: _check_p5,
        6: _check_p6, 8: _check_p8, 9: _check_p9,
    }[k]
    report.witness = checker(report, metric, values,
                             random.Random(seed * 1000003 + k))
    report.verdict = ("witnessed" if report.witness
                      else "no-counterexample-found")
    return report


def run_all(metric: MetricFunction, corpus: list[CorpusEntry],
            seed: int, trial_budget: int) -> list[PropertyReport]:
    """All nine properties, evaluating each corpus class once."""
    values = [(e, metric(e.cls)) for e in corpus]
    return [check_property(k, metric, corpus, trial_budget, seed,
                           values=values)
            for k in range(1, 10)]


def _witness(*pairs: tuple[str, Fraction], **extra) -> dict:
    out = {"classes": [{"ident": ident, "value": str(value)}
                       for ident, value in pairs]}
    out.update(extra)
    return out


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


def _check_p1(report, metric, values, rng):
    for (a, va), (b, vb) in _trials(report, itertools.combinations(values, 2)):
        if va != vb:
            return _witness((a.ident, va), (b.ident, vb),
                            relation=f"mu({a.ident}) != mu({b.ident})")
    if not report.verdict:
        report.note = "all corpus classes share one metric value"
    return None


def _check_p3(report, metric, values, rng):
    for (a, va), (b, vb) in _trials(report, itertools.combinations(values, 2)):
        if a.cls != b.cls and va == vb:
            return _witness((a.ident, va), (b.ident, vb),
                            relation=f"distinct classes with mu = {va}")
    return None


def _check_p4(report, metric, values, rng):
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


def _check_p5(report, metric, values, rng):
    for (a, va), (b, vb) in _trials(report, itertools.combinations(values, 2)):
        vc = metric(concat(a.cls, b.cls))
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


def _check_p6(report, metric, values, rng):
    equal_pairs = list(itertools.islice(
        ((x, y) for x, y in itertools.combinations(values, 2)
         if x[0].cls != y[0].cls and x[1] == y[1]), 25))
    if not equal_pairs:
        report.note = "no equal-valued class pair found to start from"
    # The third class r is neither member; skipping a member uses no trial.
    triples = ((a, va, b, vb, r, vr)
               for (a, va), (b, vb) in equal_pairs
               for r, vr in values if r.ident not in (a.ident, b.ident))
    for a, va, b, vb, r, vr in _trials(report, triples):
        var = metric(concat(a.cls, r.cls))
        vbr = metric(concat(b.cls, r.cls))
        if var != vbr:
            return _witness(
                (a.ident, va), (b.ident, vb), (r.ident, vr),
                relation=(f"mu({a.ident})=mu({b.ident})={va} but "
                          f"mu({a.ident}+{r.ident})={var} != "
                          f"mu({b.ident}+{r.ident})={vbr}"))
    return None


def _check_p8(report, metric, values, rng):
    # Trials visit the entries round-robin, so only the first
    # trial_budget entries are ever renamed.
    named = [(entry, value, sorted(collect_names(entry.cls)))
             for entry, value in values[:report.trial_budget]]
    for entry, value, names in _trials(report, itertools.cycle(named)):
        if not names:
            continue
        if rng.random() < 0.5:
            shuffled = names[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(names, shuffled))
        else:
            mapping = {n: f"r{i}_{n}" for i, n in enumerate(names)}
        renamed = rename(entry.cls, mapping)
        if metric(renamed) != value:
            return _witness(
                (entry.ident, value),
                (f"renamed({entry.ident})", metric(renamed)),
                mapping=mapping,
                relation="metric changed under bijective renaming")
    report.note = ("metric invariant under every bijective renaming tried"
                   if values else "empty corpus")
    return None


def _check_p9(report, metric, values, rng):
    for (a, va), (b, vb) in _trials(report, itertools.combinations(values, 2)):
        vc = metric(concat(a.cls, b.cls))
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


def verify_witness(report: PropertyReport, metric: MetricFunction,
                   corpus: list[CorpusEntry]) -> bool:
    """Re-evaluate a stored witness; True when it still demonstrates the
    recorded relation."""
    if report.verdict != "witnessed" or not report.witness:
        return False
    by_ident = {e.ident: e.cls for e in corpus}
    idents = [c["ident"] for c in report.witness["classes"]]
    k = report.property_number

    if k in (1, 3, 4):
        a, b = by_ident[idents[0]], by_ident[idents[1]]
        va, vb = metric(a), metric(b)
        return va != vb if k in (1, 4) else (va == vb and a != b)
    if k == 5:
        pa, pb = report.witness["pair"]
        combined = concat(by_ident[pa], by_ident[pb])
        part = by_ident[idents[0]]
        return metric(part) > metric(combined)
    if k == 6:
        a, b, r = (by_ident[i] for i in idents)
        return (metric(a) == metric(b)
                and metric(concat(a, r)) != metric(concat(b, r)))
    if k == 8:
        cls = by_ident[idents[0]]
        renamed = rename(cls, report.witness["mapping"])
        return metric(renamed) != metric(cls)
    if k == 9:
        a, b = by_ident[idents[0]], by_ident[idents[1]]
        return metric(a) + metric(b) < metric(concat(a, b))
    return False


# ---------------------------------------------------------------------------
# Report rendering


def _outcome(report: PropertyReport) -> str:
    k = report.property_number
    if report.verdict == "not-applicable":
        return "n/a"
    if k in _EXISTENTIAL:
        return "holds" if report.verdict == "witnessed" else "not shown"
    if k in _UNIVERSAL:
        return "fails" if report.verdict == "witnessed" else "no violation"
    return "n/a"


def _agreement(report: PropertyReport) -> str:
    reference = REFERENCE_VERDICTS[report.property_number]
    outcome = _outcome(report)
    if outcome == "n/a" and report.property_number == 2:
        return "untested (structural note)"
    if outcome == "n/a":
        return "agree"
    if outcome == "holds":
        return "agree" if reference == "holds" else "DIVERGES"
    if outcome == "fails":
        return "DIVERGES" if reference == "holds" else "agree"
    if outcome == "no violation":
        return "consistent" if reference == "holds" else "DIVERGES"
    # existential property with no witness found
    return "consistent" if reference == "fails" else "inconclusive"


def reports_to_json(reports: list[PropertyReport], corpus_size: int) -> str:
    first = reports[0]
    payload = {
        "metric": first.metric_name,
        "seed": first.seed,
        "trial_budget": first.trial_budget,
        "corpus_size": corpus_size,
        "properties": [
            dict(r.to_dict(), outcome=_outcome(r),
                 reference=REFERENCE_VERDICTS[r.property_number],
                 agreement=_agreement(r))
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reports_to_text(reports: list[PropertyReport], corpus_size: int) -> str:
    first = reports[0]
    lines = [
        f"Weyuker property evaluation for {first.metric_name} "
        f"(seed={first.seed}, budget={first.trial_budget}, "
        f"corpus={corpus_size} classes)",
        "",
        f"{'P':>2}  {'verdict':<26} {'outcome':<13} {'reference':<10} agreement",
    ]
    for r in reports:
        lines.append(
            f"{r.property_number:>2}  {r.verdict:<26} {_outcome(r):<13} "
            f"{REFERENCE_VERDICTS[r.property_number]:<10} {_agreement(r)}")
    lines.append("")
    for r in reports:
        if r.witness:
            lines.append(f"P{r.property_number} witness: "
                         f"{r.witness['relation']}")
        if r.note:
            lines.append(f"P{r.property_number} note: {r.note}")
    return "\n".join(lines) + "\n"
