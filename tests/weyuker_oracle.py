"""Views of the Weyuker harness that only the tests use: the names a
renaming looks up, each sub-metric of CCC on its own, CMC over a
SyntheticClass, a re-evaluation of a stored witness, and a reference
run_all that evaluates the metric and concat for every candidate."""

import itertools
import random
from fractions import Fraction

from classmetrics import weyuker
from classmetrics.weyuker import (CorpusEntry, MetricFunction,
                                  PropertyReport, SyntheticClass, _fill,
                                  _skeleton, _trials, _witness, concat,
                                  rename)


def collect_names(p: SyntheticClass) -> set[str]:
    """Every identifier that rename looks up."""
    return set(_skeleton(p)[0])


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


def _cmc_of(cls: SyntheticClass) -> Fraction:
    return Fraction(sum(m[1] for m in cls.methods))


CMC_METRIC = MetricFunction("CMC", _cmc_of)


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
# Reference run_all: one metric call per corpus entry, one concat and one
# metric call per union a candidate needs, and a P8 skeleton per entry
# index, kept for an index the budget reaches again. P1, P3 and P4 read
# only the entries' values and are the harness's own.


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
    triples = ((a, va, b, vb, r, vr)
               for (a, va), (b, vb) in equal_pairs
               for r, vr in values if r is not a and r is not b)
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
    entries = values[:report.trial_budget]
    revisited = report.trial_budget - len(entries)
    skeletons = {}
    for index in _trials(report, itertools.cycle(range(len(entries)))):
        entry, value = entries[index]
        slots, shape = skeletons.get(index) or _skeleton(entry.cls)[::2]
        if index < revisited:
            skeletons[index] = slots, shape
        names = sorted(set(slots))
        if not names:
            continue
        if rng.random() < 0.5:
            shuffled = names[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(names, shuffled))
        else:
            mapping = {n: f"r{i}_{n}" for i, n in enumerate(names)}
        targets = list(map(mapping.__getitem__, slots))
        if len(set(targets)) != len(names):
            raise ValueError("renaming is not a bijection")
        renamed = _fill(shape, targets)
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


def _reading_values(check):
    """A harness checker that reads only the entries' values."""
    return lambda report, metric, values, rng: check(report, values, rng)


_CHECKERS = {1: _reading_values(weyuker._check_p1),
             3: _reading_values(weyuker._check_p3),
             4: _reading_values(weyuker._check_p4),
             5: _check_p5, 6: _check_p6, 8: _check_p8, 9: _check_p9}


def run_all(metric: MetricFunction, corpus: list[CorpusEntry],
            seed: int, trial_budget: int) -> list[PropertyReport]:
    """The reports classmetrics.weyuker.run_all must give."""
    values = [(e, metric(e.cls)) for e in corpus]
    reports = []
    for k in range(1, 10):
        if k not in _CHECKERS:  # P2 and P7 are never tried
            reports.append(weyuker.check_property(k, metric, corpus,
                                                  trial_budget, seed))
            continue
        report = PropertyReport(k, metric.name, "", None, 0, trial_budget,
                                seed)
        report.witness = _CHECKERS[k](report, metric, values,
                                      random.Random(seed * 1000003 + k))
        report.verdict = ("witnessed" if report.witness
                          else "no-counterexample-found")
        reports.append(report)
    return reports
