"""Views of the Weyuker harness that only the tests use: the names a
renaming looks up, each sub-metric of CCC on its own, CMC over a
SyntheticClass, and a re-evaluation of a stored witness."""

from fractions import Fraction

from classmetrics.weyuker import (CorpusEntry, MetricFunction,
                                  PropertyReport, SyntheticClass, _skeleton,
                                  concat, rename)


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
