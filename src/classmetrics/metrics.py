"""Per-class metric computation.

Nine sub-metrics (NOMT, AVCC, MOA, EXT, NSUP, NSUB, INTR, PACK, NQU),
their composite CCC, the baselines WMC/CMC/CC, and the sheet columns IV
and NCD. AVCC and CCC are exact rationals; everything else is an integer.
"""

from fractions import Fraction
from typing import NamedTuple

from .model import ProjectModel, is_user_defined
from .parser import ClassDecl, MethodDecl


class MetricConfig(NamedTuple):
    moa_policy: str = "project"        # 'project' | 'any-class'
    count_short_circuit: bool = False  # && / || add decision points
    count_constructors: bool = True    # constructors count as methods
    wmc_mode: str = "unity"            # 'unity' | 'weighted'


DEFAULT_CONFIG = MetricConfig()


class ClassMetricsRow(NamedTuple):
    class_name: str
    class_kind: str  # 'class' | 'interface'
    file_path: str
    nomt: int
    avcc: Fraction
    moa: int
    iv: int
    ext: int
    nsup: int
    nsub: int
    intr: int
    pack: int
    nqu: int
    ncd: int
    cmc: int
    cc: int
    ccc: Fraction

    def wmc(self, mode: str = "unity") -> int:
        if mode == "unity":
            return self.nomt
        if mode == "weighted":
            return self.cmc
        raise ValueError(f"unknown WMC mode: {mode!r}")


def method_cyclomatic(method: MethodDecl,
                      cfg: MetricConfig = DEFAULT_CONFIG) -> int:
    """1 + decision points; a bodyless method is one straight path."""
    if method.body is None:
        return 1
    extra = method.body.short_circuit_count if cfg.count_short_circuit else 0
    return 1 + method.body.decision_point_count + extra


def included_methods(decl: ClassDecl,
                     cfg: MetricConfig = DEFAULT_CONFIG) -> list[MethodDecl]:
    if cfg.count_constructors:
        return list(decl.methods)
    return [m for m in decl.methods if not m.is_constructor]


def ccc_value(int_sum: int, complexity_sum: int, nomt: int) -> Fraction:
    """CCC as one Fraction: `int_sum` is the sum of the eight integer
    sub-metrics (NOMT, MOA, EXT, NSUP, NSUB, INTR, PACK, NQU) and AVCC is
    complexity_sum / nomt, or 0 for a class without methods."""
    if not nomt:
        return Fraction(int_sum)
    return Fraction(int_sum * nomt + complexity_sum, nomt)


def compute_row(decl: ClassDecl, model: ProjectModel,
                cfg: MetricConfig = DEFAULT_CONFIG) -> ClassMetricsRow:
    methods = included_methods(decl, cfg)
    nomt = len(methods)
    complexity_sum = sum(method_cyclomatic(m, cfg) for m in methods)

    moa = sum(1 for f in decl.fields
              if is_user_defined(f.declared_type_name, model, cfg.moa_policy))
    iv = sum(1 for f in decl.fields if not f.is_static)
    ext = sum(m.body.external_call_count for m in methods if m.body)
    nsup = len(model.ancestors_of(decl))
    nsub = len(model.subclasses_of(decl))
    intr = 0 if decl.kind == "interface" else len(model.implemented_of(decl))
    pack = len(set(model.unit_of(decl).imports))
    nqu = sum(m.body.value_return_count for m in methods if m.body)
    ncd = sum(1 for m in methods
              if m.is_constructor or m.return_type_name == "void")

    return ClassMetricsRow(
        class_name=model.display_name_of(decl),
        class_kind=decl.kind,
        file_path=decl.unit_path,
        nomt=nomt,
        avcc=Fraction(complexity_sum, nomt) if nomt else Fraction(0),
        moa=moa,
        iv=iv,
        ext=ext,
        nsup=nsup,
        nsub=nsub,
        intr=intr,
        pack=pack,
        nqu=nqu,
        ncd=ncd,
        cmc=complexity_sum,
        cc=iv + complexity_sum,
        ccc=ccc_value(nomt + moa + ext + nsup + nsub + intr + pack + nqu,
                      complexity_sum, nomt),
    )


def compute_rows(model: ProjectModel,
                 cfg: MetricConfig = DEFAULT_CONFIG) -> list[ClassMetricsRow]:
    """One row per class/interface, in (file, declaration) order."""
    return [compute_row(decl, model, cfg) for decl in model.ordered_decls()]
