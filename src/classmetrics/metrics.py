"""Per-class metric computation.

Nine sub-metrics (NOMT, AVCC, MOA, EXT, NSUP, NSUB, INTR, PACK, NQU),
their composite CCC, the baselines WMC/CMC/CC, and the sheet columns IV
and NCD. AVCC and CCC are exact rationals; everything else is an integer.

The class view lives here: class_parts reads the facts of a parsed class
that its metrics use, a row sums its per-declaration lists in part_sums,
and the Weyuker harness sums their sets (from_class_model) there too.
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


class SyntheticClass(NamedTuple):
    # Each method is (signature, complexity, value_return_count,
    # external_call_count, is_void), a constructor's signature starting
    # "new "; each field is (name, type_name, is_user_defined).
    methods: frozenset = frozenset()
    fields: frozenset = frozenset()
    ancestors: frozenset = frozenset()
    subclasses: frozenset = frozenset()
    interfaces: frozenset = frozenset()
    imports: frozenset = frozenset()


def method_cyclomatic(method: MethodDecl,
                      cfg: MetricConfig = DEFAULT_CONFIG) -> int:
    """1 + decision points; a bodyless method is one straight path."""
    if method.body is None:
        return 1
    extra = method.body.short_circuit_count if cfg.count_short_circuit else 0
    return 1 + method.body.decision_point_count + extra


def class_parts(decl: ClassDecl, model: ProjectModel,
                cfg: MetricConfig = DEFAULT_CONFIG) -> list:
    """decl's parts in SyntheticClass order: a list of its counted
    methods and one of its fields, one item per declaration, then its
    ancestors, subclasses, interfaces and distinct imports."""
    methods = [
        ("new " + m.signature if m.is_constructor else m.signature,
         method_cyclomatic(m, cfg),
         m.body.value_return_count if m.body else 0,
         m.body.external_call_count if m.body else 0,
         m.is_constructor or m.return_type_name == "void")
        for m in decl.methods
        if cfg.count_constructors or not m.is_constructor]
    fields = [(f.name, f.declared_type_name + "[]" * f.array_rank,
               is_user_defined(f.declared_type_name, model, cfg.moa_policy))
              for f in decl.fields]
    interfaces = (set() if decl.kind == "interface"
                  else model.implemented_of(decl))
    return [methods, fields, model.ancestors_of(decl),
            model.subclasses_of(decl), interfaces,
            set(model.unit_of(decl).imports)]


def from_class_model(decl: ClassDecl, model: ProjectModel,
                     cfg: MetricConfig = DEFAULT_CONFIG) -> SyntheticClass:
    """Lossless (for metric purposes) mapping of a parsed class."""
    return SyntheticClass(*map(frozenset, class_parts(decl, model, cfg)))


def ccc_value(int_sum: int, complexity_sum: int, nomt: int) -> Fraction:
    """CCC as one Fraction: `int_sum` is the sum of the eight integer
    sub-metrics (NOMT, MOA, EXT, NSUP, NSUB, INTR, PACK, NQU) and AVCC is
    complexity_sum / nomt, or 0 for a class without methods."""
    if not nomt:
        return Fraction(int_sum)
    return Fraction(int_sum * nomt + complexity_sum, nomt)


def part_sums(parts) -> dict:
    """The sums a row reads from a class's parts, class_parts's lists or
    a SyntheticClass, by row field: NOMT, the complexity sum (CMC), MOA,
    EXT, NSUP, NSUB, INTR, PACK, NQU, NCD, and their CCC."""
    methods, fields, *relations = parts  # ancestors .. imports
    complexity = ext = nqu = ncd = 0
    for _, c, value_returns, external_calls, is_void in methods:
        complexity += c
        ext += external_calls
        nqu += value_returns
        ncd += is_void
    nomt, moa = len(methods), sum(1 for f in fields if f[2])
    nsup, nsub, intr, pack = map(len, relations)
    return dict(
        nomt=nomt, cmc=complexity, moa=moa, ext=ext, nsup=nsup, nsub=nsub,
        intr=intr, pack=pack, nqu=nqu, ncd=ncd,
        ccc=ccc_value(nomt + moa + ext + nsup + nsub + intr + pack + nqu,
                      complexity, nomt))


def ccc_of(cls: SyntheticClass) -> Fraction:
    """CCC of a SyntheticClass, the Weyuker harness's CCC evaluator."""
    return part_sums(cls)["ccc"]


def compute_row(decl: ClassDecl, model: ProjectModel,
                cfg: MetricConfig = DEFAULT_CONFIG) -> ClassMetricsRow:
    sums = part_sums(class_parts(decl, model, cfg))
    nomt, cmc = sums["nomt"], sums["cmc"]
    iv = sum(1 for f in decl.fields if not f.is_static)
    return ClassMetricsRow(
        class_name=model.display_name_of(decl),
        class_kind=decl.kind,
        file_path=decl.unit_path,
        avcc=Fraction(cmc, nomt) if nomt else Fraction(0),
        iv=iv,
        cc=iv + cmc,
        **sums,
    )


def compute_rows(model: ProjectModel,
                 cfg: MetricConfig = DEFAULT_CONFIG) -> list[ClassMetricsRow]:
    """One row per class/interface, in (file, declaration) order."""
    return [compute_row(decl, model, cfg) for decl in model.ordered_decls()]
