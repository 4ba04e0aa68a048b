"""Class-level complexity metrics for Java source trees.

Pipeline: tokenize -> parse -> build_model -> compute_rows -> reports.
The weyuker module evaluates any class metric against Weyuker's
properties over synthetic or parsed corpora; its names here are loaded
on first use (PEP 562), so importing the package does not import it.
"""

from .lexer import LexError, tokenize
from .metrics import (ClassMetricsRow, MetricConfig, SyntheticClass,
                      compute_row, compute_rows, method_cyclomatic)
from .model import ModelError, ProjectModel, build_model, is_user_defined
from .parser import (BodyFacts, ClassDecl, CompilationUnit, FieldDecl,
                     MethodDecl, ParseError, parse)
from .report import (build_bundle, emit_chart, emit_model_xml, emit_sheet,
                     pearson)

__version__ = "0.1.0"

__all__ = [
    "BodyFacts", "CCC_METRIC", "ClassDecl", "ClassMetricsRow",
    "CompilationUnit", "CorpusEntry", "FieldDecl", "LexError",
    "MethodDecl", "MetricConfig", "MetricFunction", "ModelError",
    "ParseError", "ProjectModel", "PropertyReport", "SyntheticClass",
    "build_bundle", "build_model", "check_property", "compute_row",
    "compute_rows", "concat", "emit_chart", "emit_model_xml",
    "emit_sheet", "generate_corpus", "is_user_defined",
    "method_cyclomatic", "parse", "pearson", "rename", "run_all",
    "tokenize", "__version__",
]


_HARNESS = ("CCC_METRIC", "CorpusEntry", "MetricFunction", "PropertyReport",
            "check_property", "concat", "generate_corpus", "rename",
            "run_all")


def __getattr__(name: str):
    """The harness names, from classmetrics.weyuker on first access."""
    if name not in _HARNESS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import weyuker
    return getattr(weyuker, name)
