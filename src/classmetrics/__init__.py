"""Class-level complexity metrics for Java source trees.

Pipeline: tokenize -> parse -> build_model -> compute_rows -> reports.
The weyuker module evaluates any class metric against Weyuker's
properties over synthetic or parsed corpora.
"""

from pathlib import Path

from .lexer import LexError, tokenize
from .metrics import (ClassMetricsRow, MetricConfig, compute_row,
                      compute_rows, method_cyclomatic)
from .model import ModelError, ProjectModel, build_model, is_user_defined
from .parser import (BodyFacts, ClassDecl, CompilationUnit, FieldDecl,
                     MethodDecl, ParseError, classify_calls,
                     count_decision_points, parse)
from .report import (build_bundle, emit_chart, emit_model_xml, emit_sheet,
                     pearson)
from .weyuker import (CCC_METRIC, CorpusEntry, MetricFunction,
                      PropertyReport, SyntheticClass, check_property,
                      concat, generate_corpus, rename, run_all)

__version__ = "0.1.0"

__all__ = [
    "BodyFacts", "CCC_METRIC", "ClassDecl", "ClassMetricsRow",
    "CompilationUnit", "CorpusEntry", "FieldDecl", "LexError",
    "MethodDecl", "MetricConfig", "MetricFunction", "ModelError",
    "ParseError", "ProjectModel", "PropertyReport", "SyntheticClass",
    "build_bundle", "build_model", "check_property",
    "classify_calls", "compute_row", "compute_rows", "concat",
    "count_decision_points", "dlib_fixture_dir", "emit_chart",
    "emit_model_xml", "emit_sheet", "generate_corpus", "is_user_defined",
    "method_cyclomatic", "parse", "pearson", "rename", "run_all",
    "tokenize", "__version__",
]


def dlib_fixture_dir() -> Path:
    """Directory holding the bundled 18-class sample corpus."""
    return Path(__file__).with_name("fixtures") / "dlib"
