"""Seeded mutants of the dlib fixtures run through the whole pipeline:
lex, parse, model, rows, the report bundle and the Weyuker harness on
the project corpus. Each mutant deletes, duplicates or swaps one token,
or inserts a piece that opens or closes a comment, a literal, a block,
a type argument list, an annotation or a lambda. Only the three
documented input errors may escape; anything else is a defect."""

import random

from classmetrics import (LexError, ModelError, ParseError, build_bundle,
                          build_model, compute_rows, parse, tokenize)
from classmetrics.report import sheet_cells
from classmetrics.weyuker import CCC_METRIC, project_corpus, run_all
from lexer_oracle import spans

SEED = 3121
MUTANTS = 300
_INSERTS = ["/*", "*/", '"', "'", '"""\n', "{", "}", "(", "<", "@", "->"]


def _mutant(source, bounds, rng):
    """The source with one seeded mutation at a token the reference lexer
    bounds."""
    i = rng.randrange(len(bounds) - 1)
    (start, end), (start2, end2) = bounds[i], bounds[i + 1]
    kind = rng.choice(("delete", "duplicate", "swap", "insert"))
    if kind == "delete":
        return source[:start] + source[end:]
    if kind == "duplicate":
        return source[:end] + " " + source[start:end] + source[end:]
    if kind == "swap":
        return (source[:start] + source[start2:end2] + source[end:start2]
                + source[start:end] + source[end2:])
    return source[:start] + rng.choice(_INSERTS) + source[start:]


def _run_pipeline(units):
    model = build_model(units)
    rows = compute_rows(model)
    build_bundle(model, rows, [sheet_cells(row) for row in rows],
                 ("csv", "json"))
    run_all(CCC_METRIC, project_corpus(model), 0, 20)


def test_mutated_fixtures_raise_only_input_errors(dlib_dir):
    rng = random.Random(SEED)
    paths = sorted(dlib_dir.glob("*.java"))
    sources = [p.read_text(encoding="utf-8") for p in paths]
    bounds = [spans(source) for source in sources]
    units = [parse(tokenize(source), p.name)
             for p, source in zip(paths, sources)]
    outcomes, escaped = [], []
    for _ in range(MUTANTS):
        k = rng.randrange(len(sources))
        source = _mutant(sources[k], bounds[k], rng)
        try:
            mutant = parse(tokenize(source), paths[k].name)
            _run_pipeline(units[:k] + [mutant] + units[k + 1:])
            outcomes.append("ran")
        except (LexError, ParseError, ModelError) as exc:
            outcomes.append(type(exc).__name__)
        except Exception as exc:  # any other escape is the finding
            escaped.append((paths[k].name, source, repr(exc)))
    assert escaped == []
    assert {"ran", "LexError", "ParseError"} <= set(outcomes)
