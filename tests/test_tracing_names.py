"""The benchmark's tracer finds every name it wraps. It looks the names
up by string and reports a missing one as absent instead of failing, so
a rename in the package would silently drop that name's spans."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    absent = set()
    tracing.tracing_replacements(tracing.Tracer(), absent)
    assert absent == set()
