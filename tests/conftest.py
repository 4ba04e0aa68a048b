import sys
from pathlib import Path

import pytest

from classmetrics import build_model, parse, tokenize

sys.path.insert(0, str(Path(__file__).parent))  # for cfg_oracle

FIXTURES = Path(__file__).parent / "fixtures"


def parse_file(path: Path):
    return parse(tokenize(path.read_text(encoding="utf-8")), path.as_posix())


def parse_source(source: str, path: str = "<test>.java"):
    return parse(tokenize(source), path)


def model_from_sources(*sources: str):
    units = [parse_source(src, f"src{i}.java")
             for i, src in enumerate(sources)]
    return build_model(units)


@pytest.fixture(scope="session")
def dlib_dir() -> Path:
    import classmetrics
    return classmetrics.dlib_fixture_dir()


@pytest.fixture(scope="session")
def fixture_paths(dlib_dir) -> list[Path]:
    """Every bundled dlib file, then every tolerant-parse fixture."""
    return (sorted(dlib_dir.glob("*.java"))
            + sorted((FIXTURES / "tolerant").glob("*.java")))


@pytest.fixture(scope="session")
def dlib_units(dlib_dir):
    return [parse_file(p) for p in sorted(dlib_dir.glob("*.java"))]


@pytest.fixture(scope="session")
def dlib_model(dlib_units):
    return build_model(dlib_units)


@pytest.fixture(scope="session")
def namedb_source(dlib_dir) -> str:
    return (dlib_dir / "NameDB.java").read_text(encoding="utf-8")


@pytest.fixture()
def namedb_trio_dir(tmp_path, dlib_dir) -> Path:
    """Directory holding just NameDB plus its two ancestor stubs."""
    for name in ("NameDB.java", "NamedObject.java", "BaseObject.java"):
        (tmp_path / name).write_text(
            (dlib_dir / name).read_text(encoding="utf-8"), encoding="utf-8")
    return tmp_path
