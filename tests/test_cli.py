import errno
import gc
import hashlib
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import classmetrics.cli
from classmetrics.cli import (BUNDLE_FILES, build_arg_parser, discover_files,
                              load_config_file, main)
from classmetrics.weyuker import (CCC_METRIC, PropertyReport, generate_corpus,
                                  project_corpus)

from weyuker_oracle import verify_witness


def run_cli(*argv):
    return main([str(a) for a in argv])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_end_to_end_on_namedb_trio(namedb_trio_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = run_cli(namedb_trio_dir, "--out", out,
                   "--moa-policy", "any-class")
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 classes
    assert "C,NameDB,6,1,1,1,8,2,0,1,3,3,6.00,6.00,7.00,22.00" in lines
    stdout = capsys.readouterr().out
    assert "pearson(CCC, WMC)" in stdout
    assert "NameDB" in stdout
    for name in ("model.xml", "metrics.json", "chart.svg", "run.json"):
        assert (out / name).exists()
    assert not (out / "weyuker.json").exists()


def test_empty_directory_exits_2(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run_cli(empty, "--out", tmp_path / "o") == 2
    assert "no .java files" in capsys.readouterr().err


def test_unwritable_output_exits_3(namedb_trio_dir, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory")
    assert run_cli(namedb_trio_dir, "--out", blocker) == 3
    assert "not writable" in capsys.readouterr().err


def test_weyuker_outputs(namedb_trio_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = run_cli(namedb_trio_dir, "--out", out, "--weyuker",
                   "--seed", 42, "--trials", 1000)
    assert code == 0
    payload = json.loads((out / "weyuker.json").read_text())
    assert payload["seed"] == 42
    assert len(payload["properties"]) == 9
    by_number = {p["property"]: p["verdict"] for p in payload["properties"]}
    assert by_number[7] == "not-applicable"
    assert sum(1 for k, v in by_number.items()
               if v != "not-applicable") >= 7
    assert (out / "weyuker.txt").exists()
    assert "Weyuker property evaluation" in capsys.readouterr().out


@pytest.mark.parametrize("corpus_kind, size", [("project", 18),
                                              ("both", 78)])
def test_weyuker_project_witnesses_reverify(dlib_dir, dlib_model, tmp_path,
                                            capsys, corpus_kind, size):
    out = tmp_path / "report"
    assert run_cli(dlib_dir, "--out", out, "--weyuker",
                   "--weyuker-corpus", corpus_kind) == 0
    payload = json.loads((out / "weyuker.json").read_text())
    assert payload["corpus_size"] == size
    corpus = project_corpus(dlib_model)
    if corpus_kind == "both":
        corpus = generate_corpus(payload["seed"]) + corpus
    witnessed = [PropertyReport(p["property"], p["metric"], p["verdict"],
                                p["witness"], p["trials"], p["trial_budget"],
                                p["seed"], p["note"])
                 for p in payload["properties"] if p["verdict"] == "witnessed"]
    assert witnessed
    for report in witnessed:
        assert verify_witness(report, CCC_METRIC, corpus), \
            report.property_number


def test_determinism_with_fixed_timestamp(namedb_trio_dir, tmp_path, capsys):
    args = [namedb_trio_dir, "--weyuker", "--fixed-timestamp",
            "--moa-policy", "any-class"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", out_a) == 0
    assert run_cli(*args, "--out", out_b) == 0
    for name in ("model.xml", "metrics.csv", "metrics.json", "chart.svg",
                 "weyuker.json", "run.json"):
        assert digest(out_a / name) == digest(out_b / name), name


def test_tolerant_mode_warns_and_succeeds(tmp_path, capsys):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    (source_dir / "Ok.java").write_text("class Ok { void f() { } }")
    (source_dir / "Fancy.java").write_text(
        "class Fancy { public <T> T pick(T a, T b) { return a; } }")
    out = tmp_path / "report"
    assert run_cli(source_dir, "--out", out) == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "generic method" in err
    lines = (out / "metrics.csv").read_text().splitlines()
    assert any(line.startswith("C,Ok,") for line in lines)


def test_strict_mode_fails_on_warnings(tmp_path, capsys):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    (source_dir / "Fancy.java").write_text(
        "class Fancy { public <T> T pick(T a, T b) { return a; } }")
    assert run_cli(source_dir, "--out", tmp_path / "o", "--strict") == 1
    assert "error:" in capsys.readouterr().err


def test_tolerant_mode_skips_unlexable_file(tmp_path, capsys):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    (source_dir / "Ok.java").write_text("class Ok { }")
    (source_dir / "Broken.java").write_text('class B { String s = "; }')
    out = tmp_path / "report"
    assert run_cli(source_dir, "--out", out) == 0
    assert "file skipped" in capsys.readouterr().err
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("C,Ok,")


def test_unreadable_file_is_skipped_or_fails_strict(tmp_path, capsys,
                                                    monkeypatch):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    (source_dir / "B.java").write_text("class B { }")
    (source_dir / "G.java").write_text("class G { }")
    read_bytes = Path.read_bytes

    def deny_b(path):
        if path.name == "B.java":
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", deny_b)
    out = tmp_path / "report"
    assert run_cli(source_dir, "--out", out) == 0
    err = capsys.readouterr().err
    denied = f"{(source_dir / 'B.java').as_posix()}: Permission denied"
    assert f"warning: {denied} (file skipped)\n" in err
    assert err.count("B.java") == 1  # the path is named once
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("C,G,")
    assert run_cli(source_dir, "--out", tmp_path / "o", "--strict") == 1
    assert capsys.readouterr().err == f"error: {denied}\n"


def test_model_error_exits_1(tmp_path, capsys):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    (source_dir / "A.java").write_text("class A extends B { }")
    (source_dir / "B.java").write_text("class B extends A { }")
    assert run_cli(source_dir, "--out", tmp_path / "o") == 1
    assert "cycle" in capsys.readouterr().err


def test_discovery_is_lexicographic_and_recursive(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.java").write_text("class B {}")
    (tmp_path / "sub" / "a.java").write_text("class A {}")
    (tmp_path / "zz.txt").write_text("not java")
    files = discover_files([str(tmp_path)])
    names = [p.as_posix() for p in files]
    assert names == sorted(names)
    assert all(p.suffix == ".java" for p in files)
    assert len(files) == 2
    # A symlinked directory is not followed, a broken `.java` link and a
    # directory named `D.java` are no files, a `./` prefix is dropped and
    # a file given twice is listed once.
    (tmp_path / "link").symlink_to(tmp_path / "sub", target_is_directory=True)
    (tmp_path / "X.java").symlink_to(tmp_path / "missing.java")
    (tmp_path / "D.java").mkdir()
    (tmp_path / "D.java" / "e.java").write_text("class E {}")
    monkeypatch.chdir(tmp_path)
    files = discover_files(["./", "./b.java", "b.java", "sub/a.java"])
    assert all(isinstance(p, Path) for p in files)
    assert [p.as_posix() for p in files] == [
        "D.java/e.java", "b.java", "sub/a.java"]


def walk_discovery(inputs):
    """File discovery by os.walk and os.path.isfile, the reference that
    discover_files must agree with."""
    found = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            found.extend(Path(root, name) for root, _, names in os.walk(path)
                         for name in names if name.endswith(".java")
                         and os.path.isfile(os.path.join(root, name)))
        elif path.is_file():
            found.append(path)
    return sorted({p.as_posix(): p for p in found}.values(),
                  key=Path.as_posix)


def test_discovery_matches_the_walk_reference(tmp_path, monkeypatch):
    root = tmp_path / "root"
    (root / "a" / "b" / "c").mkdir(parents=True)
    for name in ("A.java", "a/B.java", "a/b/C.java", "a/b/c/D.java",
                 "a/b/c/notes.txt"):
        (root / name).write_text("class X {}")
    (root / "locked").mkdir()  # scandir fails on it, as without read access
    (root / "locked" / "E.java").write_text("class E {}")
    os.mkfifo(root / "F.java")
    (root / "L.java").symlink_to(root / "a" / "B.java")  # followed
    (root / "Loop.java").symlink_to(root / "Loop.java")  # stat fails
    (root / "loop").symlink_to(root / "loop")
    (root / "nested").symlink_to(root / "a", target_is_directory=True)
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside" / "G.java").write_text("class G {}")
    (tmp_path / "given").symlink_to(tmp_path / "outside",
                                    target_is_directory=True)
    scandir = os.scandir

    def deny_locked(path="."):
        if Path(path).name == "locked":
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", deny_locked)
    monkeypatch.chdir(tmp_path)
    inputs = ["root", "given", "absent", "root/L.java"]
    files = discover_files(inputs)
    assert all(isinstance(p, Path) for p in files)
    assert [str(p) for p in files] == [
        "given/G.java", "root/A.java", "root/L.java", "root/a/B.java",
        "root/a/b/C.java", "root/a/b/c/D.java"]
    assert [str(p) for p in walk_discovery(inputs)] == [
        str(p) for p in files]


def test_order_never_affects_metrics(namedb_trio_dir, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    files = sorted(namedb_trio_dir.glob("*.java"))
    assert run_cli(*files, "--out", out_a, "--fixed-timestamp") == 0
    assert run_cli(*reversed(files), "--out", out_b,
                   "--fixed-timestamp") == 0
    assert (out_a / "metrics.csv").read_text() == \
        (out_b / "metrics.csv").read_text()


def test_config_file_layering(namedb_trio_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "# comment\nmoa-policy=any-class\nwmc=weighted\nseed=7\n")
    out = tmp_path / "report"
    code = run_cli(namedb_trio_dir, "--out", out, "--config", config,
                   "--wmc", "unity")  # flag beats config
    assert code == 0
    settings = json.loads((out / "run.json").read_text())["config"]
    assert settings["moa_policy"] == "any-class"
    assert settings["wmc_mode"] == "unity"


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("mystery=1\n")
    with pytest.raises(ValueError):
        load_config_file(str(config))


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    config = tmp_path / "run.conf"
    config.write_bytes(b"\xef\xbb\xbfseed = 7\nstrict = yes\n")
    assert load_config_file(str(config)) == {"seed": 7, "strict": True}


def test_config_file_not_in_utf8_is_named(namedb_trio_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(b"# caf\xe9\nseed = 7\n")
    out = tmp_path / "report"
    assert run_cli(namedb_trio_dir, "--out", out, "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert "can't decode byte 0xe9" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_format_selection_limits_sheet_outputs(namedb_trio_dir, tmp_path, capsys):
    out_csv = tmp_path / "csv-only"
    assert run_cli(namedb_trio_dir, "--out", out_csv, "--format", "csv") == 0
    assert (out_csv / "metrics.csv").exists()
    assert not (out_csv / "metrics.json").exists()
    out_json = tmp_path / "json-only"
    assert run_cli(namedb_trio_dir, "--out", out_json, "--format", "json") == 0
    assert (out_json / "metrics.json").exists()
    assert not (out_json / "metrics.csv").exists()
    for out in (out_csv, out_json):
        assert (out / "model.xml").exists() and (out / "chart.svg").exists()


def test_crlf_and_lone_cr_sources_match_lf(tmp_path, capsys):
    fixture = Path(__file__).parent / "fixtures" / "tolerant" / "Fancy.java"
    lf = fixture.read_bytes()
    assert b"\r" not in lf
    results = {}
    for name, newline in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        source_dir = tmp_path / name
        source_dir.mkdir()
        (source_dir / "Fancy.java").write_bytes(lf.replace(b"\n", newline))
        out = tmp_path / f"{name}-report"
        assert run_cli(source_dir, "--out", out) == 0
        warnings = capsys.readouterr().err.replace(source_dir.as_posix(), "")
        results[name] = ((out / "metrics.csv").read_text(), warnings)
    assert "line 7" in results["lf"][1] and "line 13" in results["lf"][1]
    assert results["crlf"] == results["lf"]
    assert results["cr"] == results["lf"]


def test_byte_order_mark_is_dropped(dlib_dir, tmp_path, capsys,
                                   monkeypatch):
    # A leading U+FEFF used to become a token, and the file lost its
    # package or its first class. The input digest still reads the bytes.
    bundles, digests = {}, set()
    for bom in (b"", b"\xef\xbb\xbf"):
        tree = tmp_path / f"bom{len(bom)}"
        (tree / "src").mkdir(parents=True)
        monkeypatch.chdir(tree)
        for path in sorted(dlib_dir.glob("*.java")):
            Path("src", path.name).write_bytes(bom + path.read_bytes())
        assert run_cli("src", "--out", "report", "--fixed-timestamp") == 0
        assert capsys.readouterr().err == ""
        bundles[bom] = {path.name: path.read_bytes()
                        for path in Path("report").iterdir()
                        if path.name != "run.json"}
        run = json.loads(Path("report", "run.json").read_text())
        digests.add(run["inputs"]["sha256"])
    assert bundles[b""] == bundles[b"\xef\xbb\xbf"]
    assert len(digests) == 2


def test_input_digest_covers_every_file_read(tmp_path, capsys):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    (source_dir / "Ok.java").write_text("class Ok { }")
    (source_dir / "Bad.java").write_bytes(b"class Bad { } \xff")
    out = tmp_path / "report"
    assert run_cli(source_dir, "--out", out) == 0
    assert "file skipped" in capsys.readouterr().err
    expected = hashlib.sha256()
    for path in discover_files([str(source_dir)]):
        expected.update(path.as_posix().encode() + b"\0"
                        + path.read_bytes() + b"\0")
    run = json.loads((out / "run.json").read_text())
    assert run["inputs"] == {"files": 2, "sha256": expected.hexdigest()}


def test_cli_import_skips_network_modules():
    code = ("import sys, classmetrics.cli; print(sorted(m for m in "
            "('urllib.request', 'http.client', 'email', "
            "'xml.etree.ElementTree', 'pyexpat') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_skips_start_up_heavy_modules():
    # -S: no site-packages .pth file gets to import any of them first.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import classmetrics.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'datetime', 'statistics', "
            "'importlib.resources') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _fresh_python(code: str) -> str:
    """Run `code` in a new interpreter (-S) that imports the package from
    src/, and return the last line it prints."""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {str(src)!r})\n{code}"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["classmetrics", "classmetrics.cli"])
def test_import_leaves_the_harness_unloaded(module):
    code = f"import {module}; print('classmetrics.weyuker' in sys.modules)"
    assert _fresh_python(code) == "False"


@pytest.mark.parametrize("flags, loaded", [
    ([], False),
    (["--weyuker"], True),
    (["--config", "{config}"], True),
])
def test_main_loads_the_harness_only_for_a_weyuker_run(
        flags, loaded, namedb_trio_dir, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("weyuker=yes\ntrials=5\n")
    argv = [str(namedb_trio_dir), "--out", str(tmp_path / "o"),
            *(flag.format(config=config) for flag in flags)]
    code = ("from classmetrics.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('classmetrics.weyuker' in sys.modules)")
    assert _fresh_python(code) == str(loaded)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from classmetrics import *", namespace)
    assert set(classmetrics.__all__) <= namespace.keys()
    assert classmetrics.run_all is classmetrics.weyuker.run_all
    assert classmetrics.cli.run_all is classmetrics.weyuker.run_all


@pytest.mark.parametrize("module", ["classmetrics", "classmetrics.cli"])
def test_unknown_module_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sys.modules[module], "no_such_name")


def test_harness_name_set_before_the_load_is_kept(namedb_trio_dir,
                                                  tmp_path, capsys):
    # The benchmark's tracer sets its wrappers on cli before main runs.
    argv = [str(namedb_trio_dir), "--weyuker", "--fixed-timestamp",
            "--out"]
    code = (
        "import classmetrics.cli as cli\n"
        "calls = []\n"
        "def counting_run_all(*args):\n"
        "    calls.append(args)\n"
        "    from classmetrics.weyuker import run_all\n"
        "    return run_all(*args)\n"
        "cli.run_all = counting_run_all\n"
        "assert 'classmetrics.weyuker' not in sys.modules\n"
        f"assert cli.main({argv + [str(tmp_path / 'wrapped')]!r}) == 0\n"
        "print(len(calls))")
    assert _fresh_python(code) == "1"
    assert run_cli(*argv, tmp_path / "plain") == 0
    capsys.readouterr()
    assert ((tmp_path / "wrapped" / "weyuker.txt").read_bytes()
            == (tmp_path / "plain" / "weyuker.txt").read_bytes())


def test_console_script_module_invocation(namedb_trio_dir, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "classmetrics", str(namedb_trio_dir),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "NameDB" in result.stdout


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_module_run_matches_in_process_main(code, namedb_trio_dir, tmp_path,
                                            capsys):
    cycle = tmp_path / "cycle"
    if code == 1:
        cycle.mkdir()
        (cycle / "A.java").write_text("class A extends B { }")
        (cycle / "B.java").write_text("class B extends A { }")
    (tmp_path / "taken").write_text("a file, not a directory")
    inputs = {0: [namedb_trio_dir, "--fixed-timestamp", "--weyuker",
                  "--trials", 50],
              1: [cycle],
              2: [tmp_path / "nothing"],
              3: [namedb_trio_dir, "--out", tmp_path / "taken"]}[code]
    argv = [str(a) for a in ["--out", tmp_path / "o", *inputs]]
    assert main(argv) == code
    in_process = capsys.readouterr()
    result = subprocess.run([sys.executable, "-m", "classmetrics", *argv],
                            capture_output=True, text=True)
    assert result.returncode == code
    assert result.stdout == in_process.out
    assert result.stderr == in_process.err


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_3_quietly(namedb_trio_dir, tmp_path, unbuffered):
    # The read end is closed before the run, as `| head -1` closes it
    # during one. A buffered stdout meets the broken pipe at the flush, an
    # unbuffered one at the first print.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "classmetrics", str(namedb_trio_dir),
             "--out", str(tmp_path / "o")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert result.returncode == 3
    assert result.stderr == ""
    assert (tmp_path / "o" / "metrics.csv").is_file()


def test_closed_stdout_still_gets_a_weyuker_runs_bundle(namedb_trio_dir,
                                                       tmp_path):
    # Unbuffered, the first write meets the broken pipe; stdout is written
    # only once the bundle is in place, so the bundle is there.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "classmetrics", str(namedb_trio_dir),
             "--out", str(tmp_path / "o"), "--weyuker", "--trials", "20"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1"))
    finally:
        os.close(write_end)
    assert result.returncode == 3
    assert result.stderr == ""
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == sorted(
        BUNDLE_FILES)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_full_stdout_exits_3_with_one_line(namedb_trio_dir, tmp_path,
                                           unbuffered):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "classmetrics", str(namedb_trio_dir),
             "--out", str(tmp_path / "o")],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    assert result.returncode == 3
    assert result.stderr == (
        f"error: standard output: {os.strerror(errno.ENOSPC)}\n")
    assert (tmp_path / "o" / "metrics.csv").is_file()


def test_stdout_is_written_in_one_call(dlib_dir, tmp_path, monkeypatch):
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            if text:
                self.writes.append(text)
            return len(text)

    recorder = Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert run_cli(dlib_dir, "--out", tmp_path / "o", "--weyuker",
                   "--trials", 20) == 0
    [text] = recorder.writes
    assert text.startswith("Weyuker property evaluation")
    out = (tmp_path / "o").as_posix()
    assert text.endswith(f"\nreports written to {out}/\n")


def test_run_with_stdout_closed_from_the_start_succeeds(namedb_trio_dir,
                                                        tmp_path):
    # With descriptor 1 closed, sys.stdout is None and print prints nothing.
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
         "classmetrics", str(namedb_trio_dir), "--out", str(tmp_path / "o")],
        stderr=subprocess.PIPE, text=True)
    assert result.returncode == 0
    assert result.stderr == ""
    assert (tmp_path / "o" / "metrics.csv").is_file()


def test_console_main_runs_main_without_the_collector():
    code = ("import gc, classmetrics.cli as cli; "
            "cli.main = lambda: print(gc.isenabled()) or 5; "
            "print(cli.console_main(), gc.get_freeze_count() > 0)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.stdout.split() == ["False", "5", "True"], result.stderr


def test_console_script_and_module_call_one_function(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]["classmetrics"]
    module, _, name = target.partition(":")
    assert module == "classmetrics.cli"
    monkeypatch.setattr(classmetrics.cli, name, lambda: 7)
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("classmetrics", run_name="__main__")
    assert exited.value.code == 7


def test_in_process_main_leaves_gc_alone(namedb_trio_dir, tmp_path, capsys):
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run_cli(namedb_trio_dir, "--out", tmp_path / "o") == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _cyclic_garbage(argv) -> int:
    """Objects left by main(argv) that only a cyclic collection frees,
    with the collector off during the run as in the CLI process."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main([str(a) for a in argv])
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("extra", [[], ["--weyuker", "--trials", 20]])
def test_cyclic_garbage_does_not_grow_with_the_tree(extra, tmp_path, capsys):
    # The CLI process never collects, so whatever a skipped or warning
    # file leaves in a cycle would stay until exit.
    trees = []
    for copies in (1, 40):
        tree = tmp_path / f"tree{copies}"
        tree.mkdir()
        (tree / "Ok.java").write_text("class Ok { void f() { } }")
        for i in range(copies):
            (tree / f"Lex{i}.java").write_text('class L { String s = "; }')
            (tree / f"Open{i}.java").write_text(f"class U{i} {{ void f() {{ }}")
            (tree / f"Warn{i}.java").write_text(
                f"class W{i} {{ public <T> T pick(T a) {{ return a; }} }}")
        trees.append(tree)
    out = tmp_path / "o"
    _cyclic_garbage([trees[0], "--out", out, *extra])  # warm-up
    one, forty = (_cyclic_garbage([tree, "--out", out, *extra])
                  for tree in trees)
    assert "file skipped" in capsys.readouterr().err
    assert one == forty


TEXT_BLOCK_CLASS = '''class Doc {
    String render() {
        return """
            if (x) { f(); }
            """;
    }
}
'''


def test_text_block_file_gets_its_row(tmp_path, capsys):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    (source_dir / "Doc.java").write_text(TEXT_BLOCK_CLASS)
    out = tmp_path / "report"
    assert run_cli(source_dir, "--out", out, "--strict") == 0
    assert "file skipped" not in capsys.readouterr().err
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("C,Doc,")


def test_trials_below_one_exits_2(namedb_trio_dir, tmp_path, capsys):
    out = tmp_path / "report"
    assert run_cli(namedb_trio_dir, "--out", out, "--weyuker",
                   "--trials", 0) == 2
    assert "error: trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_trials_below_one_in_config_exits_2(namedb_trio_dir, tmp_path,
                                            capsys):
    config = tmp_path / "run.conf"
    config.write_text("weyuker=yes\ntrials=-1\n")
    out = tmp_path / "report"
    assert run_cli(namedb_trio_dir, "--out", out, "--config", config) == 2
    assert "error: trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_class_nesting_past_the_cap_loses_one_declaration(tmp_path):
    # 1,200 levels would overflow the interpreter's recursion limit.
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    depth = 1200
    (source_dir / "Deep.java").write_text(
        "".join(f"class N{i} {{\n" for i in range(depth))
        + "int x;\n" + "}\n" * depth)
    warning = ("Deep.java: class nested deeper than 100 levels skipped"
               " at line 101")
    for flag, code in (("--fixed-timestamp", 0), ("--strict", 1)):
        out = tmp_path / f"report{code}"
        result = subprocess.run(
            [sys.executable, "-m", "classmetrics", str(source_dir),
             "--out", str(out), flag],
            capture_output=True, text=True)
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        assert warning in result.stderr
    rows = (tmp_path / "report0" / "metrics.csv").read_text().splitlines()
    names = [row.split(",")[1] for row in rows[1:]]
    assert names == [".".join(f"N{i}" for i in range(k + 1))
                     for k in range(100)]


@pytest.mark.parametrize("line, message", [
    ("moa_policy = bogus", "bad moa_policy 'bogus'"),
    ("format = xml", "bad format 'xml'"),
    ("wmc = heavy", "bad wmc 'heavy'"),
    ("weyuker_corpus = none", "bad weyuker_corpus 'none'"),
    ("seed = abc", "bad integer 'abc'"),
    ("strict = maybe", "bad boolean 'maybe'"),
    ("strict", "expected key=value"),
])
def test_bad_config_value_exits_2(namedb_trio_dir, tmp_path, capsys, line,
                                  message):
    config = tmp_path / "run.conf"
    config.write_text(f"# settings\n{line}\n")
    out = tmp_path / "report"
    assert run_cli(namedb_trio_dir, "--out", out, "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:2: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_config_accepts_every_flag_choice(tmp_path):
    config = tmp_path / "run.conf"
    for action in build_arg_parser()._actions:
        for value in action.choices or ():
            config.write_text(f"{action.dest} = {value}\n")
            assert load_config_file(str(config)) == {action.dest: value}


def test_config_reads_every_boolean_word(tmp_path):
    config = tmp_path / "run.conf"
    for words, value in (("1 true yes on", True), ("0 false no off", False)):
        for word in words.split():
            config.write_text(f"strict = {word}\n")
            assert load_config_file(str(config)) == {"strict": value}


def test_non_utf8_file_name_is_analysed(tmp_path, capsys):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    path = source_dir / os.fsdecode(b"X\xff.java")
    try:
        path.write_text("class X { }")
    except (OSError, UnicodeEncodeError):
        pytest.skip("the file system refuses names that are not UTF-8")
    out = tmp_path / "report"
    assert run_cli(source_dir, "--out", out) == 0
    assert b'X&#56575;.java' in (out / "model.xml").read_bytes()
    expected = hashlib.sha256(os.fsencode(path) + b"\0class X { }\0")
    run = json.loads((out / "run.json").read_text())
    assert run["inputs"] == {"files": 1, "sha256": expected.hexdigest()}


def test_reused_out_holds_only_this_runs_bundle(namedb_trio_dir, tmp_path,
                                                capsys):
    out = tmp_path / "report"
    out.mkdir()
    (out / "notes.txt").write_text("mine")
    assert run_cli(namedb_trio_dir, "--out", out, "--weyuker",
                   "--trials", 20) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        BUNDLE_FILES + ("notes.txt",))
    assert run_cli(namedb_trio_dir, "--out", out) == 0
    assert not (out / "weyuker.json").exists()
    assert not (out / "weyuker.txt").exists()
    assert (out / "metrics.json").exists()
    assert run_cli(namedb_trio_dir, "--out", out, "--format", "csv") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "chart.svg", "metrics.csv", "model.xml", "notes.txt", "run.json"]
    assert (out / "notes.txt").read_text() == "mine"


def test_failed_run_leaves_previous_bundle_intact(namedb_trio_dir, tmp_path,
                                                  capsys):
    out = tmp_path / "report"
    assert run_cli(namedb_trio_dir, "--out", out, "--weyuker",
                   "--trials", 20) == 0
    before = {p.name: digest(p) for p in out.iterdir()}
    assert run_cli(namedb_trio_dir, "--out", out, "--trials", 0) == 2
    (namedb_trio_dir / "Fancy.java").write_text(
        "class Fancy { public <T> T pick(T a, T b) { return a; } }")
    assert run_cli(namedb_trio_dir, "--out", out, "--strict") == 1
    assert {p.name: digest(p) for p in out.iterdir()} == before


def test_readme_lists_the_bundle_files():
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    listed = re.findall(r"^\| `([^`]+)`", readme, re.MULTILINE)
    assert tuple(listed) == BUNDLE_FILES


HELP_TEXT = """\
usage: classmetrics [-h] [--out DIR] [--format {csv,json,all}]
                    [--moa-policy {project,any-class}]
                    [--wmc {unity,weighted}] [--count-short-circuit]
                    [--count-constructors | --no-count-constructors]
                    [--strict] [--weyuker]
                    [--weyuker-corpus {synthetic,project,both}] [--seed SEED]
                    [--trials TRIALS] [--fixed-timestamp] [--config FILE]
                    [--version]
                    PATH [PATH ...]

Class-level complexity metrics for Java source trees.

positional arguments:
  PATH                  source files and/or directories (searched recursively
                        for *.java)

options:
  -h, --help            show this help message and exit
  --out DIR             output directory (default: out)
  --format {csv,json,all}
                        metric sheet format(s) to write (default: all)
  --moa-policy {project,any-class}
                        which field types count for MOA (default: project)
  --wmc {unity,weighted}
                        WMC column mode (default: unity)
  --count-short-circuit
                        count && and || as decision points
  --count-constructors, --no-count-constructors
                        count constructors as methods (default: yes)
  --strict              fail (exit 1) on any parse warning or error
  --weyuker             also run the Weyuker property harness
  --weyuker-corpus {synthetic,project,both}
                        corpus for the harness (default: synthetic)
  --seed SEED           seed for the synthetic corpus (default: 42)
  --trials TRIALS       trial budget per property (default: 1000)
  --fixed-timestamp     pin the run timestamp for byte-identical output
  --config FILE         key=value config file; command-line flags win
  --version             show program's version number and exit
"""


def test_help_text_is_unchanged(monkeypatch):
    # The settings table must render the flags exactly as the hand-written
    # add_argument calls did (argparse's layout at 80 columns).
    monkeypatch.setenv("COLUMNS", "80")
    assert build_arg_parser().format_help() == HELP_TEXT


def test_readme_library_example_runs_and_names_row_fields(dlib_dir):
    # The "Library" block, run with `paths` bound to the dlib fixtures;
    # each `.name` its row paragraph gives must be a field of every row.
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    namespace = {"paths": sorted(dlib_dir.glob("*.java"))}
    exec(code, namespace)
    rows = namespace["rows"]
    assert len(rows) == 18
    paragraph = next(text for text in section.split("\n\n")
                     if text.startswith("A row's fields"))
    named = set(re.findall(r"`\.(\w+)`", paragraph))
    assert {"nomt", "avcc", "ccc", "wmc", "cmc", "cc"} <= named
    for row in rows:
        assert named <= set(row._fields), named - set(row._fields)


def test_readme_library_names_every_public_name():
    import classmetrics
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)`", section))
    assert set(classmetrics.__all__) - named == set()


def test_readme_dotted_names_resolve():
    # Each `classmetrics.` name README gives is a module or an attribute
    # of one, so removing a name cannot leave README naming it.
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    names = set(re.findall(r"\bclassmetrics(?:\.\w+)+", readme))
    assert {"classmetrics.cli.main", "classmetrics.__all__"} <= names
    for name in sorted(names):
        parts = name.split(".")
        cut = len(parts)
        while True:
            try:
                found = importlib.import_module(".".join(parts[:cut]))
                break
            except ModuleNotFoundError:
                cut -= 1
        for attr in parts[cut:]:
            assert hasattr(found, attr), name
            found = getattr(found, attr)


def test_readme_lists_every_flag():
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    flags = {flag for action in build_arg_parser()._actions
             for flag in action.option_strings if flag.startswith("--")}
    assert "--no-count-constructors" in flags
    assert flags <= set(re.findall(r"--[a-z][a-z-]*", readme))


def test_readme_and_pyproject_name_one_python_floor_that_this_one_meets():
    import tomllib  # itself new in Python 3.11
    root = Path(__file__).parent.parent
    required = tomllib.loads((root / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]["requires-python"]
    readme = (root / "README.md").read_text(encoding="utf-8")
    [named] = re.findall(r"Python (\d+\.\d+)\+", readme)
    assert required == f">={named}"
    floor = tuple(map(int, named.split(".")))
    assert floor >= (3, 11)  # the lexer's possessive repeats
    assert sys.version_info[:2] >= floor


def bundle_digests(out):
    return {p.name: digest(p) for p in out.iterdir() if p.is_file()}


def test_bundle_name_held_by_a_directory_exits_3(namedb_trio_dir, tmp_path,
                                                 capsys):
    out = tmp_path / "report"
    assert run_cli(namedb_trio_dir, "--out", out) == 0
    before = bundle_digests(out)
    (out / "weyuker.json").mkdir()
    capsys.readouterr()
    assert run_cli(namedb_trio_dir, "--out", out, "--format", "csv",
                   "--moa-policy", "any-class", "--weyuker") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: output directory not writable:")
    assert "weyuker.json" in err and (out / "weyuker.json").is_dir()
    # Nothing was moved into place, and nothing staged is left behind.
    assert bundle_digests(out) == before
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*before, "weyuker.json"])


def test_failed_staging_leaves_previous_bundle_intact(
        namedb_trio_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "report"
    assert run_cli(namedb_trio_dir, "--out", out) == 0
    before = bundle_digests(out)
    write_bytes = Path.write_bytes
    written = []

    def fail_on_second_write(path, data):
        written.append(path)
        if len(written) == 2:
            raise OSError(28, "No space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", fail_on_second_write)
    assert run_cli(namedb_trio_dir, "--out", out, "--moa-policy",
                   "any-class") == 3
    assert "No space left on device" in capsys.readouterr().err
    assert all(p.parent != out for p in written)
    assert bundle_digests(out) == before
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
