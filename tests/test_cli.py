import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from classmetrics.cli import (BUNDLE_FILES, build_arg_parser, discover_files,
                              load_config_file, main)


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


def test_discovery_is_lexicographic_and_recursive(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.java").write_text("class B {}")
    (tmp_path / "sub" / "a.java").write_text("class A {}")
    (tmp_path / "zz.txt").write_text("not java")
    files = discover_files([str(tmp_path)])
    names = [p.as_posix() for p in files]
    assert names == sorted(names)
    assert all(p.suffix == ".java" for p in files)
    assert len(files) == 2


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


def test_console_script_module_invocation(namedb_trio_dir, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "classmetrics", str(namedb_trio_dir),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "NameDB" in result.stdout


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
