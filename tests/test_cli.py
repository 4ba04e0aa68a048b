import hashlib
import json
import subprocess
import sys

import pytest

from classmetrics.cli import discover_files, load_config_file, main


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
