"""A run whose sources are large enough is lexed and parsed in forked
children as well as in its own process (see cli._slices). These tests
force that path by giving the process two CPUs, and the sequential loop
by giving it one or taking os.fork away, and require the same bundle
bytes, stdout, stderr, exit code or exception from both. Each test runs
at most two processes at once, and no run may leave a child behind."""

import hashlib
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from classmetrics import cli

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the forked path needs os.fork and os.sched_getaffinity")

SRC = Path(__file__).resolve().parent.parent / "src"
METHODS = "".join(f"    int m{j}(int x) {{ if (x > {j} && x < 99) {{ "
                  f"return x; }} while (x > 0) {{ x--; }} return {j}; }}\n"
                  for j in range(24))
BAD_FILES = {
    "latin1.java": 'class Latin { String s = "\xe9"; }'.encode("latin-1"),
    "unbalanced.java": b"class Open { void f() { }",
    "unlexable.java": b'class Lex { String s = "; }',
    "unreadable.java": b"class Unread { }",
    "warns.java": b"class Warn { public <T> T pick(T a) { return a; } }",
}


def make_tree(root: Path, ends=("a", "z")) -> Path:
    """About 200 KB of generated classes, with each bad file once at
    each given end of the file order, so at each end of the split."""
    root.mkdir()
    for i in range(90):
        (root / f"m{i:03}.java").write_text(f"class M{i} {{\n{METHODS}}}\n")
        (root / f"m{i:03}w.java").write_text(
            f"class W{i} {{ public <T> T pick{i}(T a) {{ return a; }} }}\n")
    for end in ends:
        for name, data in BAD_FILES.items():
            (root / f"{end}_{name}").write_bytes(
                data.replace(b"class ", f"class {end.upper()}".encode(), 1))
    assert sum(p.stat().st_size for p in root.iterdir()) > (
        2 * cli.MIN_SLICE_BYTES)
    return root


@pytest.fixture()
def deny_unreadable(monkeypatch):
    read_bytes = Path.read_bytes

    def deny(path):
        if path.name.endswith("unreadable.java"):
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", deny)


def use(monkeypatch, mode: str) -> list:
    """Set the process up for `mode`; the list records each fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0} if mode == "one-cpu" else {0, 1})
    if mode == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def run(tree: Path, out: Path, capsys, *flags) -> tuple:
    """(exit code, stdout, stderr, bundle digests) of one run of main,
    with --out masked; no child of this process may be left."""
    code = cli.main([str(tree), "--out", str(out), "--fixed-timestamp",
                     *flags])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    captured = capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())} if out.is_dir() else {}
    return (code, captured.out.replace(str(out), "OUT"),
            captured.err, digests)


@pytest.mark.parametrize("flags", [[], ["--strict"],
                                   ["--weyuker", "--trials", "20",
                                    "--weyuker-corpus", "project"]])
@pytest.mark.parametrize("ends", [("a", "z"), ("z",)])
def test_forked_run_matches_the_sequential_loop(
        tmp_path, capsys, monkeypatch, deny_unreadable, flags, ends):
    tree = make_tree(tmp_path / "tree", ends)
    results = {}
    for mode in ("forked", "one-cpu", "no-fork"):
        with monkeypatch.context() as patch:
            forks = use(patch, mode)
            if mode == "forked":
                assert len(cli._slices(cli.discover_files([str(tree)]))) == 2
            results[mode] = run(tree, tmp_path / mode, capsys, *flags)
        assert len(forks) == (mode == "forked")
    assert results["forked"] == results["one-cpu"] == results["no-fork"]
    code, _, err, _ = results["forked"]
    assert code == (1 if "--strict" in flags else 0)
    assert f"{ends[0]}_latin1.java" in err
    if not flags:
        assert err.count("(file skipped)") == 4 * len(ends)
        assert err.count("generic method") == 90 + len(ends)


@pytest.mark.parametrize("where", ["m010.java", "m080.java"])
def test_failing_child_raises_as_the_sequential_loop(
        tmp_path, capsys, monkeypatch, where):
    # m010 is in the child's slice, m080 in this process's.
    tree = make_tree(tmp_path / "tree", ends=())
    parse = cli.parse

    def failing(tokens, path):
        if path.endswith(where):
            raise RuntimeError(f"cannot parse {path}")
        return parse(tokens, path)

    monkeypatch.setattr(cli, "parse", failing)
    raised = {}
    for mode in ("forked", "one-cpu"):
        with monkeypatch.context() as patch:
            use(patch, mode)
            with pytest.raises(RuntimeError) as error:
                cli.main([str(tree), "--out", str(tmp_path / mode)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        raised[mode] = str(error.value)
    assert raised["forked"] == raised["one-cpu"]
    assert raised["forked"].endswith(f"/{where}")


def test_strict_error_before_a_failure_in_the_last_slice_wins(
        tmp_path, capsys, monkeypatch, deny_unreadable):
    # The sequential loop stops at the first skipped file under --strict
    # and never reaches the file that raises.
    tree = make_tree(tmp_path / "tree", ends=("a",))
    parse = cli.parse

    def failing(tokens, path):
        if path.endswith("m080.java"):
            raise RuntimeError("not reached")
        return parse(tokens, path)

    monkeypatch.setattr(cli, "parse", failing)
    results = {}
    for mode in ("forked", "one-cpu"):
        with monkeypatch.context() as patch:
            use(patch, mode)
            results[mode] = run(tree, tmp_path / mode, capsys, "--strict")
    assert results["forked"] == results["one-cpu"]
    assert results["forked"][0] == 1


@pytest.mark.parametrize("fault", ["killed", "garbage"])
def test_lost_child_slice_is_done_in_this_process(
        tmp_path, capsys, monkeypatch, fault):
    tree = make_tree(tmp_path / "tree")
    parent = os.getpid()
    if fault == "killed":
        parse = cli.parse

        def parse_or_die(tokens, path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse(tokens, path)

        monkeypatch.setattr(cli, "parse", parse_or_die)
    else:
        monkeypatch.setattr(pickle, "dumps", lambda *args: b"not a pickle")
    results = {}
    for mode in ("forked", "one-cpu"):
        with monkeypatch.context() as patch:
            forks = use(patch, mode)
            results[mode] = run(tree, tmp_path / mode, capsys)
        assert len(forks) == (mode == "forked")
    assert results["forked"] == results["one-cpu"]
    assert results["forked"][0] == 0


def test_no_fork_with_another_thread_or_a_small_tree(tmp_path, monkeypatch):
    tree = make_tree(tmp_path / "tree")
    files = cli.discover_files([str(tree)])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [len(part) for part in cli._slices(files)] != [len(files)]
    assert sum(map(len, cli._slices(files))) == len(files)
    monkeypatch.setattr(cli.threading, "active_count", lambda: 2)
    assert cli._slices(files) == [files]
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    small = files[:len(files) // 4]
    assert cli._slices(small) == [small]


def test_slices_are_contiguous_and_byte_balanced(tmp_path, monkeypatch):
    tree = make_tree(tmp_path / "tree", ends=())
    files = cli.discover_files([str(tree)])
    sizes = {path: path.stat().st_size for path in files}
    for cpus in (2, 3, 8):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        slices = cli._slices(files)
        assert [p for part in slices for p in part] == files
        assert len(slices) == min(cpus, sum(sizes.values())
                                  // cli.MIN_SLICE_BYTES)
        shares = [sum(sizes[p] for p in part) for part in slices]
        assert max(shares) - min(shares) <= 2 * max(sizes.values())


def test_forked_run_leaves_no_descriptor_or_file_open(tmp_path):
    # -X dev with ResourceWarning as an error: a pipe end or a file left
    # open in either process would print "Exception ignored".
    tree = make_tree(tmp_path / "tree")
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from classmetrics.cli import console_main; "
            "sys.exit(console_main())")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         code, str(tree), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert result.returncode == 0, result.stderr
    assert "Exception ignored" not in result.stderr
    assert "ResourceWarning" not in result.stderr
    assert (tmp_path / "o" / "metrics.csv").is_file()
