"""Self-tests of the benchmark. Run with `python3 -m pytest bench` or
`python3 -m unittest discover -s bench`."""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import bodies
import checks
import corpus
import run
import tracing
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


class TempDirTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="bench-test-"))
        self.addCleanup(shutil.rmtree, self.tmp, True)


class CfgOracleTest(unittest.TestCase):
    def test_known_shapes(self):
        expr = bodies.Expr()
        cases = [
            ([], 1),
            ([expr], 1),
            ([bodies.Expr(ternaries=2)], 3),
            ([bodies.If([expr])], 2),
            ([bodies.If([expr], [expr])], 2),
            ([bodies.Loop("while", [])], 2),
            ([bodies.Loop("do", [expr])], 2),
            ([bodies.Loop("for", [expr])], 2),
            ([bodies.Switch([([expr], True), ([], False)])], 3),
            ([bodies.Switch([([expr], True)], [expr])], 2),
            ([bodies.Try([expr], [[expr], [expr]])], 3),
        ]
        for body, expected in cases:
            self.assertEqual(bodies.cyclomatic(body), expected, body)

    def test_render_is_balanced(self):
        rng = random.Random(7)
        for _ in range(50):
            text = "\n".join(bodies.render(bodies.random_body(rng), 4))
            self.assertEqual(text.count("{"), text.count("}"))


class CorpusTest(TempDirTest):
    def digest(self, root: Path) -> dict:
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*.java"))}

    def test_same_seed_same_corpus(self):
        for make in (lambda root, seed: corpus.dlib_wide(
                         run.FIXTURES, root, seed, 4),
                     lambda root, seed: corpus.decision_deep(
                         root, seed, 20_000)):
            a, b, c = (self.tmp / n for n in "abc")
            first, again, other = make(a, 3), make(b, 3), make(c, 4)
            self.assertEqual(first.describe(), again.describe())
            self.assertEqual(self.digest(a), self.digest(b))
            self.assertNotEqual(self.digest(a), self.digest(c))
            self.assertEqual(first.oracle, again.oracle)
            shutil.rmtree(self.tmp)
            self.tmp.mkdir()

    def test_decorated_copies_hold_comments_only(self):
        made = corpus.dlib_wide(run.FIXTURES, self.tmp, 1, 2)
        plain, decorated = sorted(p for p in self.tmp.iterdir())
        self.assertGreater(made.comment_bytes, 0)
        for path in plain.iterdir():
            a = corpus.strip_comments(path.read_text())[0].split()
            b = corpus.strip_comments(
                (decorated / path.name).read_text())[0].split()
            self.assertEqual(a[2:], b[2:], path.name)  # past the package


class ChecksTest(TempDirTest):
    def make_deep(self):
        made = corpus.decision_deep(self.tmp / "corpus", 5, 12_000)
        return WORKLOADS["decision-deep"], made

    def test_planted_wrong_expectation_fails_every_invocation(self):
        workload, made = self.make_deep()
        name = sorted(made.oracle)[0]
        methods, complexity, imports = made.oracle[name]
        made.oracle[name] = (methods, complexity + 1, imports)
        samples, tally, reference = run.measure_cli(workload, made, self.tmp, 0)
        self.assertEqual(tally.attempted, len(samples) + 1)
        self.assertEqual(tally.failed, tally.attempted)
        self.assertIsNone(reference)
        self.assertTrue(any(name in m for m in tally.messages), tally.messages)

    def test_correct_expectation_passes(self):
        workload, made = self.make_deep()
        samples, tally, reference = run.measure_cli(workload, made, self.tmp, 0)
        self.assertEqual(tally.failed, 0, tally.messages)
        self.assertIn("metrics.csv", reference)

    def test_missing_reports_are_a_failure_not_a_crash(self):
        workload, made = self.make_deep()
        (self.tmp / "out").mkdir()
        failures = checks.run_checks(
            lambda: workload.check(made, self.tmp / "out"))
        self.assertTrue(failures)


class Wait4Test(TempDirTest):
    def test_grandchild_cpu_is_counted(self):
        burn = ("import time; end = time.process_time() + 0.6\n"
                "while time.process_time() < end: pass")
        parent = ("import subprocess, sys; "
                  f"subprocess.run([sys.executable, '-c', {burn!r}], check=True)")
        inv = run.spawn([sys.executable, "-c", parent], self.tmp)
        self.assertEqual(inv.returncode, 0, inv.stderr)
        self.assertGreaterEqual(inv.cpu_s, 0.55)


class TracingTest(TempDirTest):
    def test_self_times_partition_the_root(self):
        spans = [("cli.main", 0.0, 10.0, -1), ("lexer.tokenize", 1.0, 4.0, 0),
                 ("parser.scan_body", 2.0, 3.0, 1), ("report.emit", 5.0, 9.0, 0)]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(tracing.span_table(spans)["cli.main"], [1, 10.0, 3.0])

    def test_tracer_links_parents_and_counts_errors(self):
        tracer = tracing.Tracer()

        def fail():
            raise ValueError("planted")

        inner = tracer.wrap(fail, "parser.inner")

        def outer():
            time.sleep(0.001)
            try:
                inner()
            except ValueError:
                pass

        tracer.wrap(outer, "cli.main")()
        [(name, _, _, parent)] = [s for s in tracer.spans if s[0] != "cli.main"]
        self.assertEqual((name, parent), ("parser.inner", 0))
        self.assertEqual(tracer.errors["parser.inner"], 1)

    def test_traced_run_accounts_for_main(self):
        argv = [str(run.FIXTURES), "--out", str(self.tmp / "out"),
                "--moa-policy", "any-class", "--weyuker", "--fixed-timestamp"]
        result = tracing.run(0, argv)
        metrics = result["metrics"]
        self.assertEqual(result["failures"], [])
        self.assertEqual(result["absent"], [])
        self.assertAlmostEqual(metrics["trace.accounted_ratio"], 1.0, places=9)
        self.assertEqual(metrics["metrics.rows"], 18)
        self.assertGreater(metrics["weyuker.trials"], 0)
        self.assertGreater(metrics["lexer.alloc_peak_mb"], 0)
        self.assertEqual(set(metrics), set(tracing.empty_metrics()))


class ContractTest(TempDirTest):
    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: run.unit_of(k) for k in tracing.empty_metrics()})
        self.assertEqual(spec["run_seconds"], run.DEFAULT_SECONDS)

    def test_refuses_to_run_without_the_program(self):
        shutil.copy(run.ROOT / "BENCHMARK.json", self.tmp)
        shutil.copytree(run.BENCH, self.tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fixture-cli",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=self.tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
