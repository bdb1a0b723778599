"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "data" / "cq_sparql_owl.jsonl"


class GeneratorTest(unittest.TestCase):
    def test_adversarial_set_is_deterministic_and_seed_ordered(self):
        first = json.dumps(gen.adversarial_set(5))
        self.assertEqual(first, json.dumps(gen.adversarial_set(5)))
        other = gen.adversarial_set(6)
        self.assertNotEqual(first, json.dumps(other))
        self.assertNotEqual([q["id"] for q in json.loads(first)[0]],
                            [q["id"] for q in other[0]])

    def test_brute_force_covers_every_order(self):
        query = gen.adversarial_query(1, 0, "filter", 3)
        variants = list(gen.brute_force_variants(query))
        self.assertEqual(len(variants), 6 * 2 ** 3)
        self.assertEqual(len(set(variants)), len(variants))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        tree = [
            spans.Span("root", 0.0, 10.0, -1),
            spans.Span("a", 1.0, 4.0, 0),
            spans.Span("b", 3.0, 6.0, 0),    # overlaps a: counted once
            spans.Span("a.1", 2.0, 3.0, 1),
            spans.Span("late", 9.0, 12.0, 0),  # clipped to the parent's end
        ]
        self.assertEqual(spans.self_times(tree), [4.0, 2.0, 3.0, 1.0, 3.0])
        self.assertEqual(spans.root_cover(tree), 10.0)

    def test_layer_metrics_sum_self_time_calls_and_counts(self):
        tree = [
            spans.Span("cli.main", 0.0, 1.0, -1),
            spans.Span("queryparse.parse_query", 0.1, 0.3, 0),
            spans.Span("queryparse.parse_query", 0.3, 0.4, 0, error="QueryParseError"),
            spans.Span("signatures.canonicalize", 0.5, 0.6, 0, error=spans.LIMIT_ERROR),
            spans.Span("reporting.Table.write", 0.6, 0.8, 0, counts={"files": 2}),
        ]
        m = spans.layer_metrics(tree, queries=2)
        self.assertAlmostEqual(m["cli.main.self_s"], 0.4)
        self.assertAlmostEqual(m["queryparse.parse_query.self_s"], 0.3)
        self.assertEqual(m["queryparse.parse_query.calls"], 2)
        self.assertEqual(m["queryparse.parse_query.errors"], 1)
        self.assertEqual(m["queryparse.parse_query.calls_per_query"], 1.0)
        self.assertEqual(m["signatures.canonicalize.skipped"], 1)
        self.assertEqual(m["reporting.Table.write.files"], 2)
        self.assertEqual(m["linguistics.annotate_sentence.calls"], 0)


class OutputCheckTest(unittest.TestCase):
    """The checks pass on the program's real output and name what a
    corrupted file breaks."""

    @classmethod
    def setUpClass(cls):
        cls.golden = checks.load_golden()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.out = Path(cls.tmp.name) / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "cqowl.cli", "report", "--corpus", str(CORPUS),
             "--out", str(cls.out), "--paper-calibration", "--emit", "csv,md"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True)
        cls.returncode = proc.returncode

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check(self):
        return checks.check_operation("report", self.returncode, self.out, "", self.golden)

    def test_report_output_passes_and_corruption_fails(self):
        self.assertEqual(self.check(), [])
        target = self.out / "keywords.csv"
        original = target.read_bytes()
        try:
            target.write_bytes(original.replace(b"131", b"130", 1))
            self.assertEqual(self.check(), ["golden_sha256:keywords.csv",
                                            "published_keywords"])
        finally:
            target.write_bytes(original)
        extra = self.out / "stray.csv"
        extra.write_text("x\n")
        try:
            self.assertEqual(self.check(), ["golden_sha256:stray.csv"])
        finally:
            extra.unlink()

    def test_failed_exit_is_a_failed_check(self):
        self.assertEqual(
            checks.check_operation("chunk", 1, self.out, "", self.golden), ["exit_status"])


class CanonCheckTest(unittest.TestCase):
    def test_wrong_expected_skeleton_fails_its_checks(self):
        """One pass with the expectation of one small query corrupted: every
        other query passes and the corrupted one fails both of its checks."""
        passes = gen.adversarial_set(3)
        victim = next(q for q in passes[0] if q["family"] == "symmetric" and q["n"] == 3)
        victim["expected"] = victim["expected"].replace("?v3", "?v4")
        with tempfile.TemporaryDirectory() as tmp:
            queries, spec, result = (Path(tmp) / name for name in
                                     ("queries.json", "spec.json", "result.json"))
            queries.write_text(json.dumps(passes), encoding="utf-8")
            spec.write_text(json.dumps({"mode": "canon", "queries": str(queries),
                                        "trace": False, "round": 0,
                                        "check_minimum": True}), encoding="utf-8")
            subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                            str(spec), str(result)], check=True,
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
            outcome = json.loads(result.read_text(encoding="utf-8"))
        self.assertEqual(outcome["failures"],
                         {"expected_skeleton": 1, "bruteforce_minimum": 1})
        self.assertEqual(outcome["failed"], 2)
        self.assertEqual(outcome["skipped"], 31)


if __name__ == "__main__":
    unittest.main()
