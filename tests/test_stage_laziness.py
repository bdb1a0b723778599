"""Each subcommand runs only the stages it needs, each query is parsed and
its keywords found at most once, and ``report`` output stays
byte-identical to the recorded golden hashes."""
from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from collections import Counter
from functools import cached_property

import pytest

import cqowl.correspondence
import cqowl.corpus
import cqowl.pipeline
from cqowl.cli import SUBCOMMANDS, main
from cqowl.correspondence import BUILTIN_RULES, SignalRule, mine_signals, rule_matches
from cqowl.corpus import load_corpus
from tests.conftest import CORPUS_PATH, REPO_ROOT

GOLDEN_PATH = REPO_ROOT / "perfbench" / "golden.json"


@pytest.fixture
def calls(monkeypatch):
    """Counts of the stage functions called while the test runs."""
    counts = {"parse": Counter(), "annotate": 0, "canonicalize": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            if name == "parse":
                counts["parse"][args[0]] += 1
            else:
                counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, attr, name in (
        (cqowl.corpus, "parse_query", "parse"),
        (cqowl.pipeline, "annotate_sentence", "annotate"),
        (cqowl.pipeline, "group_by_signature", "canonicalize"),
    ):
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    return counts


def run(command, out):
    return main([command, "--corpus", str(CORPUS_PATH), "--out", str(out)])


def test_report_parses_each_query_once(tmp_path, calls):
    assert run("report", tmp_path) == 0
    corpus = load_corpus(CORPUS_PATH)
    queries = Counter(q.query_text for q in corpus.questions
                      if q.query_text is not None)
    assert sum(queries.values()) == 131
    assert calls["parse"] == queries
    assert calls["annotate"] == 234
    assert calls["canonicalize"] == 1


def test_chunk_parses_and_canonicalizes_nothing(tmp_path, calls):
    assert run("chunk", tmp_path) == 0
    assert calls["annotate"] == 234
    assert not calls["parse"]
    assert calls["canonicalize"] == 0


@pytest.mark.parametrize("command", ["keywords", "parse", "signatures"])
def test_query_subcommands_annotate_nothing(tmp_path, calls, command):
    assert run(command, tmp_path) == 0
    assert calls["annotate"] == 0
    assert sum(calls["parse"].values()) == 131
    assert calls["canonicalize"] == (1 if command == "signatures" else 0)


def test_mine_signals_computes_keywords_once_per_row(bundle, monkeypatch):
    rows = bundle.translated_rows()
    seen = Counter()
    original = cqowl.correspondence.keyword_presence

    def counting(ast):
        seen[id(ast)] += 1
        return original(ast)

    monkeypatch.setattr(cqowl.correspondence, "keyword_presence", counting)
    rules = [SignalRule(kw, "initial_word_class", ("Which", "What", "Is"),
                        "keyword", kw)
             for kw in ("SELECT", "ASK", "DISTINCT", "FILTER")]
    results = mine_signals(rules, rows)
    assert max(seen.values()) == 1
    assert 0 < len(seen) <= len(rows)
    assert sum(r.denominator for r in results) == 4 * len(seen)


def test_mine_signals_splits_each_cq_once(bundle, monkeypatch):
    rows = bundle.translated_rows()
    split = Counter()
    original = cqowl.correspondence.cq_words

    def counting(text):
        split[text] += 1
        return original(text)

    monkeypatch.setattr(cqowl.correspondence, "cq_words", counting)
    results = mine_signals(BUILTIN_RULES, rows)
    assert sum(split.values()) == len(rows)
    assert [r.denominator for r in results] == [
        sum(rule_matches(rule, raw, pattern_text) for _, raw, pattern_text, _, _ in rows)
        for rule in BUILTIN_RULES]
    # phrase rules read only the pattern-level text
    split.clear()
    phrase_rules = [r for r in BUILTIN_RULES if r.matcher_kind == "contains_phrase"]
    assert phrase_rules
    mine_signals(phrase_rules, rows)
    assert not split


def test_mine_signals_splits_each_pattern_text_and_phrase_once(bundle):
    splits = Counter()

    class Counted(str):
        def split(self, *args):
            splits[id(self)] += 1
            return super().split(*args)

    rows = [(cq_id, raw, Counted(pattern_text), ast, skeleton)
            for cq_id, raw, pattern_text, ast, skeleton in bundle.translated_rows()]
    phrase_rules = [r for r in BUILTIN_RULES if r.matcher_kind == "contains_phrase"]
    rules = [SignalRule(r.id, r.matcher_kind, tuple(map(Counted, r.matcher_value)),
                        r.target_kind, r.target_value) for r in phrase_rules]
    results = mine_signals(rules, rows)
    assert [splits[id(row[2])] for row in rows] == [1] * len(rows)
    assert all(splits[id(token)] == 1 for r in rules for token in r.matcher_value)
    assert results == mine_signals(phrase_rules, bundle.translated_rows())


def test_report_is_byte_identical_to_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["files"]
    assert main(["report", "--corpus", str(CORPUS_PATH), "--out",
                 str(tmp_path), "--paper-calibration", "--emit", "csv,md"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())
               if p.name != "run_manifest.json"}
    assert digests == golden


def test_subcommands_split_report_byte_identically(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["files"]
    steps = [c for c in SUBCOMMANDS if c not in ("validate", "report")]
    assert len(steps) == 8
    union = {}
    for command in steps:
        out = tmp_path / command
        assert main([command, "--corpus", str(CORPUS_PATH), "--out", str(out),
                     "--paper-calibration", "--emit", "csv,md"]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())
                   if p.name != "run_manifest.json"}
        assert written, command
        assert not set(written) & set(union), command  # no file written twice
        union.update(written)
    assert union == golden


def test_every_traced_site_resolves(monkeypatch):
    """The benchmark's tracer wraps the module attributes listed in
    ``perfbench/spans.py``; moving one of them must fail here, and not only
    in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = []
    for owner, attr, *_ in spans.SITES:
        try:
            getattr(spans._resolve(owner), attr)
        except (ImportError, AttributeError):
            missing.append(f"{owner}.{attr}")
    assert spans.SITES and missing == []


def test_report_emits_through_the_traced_sites(tmp_path, monkeypatch):
    """The benchmark counts emitted files at ``cqowl.reporting.Table.write``
    and JSONL outputs at ``cqowl.cli.write_jsonl``; a file written around
    them would be missing from its per-layer metrics."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["report", "--corpus", str(CORPUS_PATH), "--out", str(tmp_path),
                     "--paper-calibration", "--emit", "csv,md"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    writes = [s for s in tracer.spans if s.name == "reporting.Table.write"]
    assert (len(writes), sum(s.counts["files"] for s in writes)) == (24, 48)
    assert sum(s.name == "reporting.write_jsonl" for s in tracer.spans) == 3
    assert len(list(tmp_path.iterdir())) == 48 + 3 + 1  # and the run manifest


def test_report_builds_translated_rows_once(tmp_path, monkeypatch):
    bundle_class = cqowl.pipeline.AnalysisBundle
    build = bundle_class._translated.func
    builds = []

    def counting(self):
        builds.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(bundle_class, "_translated")
    monkeypatch.setattr(bundle_class, "_translated", prop)
    received = []
    mine, discover = cqowl.pipeline.mine_signals, cqowl.pipeline.discover_signals

    def mining(rules, translated):
        received.append(translated)
        return mine(rules, translated)

    def discovering(translated, **options):
        received.append(translated)
        return discover(translated, **options)

    monkeypatch.setattr(cqowl.pipeline, "mine_signals", mining)
    monkeypatch.setattr(cqowl.pipeline, "discover_signals", discovering)
    assert run("report", tmp_path) == 0
    assert len(builds) == 1
    assert len(received) == 2 and received[0] is received[1]
