"""Span recording from outside the program, and per-layer metrics.

The tracer replaces public ``cqowl`` functions at the module attribute
where their callers look them up (``cqowl.pipeline.annotate_sentence``,
``cqowl.corpus.parse_query``, ``cqowl.reporting.Table.write``...) with a
wrapper that records one span per call: name, start, end, the span that
was open when it started, and the exception class if the call raised.
Spans stay in memory; metrics are derived from them after each round.

Metric names are ``<module>.<function>.<quantity>``.  Spans recorded inside
the program later should reuse these names.
"""
from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

LIMIT_ERROR = "CanonicalizationLimitExceeded"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list; -1 at the root
    error: Optional[str] = None
    counts: dict = field(default_factory=dict)


def _groups_out(result) -> dict:
    return {"groups_out": len(result[0])}


# (owner, attribute, span name, counts taken from the return value)
SITES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cqowl.cli", "main", "cli.main", None),
    ("cqowl.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("cqowl.cli", "load_corpus", "corpus.load_corpus",
     lambda r: {"records": len(r.questions)}),
    ("cqowl.cli", "translatability_report", "corpus.translatability_report", None),
    ("cqowl.pipeline", "annotate_sentence", "linguistics.annotate_sentence", None),
    ("cqowl.pipeline", "to_pattern_candidate", "linguistics.to_pattern_candidate", None),
    ("cqowl.pipeline", "filter_candidates", "patterns.filter_candidates",
     lambda r: {"patterns_out": len(r[0]), "rejected_out": len(r[1])}),
    ("cqowl.pipeline", "higher_level_inventory", "patterns.higher_level_inventory",
     lambda r: {"patterns_out": len(r)}),
    ("cqowl.cli", "classify_cq", "patterns.classify_cq", None),
    ("cqowl.corpus", "parse_query", "queryparse.parse_query", None),
    ("cqowl.queryparse", "keyword_presence", "queryparse.keyword_presence", None),
    ("cqowl.correspondence", "keyword_presence", "queryparse.keyword_presence", None),
    ("cqowl.cli", "keyword_report", "queryparse.keyword_report", None),
    ("cqowl.cli", "serialize_query", "queryparse.serialize_query", None),
    ("cqowl.signatures", "canonicalize", "signatures.canonicalize", None),
    ("cqowl.correspondence", "canonicalize", "signatures.canonicalize", None),
    ("cqowl.signatures", "group_by_signature", "signatures.group_by_signature", _groups_out),
    ("cqowl.pipeline", "group_by_signature", "signatures.group_by_signature", _groups_out),
    ("cqowl.pipeline", "build_mapping", "correspondence.build_mapping", None),
    ("cqowl.pipeline", "mine_signals", "correspondence.mine_signals", None),
    ("cqowl.pipeline", "discover_signals", "correspondence.discover_signals",
     lambda r: {"ngrams_out": len(r)}),
    ("cqowl.reporting:Table", "write", "reporting.Table.write",
     lambda r: {"files": len(r)}),
    ("cqowl.cli", "write_jsonl", "reporting.write_jsonl", None),
)

# metric name -> (span name, quantity); quantities other than self_s, calls,
# errors and skipped are counts summed from the spans' ``counts``
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _span, _quantities in (
    ("corpus.load_corpus", ("self_s", "records")),
    ("corpus.translatability_report", ("self_s",)),
    ("linguistics.annotate_sentence", ("self_s", "calls", "errors")),
    ("linguistics.to_pattern_candidate", ("self_s",)),
    ("patterns.filter_candidates", ("self_s", "patterns_out", "rejected_out")),
    ("patterns.higher_level_inventory", ("self_s", "patterns_out")),
    ("patterns.classify_cq", ("self_s",)),
    ("queryparse.parse_query", ("self_s", "calls", "errors")),
    ("queryparse.keyword_presence", ("calls",)),
    ("queryparse.keyword_report", ("self_s",)),
    ("queryparse.serialize_query", ("self_s",)),
    ("signatures.canonicalize", ("self_s", "calls", "skipped")),
    ("signatures.group_by_signature", ("self_s", "groups_out")),
    ("correspondence.build_mapping", ("self_s",)),
    ("correspondence.mine_signals", ("self_s",)),
    ("correspondence.discover_signals", ("self_s", "ngrams_out")),
    ("reporting.Table.write", ("self_s", "files")),
    ("reporting.write_jsonl", ("self_s",)),
    ("pipeline.run_pipeline", ("self_s",)),
    ("cli.main", ("self_s",)),
):
    for _q in _quantities:
        LAYER_METRICS[f"{_span}.{_q}"] = (_span, _q)


def _resolve(owner: str):
    module_name, _, attr_path = owner.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, attr_path.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs span-recording wrappers at :data:`SITES` and removes them."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrapper(self, original, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for owner_name, attr, name, count in self.sites:
            try:
                owner = _resolve(owner_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_name}.{attr}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, count))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# ---------------------------------------------------------------------------
# Derived numbers


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = union_length(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids)
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span], queries: int) -> dict[str, float]:
    """Per-layer metrics of one round of operations.

    ``queries`` is the number of corpus queries one round covers, the base
    of ``queryparse.parse_query.calls_per_query``.
    """
    totals: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, {"self_s": 0.0, "calls": 0,
                                          "errors": 0, "skipped": 0})
        t["self_s"] += self_s
        t["calls"] += 1
        if span.error is not None:
            t["errors"] += 1
            if span.error == LIMIT_ERROR:
                t["skipped"] += 1
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    metrics = {metric: float(totals.get(span, {}).get(quantity, 0))
               for metric, (span, quantity) in LAYER_METRICS.items()}
    parses = metrics["queryparse.parse_query.calls"]
    metrics["queryparse.parse_query.calls_per_query"] = parses / queries if queries else 0.0
    return metrics


def root_cover(spans: list[Span]) -> float:
    """Seconds covered by the outermost spans."""
    return union_length((s.start, s.end) for s in spans if s.parent < 0)
