"""Work per CQ does not grow with the corpus.

An in-process ``report --paper-calibration`` runs on the bundled corpus once
and four times over (ids suffixed per copy), after one warm-up run that
does the first-run imports and fills the caches.  ``sys.setprofile`` counts
the calls of every Python function of the package.  No function may be
called more than four times as often on four copies as on one, so a stage
that does pairwise work (a quadratic ``filter_candidates``, say) shows up
in its calls.  Only calls of Python functions are counted: work done in C,
such as a ``list.index`` or a ``sort`` over all records, is not.
"""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import cqowl
from cqowl.cli import main
from cqowl.linguistics import annotate_sentence
from cqowl.queryparse import parse_query
from cqowl.records import Record
from cqowl.signatures import canonicalize
from tests.conftest import CORPUS_PATH, _replicas

PACKAGE = str(Path(cqowl.__file__).parent)
RECORD_INIT = Record.__init__.__code__


def _report_calls(corpus, out, *options,
                  records: Counter | None = None) -> tuple[Counter, int]:
    """Calls per code object of the package in one ``report``, and the
    number of signature groups it wrote; ``records``, if given, counts the
    records built, by class name."""
    calls: Counter = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls[frame.f_code] += 1
            if records is not None and frame.f_code is RECORD_INIT:
                records[type(frame.f_locals["self"]).__name__] += 1

    sys.setprofile(count)
    try:
        status = main(["report", "--corpus", str(corpus), "--out", str(out),
                       "--paper-calibration", *options])
    finally:
        sys.setprofile(None)
    assert status == 0
    with (out / "signature_inventory.jsonl").open(encoding="utf-8") as groups:
        return calls, sum(1 for _ in groups)


def test_report_calls_grow_at_most_linearly(tmp_path):
    one = _replicas(tmp_path / "x1.jsonl", 1)
    four = _replicas(tmp_path / "x4.jsonl", 4)
    main(["report", "--corpus", str(one), "--out", str(tmp_path / "warm"),
          "--paper-calibration"])
    calls1, groups1 = _report_calls(one, tmp_path / "out1")
    calls4, groups4 = _report_calls(four, tmp_path / "out4")
    grown = {f"{code.co_name} ({Path(code.co_filename).name}:{code.co_firstlineno})":
             (calls1[code], n) for code, n in calls4.items() if n > 4 * calls1[code]}
    assert not grown, grown
    for function in (annotate_sentence, parse_query, canonicalize):
        code = function.__code__
        assert calls1[code] > 0 and calls4[code] == 4 * calls1[code], function
    assert groups1 == groups4 == 53


def test_report_builds_each_record_once(tmp_path):
    # one candidate per CQ, not a copy after overrides; one pattern per
    # merged higher-level text, not a throwaway per pattern; path steps
    # are their terms, not wrapped
    records: Counter = Counter()
    _report_calls(CORPUS_PATH, tmp_path / "out", "--emit", "csv,md", records=records)
    assert records["CandidateRecord"] == 234
    assert records["Pattern"] == 107 + 81
    assert sum(records.values()) <= 6950, records.most_common()
