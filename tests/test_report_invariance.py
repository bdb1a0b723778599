"""``report`` tables do not depend on variable names or on record order.

Renaming every variable of every query leaves every table byte-identical
except ``parsed_queries.jsonl``, which serializes each query as written.
Shuffling the records leaves each table's rows the same as a multiset; the
row order, and the order of the per-ontology columns of ``keywords``,
follow first appearance in the corpus.  Nor do they depend on the seed
of Python's string hashing: a ``cqowl report`` process matches golden
under two values of ``PYTHONHASHSEED``.
"""
from __future__ import annotations

import csv
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from cqowl.cli import main
from cqowl.queryparse import _tokenize
from tests.conftest import CORPUS_PATH, REPO_ROOT
from tests.test_gc_policy import ENTRY, GOLDEN_PATH, _digests


def _report(corpus_path, out) -> dict[str, str]:
    assert main(["report", "--corpus", str(corpus_path), "--out", str(out),
                 "--paper-calibration", "--emit", "csv"]) == 0
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())
            if p.name != "run_manifest.json"}


def _write_records(path, records) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")


def _rename_variables(query: str, rng: random.Random) -> str:
    """``query`` with each variable name replaced by a fresh one, in a
    random one-to-one mapping; markers and everything else stay."""
    variables = [(offset, text) for kind, text, offset in _tokenize(query)
                 if kind == "VAR"]
    names = sorted({text[1:] for _, text in variables})
    fresh = [f"r{i}n" for i in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    for offset, text in reversed(variables):
        query = (query[:offset] + text[0] + mapping[text[1:]]
                 + query[offset + len(text):])
    return query


def _rows(name: str, text: str) -> Counter:
    """The rows of a table as a multiset; a CSV row is keyed by its header."""
    if name.endswith(".jsonl"):
        return Counter(text.splitlines())
    header, *rows = csv.reader(text.splitlines())
    return Counter(tuple(sorted(zip(header, row))) for row in rows)


def test_renaming_every_variable_changes_only_the_serialized_queries(tmp_path):
    records = [json.loads(line) for line in
               CORPUS_PATH.read_text(encoding="utf-8").splitlines() if line.strip()]
    rng = random.Random(7)
    renamed = [{**r, "query": _rename_variables(r["query"], rng)} if "query" in r else r
               for r in records]
    assert sum(a != b for a, b in zip(records, renamed)) > 100
    path = tmp_path / "renamed.jsonl"
    _write_records(path, renamed)
    base = _report(CORPUS_PATH, tmp_path / "base")
    other = _report(path, tmp_path / "renamed")
    assert set(other) == set(base)
    differing = sorted(name for name in base if base[name] != other[name])
    assert differing == ["parsed_queries.jsonl"]


def test_shuffling_records_keeps_every_tables_rows(tmp_path):
    records = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
    random.Random(3).shuffle(records)
    path = tmp_path / "shuffled.jsonl"
    path.write_text("\n".join(records) + "\n", encoding="utf-8")
    base = _report(CORPUS_PATH, tmp_path / "base")
    other = _report(path, tmp_path / "shuffled")
    assert set(other) == set(base)
    assert sum(base[name] != other[name] for name in base) >= 5
    for name in base:
        assert _rows(name, other[name]) == _rows(name, base[name]), name
    first_seen = list(dict.fromkeys(json.loads(r)["ontology"] for r in records))
    assert other["keywords.csv"].split("\n", 1)[0] == ",".join(
        ["keyword", "total", *first_seen])


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_report_process_matches_golden_under_each_hash_seed(tmp_path, seed):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["files"]
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, "report", "--corpus", str(CORPUS_PATH),
         "--paper-calibration", "--emit", "csv,md", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _digests(tmp_path) == golden
