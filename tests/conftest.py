from __future__ import annotations

import json
from pathlib import Path

import pytest

from cqowl.corpus import load_corpus
from cqowl.pipeline import AnalysisBundle

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_PATH = REPO_ROOT / "data" / "cq_sparql_owl.jsonl"


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(CORPUS_PATH)


@pytest.fixture(scope="session")
def bundle(corpus):
    return AnalysisBundle(corpus)


def _replicas(path, copies: int, broken: int = -1):
    """The bundled corpus ``copies`` times over, each copy's ids suffixed;
    every query of copy ``broken`` fails to parse."""
    lines = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
    with path.open("w", encoding="utf-8") as out:
        for copy in range(copies):
            for line in lines:
                record = json.loads(line)
                record["id"] += f"_r{copy}"
                if copy == broken and "query" in record:
                    record["query"] += " {"
                out.write(json.dumps(record) + "\n")
    return path
