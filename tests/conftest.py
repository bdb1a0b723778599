from __future__ import annotations

from pathlib import Path

import pytest

from cqowl.corpus import load_corpus
from cqowl.pipeline import AnalysisBundle

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_PATH = REPO_ROOT / "data" / "cq_sparql_owl.jsonl"


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(CORPUS_PATH, format="jsonl")


@pytest.fixture(scope="session")
def bundle(corpus):
    return AnalysisBundle(corpus)
