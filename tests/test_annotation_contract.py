"""The built-in tagger and ``--conllu-dir`` annotations meet at one contract.

A CoNLL-U sentence matches its CQ when the two spell the same text once
whitespace and quote marks, the characters the tokenizer discards, are
removed.  So the built-in annotations of the bundled corpus, written out
as CoNLL-U, reproduce every ``report`` table; and ``validate
--conllu-dir`` runs the annotation stage, failing where ``report`` fails
with the same message.
"""
from __future__ import annotations

import json

import pytest

from cqowl.linguistics import builtin_annotate, tokenize
from tests.conftest import CORPUS_PATH
from tests.test_cli import WHICH_PLANTS, conllu, run, write_corpus
from tests.test_gc_policy import GOLDEN_PATH, _digests


def _as_conllu(tokens) -> str:
    """One sentence; HEAD is 1-based and 0 at the root."""
    return "".join(
        f"{t.index + 1}\t{t.surface}\t_\t{t.pos}\t_\t_\t"
        f"{0 if t.head == t.index else t.head + 1}\t{t.deprel}\t_\t_\n"
        for t in tokens) + "\n"


@pytest.fixture(scope="module")
def exported(tmp_path_factory, corpus):
    """The built-in annotation of every bundled CQ as ``<cq id>.conllu``."""
    conllu_dir = tmp_path_factory.mktemp("conllu")
    for q in corpus.questions:
        (conllu_dir / f"{q.id}.conllu").write_text(
            _as_conllu(builtin_annotate(q.text)), encoding="utf-8")
    return conllu_dir


def test_exported_builtin_annotations_reproduce_golden(tmp_path, exported):
    # swo4 quotes a word ("algorithms"), which the tokenizer drops
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["files"]
    assert run("report", "--corpus", CORPUS_PATH, "--conllu-dir", exported,
               "--paper-calibration", "--emit", "csv,md", "--out", tmp_path) == 0
    assert _digests(tmp_path) == golden


def test_validate_accepts_the_exported_annotations(exported, capsys):
    assert run("validate", "--corpus", CORPUS_PATH, "--conllu-dir", exported) == 0
    assert capsys.readouterr().err.startswith("corpus OK: 234 CQs")


@pytest.mark.parametrize("text, message", [
    (conllu([("Which", "PRON", 2), ("plants", "NOUN", 0)]),
     "no sentence matches the CQ text 'Which plants eat animals?'"),
    (conllu(WHICH_PLANTS[:3] + [("animals", "NOUN", 9), WHICH_PLANTS[4]]),
     "line 4: HEAD 9 out of range"),
    (None, "No such file or directory"),
], ids=["no-match", "head-out-of-range", "missing"])
def test_validate_fails_where_chunk_and_report_fail(tmp_path, capsys, text,
                                                    message):
    corpus = write_corpus(tmp_path / "c.jsonl", [("q1", "ASK { ?x a ?y }")])
    conllu_dir = tmp_path / "conllu"
    conllu_dir.mkdir()
    path = conllu_dir / "q1.conllu"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    errors = {}
    for command in ("chunk", "report", "validate"):
        assert run(command, "--corpus", corpus, "--conllu-dir", conllu_dir,
                   "--out", tmp_path / "out") == 1
        errors[command] = capsys.readouterr().err
    assert errors["validate"] == errors["chunk"] == errors["report"]
    assert errors["chunk"].startswith(f"error: {path}: ")
    assert message in errors["chunk"]
    assert not (tmp_path / "out").exists()


def test_conllu_match_ignores_quote_marks_and_spacing(tmp_path):
    path = tmp_path / "q.conllu"
    path.write_text(conllu(WHICH_PLANTS), encoding="utf-8")
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({
        "id": "q", "ontology": "AWO",
        "cq": "Which “plants’  eat 'animals' ?"}) + "\n",
        encoding="utf-8")
    assert run("chunk", "--corpus", corpus, "--conllu-dir", tmp_path,
               "--out", tmp_path / "out") == 0


@pytest.mark.parametrize("word", ["”plants“", "’plants‘", "“plants”",
                                  "'\"plants\"'"])
def test_every_quote_mark_is_stripped_at_both_edges(word):
    assert [t.surface for t in tokenize(f"Which {word} grow?")] == [
        "Which", "plants", "grow", "?"]
