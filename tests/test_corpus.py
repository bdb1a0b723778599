from __future__ import annotations

import json

import pytest

from cqowl.corpus import (
    CompetencyQuestion,
    Corpus,
    CorpusError,
    DuplicateError,
    OntologyId,
    load_corpus,
    load_jsonl,
    placeholder_spans,
    save_jsonl,
    translatability_report,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_jsonl_basic(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [
        json.dumps({"id": "awo_6", "ontology": "AWO",
                    "cq": "Which plants eat animals?",
                    "query": "SELECT DISTINCT ?eats WHERE { ?eats rdfs:subClassOf awo:plant }"}),
        json.dumps({"id": "swo20", "ontology": "SWO",
                    "cq": "What is the valid input for [this software]?"}),
    ])
    corpus = load_corpus(path)
    assert len(corpus.questions) == 2
    awo6 = corpus.question("awo_6")
    assert awo6.placeholders == ()
    assert not awo6.dematerialized
    swo20 = corpus.question("swo20")
    assert len(swo20.placeholders) == 1
    start, end = swo20.placeholders[0]
    assert swo20.text[start:end] == "[this software]"
    assert swo20.dematerialized


def test_empty_file_is_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    corpus = load_corpus(path)
    assert corpus.questions == []


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    record = json.dumps({"id": "x1", "ontology": "AWO", "cq": "Which plants eat animals?"})
    write_lines(path, [record, record])
    with pytest.raises(CorpusError, match="x1"):
        load_corpus(path)


def test_malformed_record_reports_line_and_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [json.dumps({"id": "x1", "ontology": "AWO"})])
    with pytest.raises(CorpusError, match=r"bad.jsonl:1.*'cq'"):
        load_corpus(path)
    write_lines(path, ["{not json"])
    with pytest.raises(CorpusError, match="invalid JSON"):
        load_corpus(path)


@pytest.mark.parametrize("field", ["id", "cq", "query"])
def test_lone_surrogate_escape_rejected(tmp_path, field):
    # JSON can spell a lone surrogate, but no UTF-8 output file can hold it
    record = {"id": "x1", "ontology": "AWO", "cq": "Which plants eat animals?",
              "query": "ASK { ?x a awo:plant }"}
    record[field] += "\ud800"
    path = tmp_path / "odd.jsonl"
    write_lines(path, [json.dumps({"id": "x0", "ontology": "AWO", "cq": "Which tools?"}),
                       json.dumps(record)])
    with pytest.raises(CorpusError, match=r"odd.jsonl:2: .*lone surrogate"):
        load_corpus(path)
    record[field] = record[field][:-1] + "😀"  # a pair is one character
    write_lines(path, [json.dumps(record)])
    assert load_corpus(path).questions[0].id.startswith("x1")


def test_unbalanced_brackets_rejected(tmp_path):
    path = tmp_path / "brackets.jsonl"
    write_lines(path, [json.dumps({"id": "x1", "ontology": "AWO",
                                   "cq": "What is [broken?"})])
    with pytest.raises(CorpusError, match="unclosed"):
        load_corpus(path)


def test_placeholder_spans_pure_function():
    text = "Is [this stuff] a pure or [a mixed] stuff?"
    assert placeholder_spans(text) == placeholder_spans(text)
    spans = placeholder_spans(text)
    assert [text[s:e] for s, e in spans] == ["[this stuff]", "[a mixed]"]
    with pytest.raises(CorpusError):
        placeholder_spans("a [b [c] d]")
    with pytest.raises(CorpusError):
        placeholder_spans("a ] b")


def test_jsonl_roundtrip(corpus, tmp_path):
    out = tmp_path / "again.jsonl"
    save_jsonl(corpus, out)
    again = load_jsonl(out)
    assert again.questions == corpus.questions
    assert again.ontologies == corpus.ontologies


def test_dataset_dir_importer(tmp_path):
    root = tmp_path / "dataset"
    onto = root / "awo"
    (onto / "questions").mkdir(parents=True)
    (onto / "queries").mkdir()
    (onto / "manifest.json").write_text(json.dumps({
        "ontology": "AWO",
        "prefixes": {"awo": "http://example.org/awo#"},
    }), encoding="utf-8")
    (onto / "questions" / "awo_1.txt").write_text("Which plants eat animals?\n")
    (onto / "queries" / "awo_1.rq").write_text(
        "SELECT ?x WHERE { ?x rdfs:subClassOf awo:plant }")
    (onto / "questions" / "awo_2.txt").write_text("Is [this animal] a herbivore?\n")

    corpus = load_corpus(root)
    assert [q.id for q in corpus.questions] == ["awo_1", "awo_2"]
    assert corpus.question("awo_1").query_text is not None
    assert corpus.question("awo_2").query_text is None
    assert corpus.ontology("AWO").prefixes()["awo"] == "http://example.org/awo#"


def test_dataset_dir_missing_manifest(tmp_path):
    root = tmp_path / "dataset"
    (root / "broken" / "questions").mkdir(parents=True)
    with pytest.raises(CorpusError, match="manifest.json"):
        load_corpus(root)


def test_dataset_dir_manifest_with_lone_surrogate_rejected(tmp_path):
    onto = tmp_path / "dataset" / "awo"
    (onto / "questions").mkdir(parents=True)
    (onto / "questions" / "q1.txt").write_text("Which plants eat animals?", encoding="utf-8")
    (onto / "manifest.json").write_text(json.dumps({"ontology": "AW\ud800O"}), encoding="utf-8")
    with pytest.raises(CorpusError, match=r"awo/manifest.json: .*lone surrogate"):
        load_corpus(tmp_path / "dataset")


def test_unknown_ontology_reference_rejected():
    with pytest.raises(CorpusError, match="unknown ontology"):
        Corpus([OntologyId("AWO")], [
            CompetencyQuestion("q1", "SWO", "What is this?", ()),
        ])


def test_unparseable_query_retained_and_flagged(tmp_path):
    path = tmp_path / "broken_query.jsonl"
    write_lines(path, [
        json.dumps({"id": "x1", "ontology": "AWO",
                    "cq": "Which plants eat animals?",
                    "query": "SELECT WHERE oops"}),
        json.dumps({"id": "x2", "ontology": "AWO",
                    "cq": "Which animals eat plants?",
                    "query": "ASK WHERE { }"}),
    ])
    corpus = load_corpus(path)
    assert len(corpus.questions) == 2  # the broken one is retained
    asts, errors = corpus.parse_queries()
    assert set(asts) == {"x2"}
    assert errors[0][0] == "x1"
    rows, reported = translatability_report(corpus)
    assert rows[0].cq_count == 2
    assert rows[0].translated_count == 1
    assert reported[0][0] == "x1"


def test_translatability_ordering_and_totals(tmp_path):
    path = tmp_path / "two.jsonl"
    write_lines(path, [
        json.dumps({"id": "a1", "ontology": "A", "cq": "Which plants eat animals?",
                    "query": "ASK WHERE { }"}),
        json.dumps({"id": "b1", "ontology": "B", "cq": "Which animals eat plants?"}),
        json.dumps({"id": "b2", "ontology": "B", "cq": "Which plants eat animals too?"}),
    ])
    rows, _ = translatability_report(load_corpus(path))
    assert [(r.ontology, r.cq_count, r.translated_count) for r in rows] == [
        ("B", 2, 0), ("A", 1, 1), ("Total", 3, 1),
    ]


def test_single_untranslated_cq():
    corpus = Corpus([OntologyId("A")], [
        CompetencyQuestion("q1", "A", "Which plants eat animals?", ()),
    ])
    rows, _ = translatability_report(corpus)
    assert (rows[0].cq_count, rows[0].translated_count) == (1, 0)


def test_duplicate_id_names_both_lines(tmp_path):
    path = tmp_path / "dup.jsonl"
    first = json.dumps({"id": "a", "ontology": "AWO", "cq": "Which plants eat animals?"})
    other = json.dumps({"id": "b", "ontology": "AWO", "cq": "Which animals eat plants?"})
    write_lines(path, [first, "", other, first])
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}:4: duplicate CQ id 'a' (first at {path}:1)"


def _ontology_dir(root, dirname, ontology, question_ids):
    (root / dirname / "questions").mkdir(parents=True)
    (root / dirname / "manifest.json").write_text(
        json.dumps({"ontology": ontology}), encoding="utf-8")
    for cq_id in question_ids:
        (root / dirname / "questions" / f"{cq_id}.txt").write_text(
            "Which plants eat animals?\n", encoding="utf-8")


def test_dataset_dir_duplicates_name_both_files(tmp_path):
    root = tmp_path / "twice"
    _ontology_dir(root, "a", "SWO", ["q1"])
    _ontology_dir(root, "b", "SWO", ["q2"])
    with pytest.raises(CorpusError) as exc:
        load_corpus(root)
    assert str(exc.value) == (f"{root / 'b' / 'manifest.json'}: duplicate ontology "
                              f"'SWO' (first at {root / 'a' / 'manifest.json'})")

    root = tmp_path / "shared-id"
    _ontology_dir(root, "a", "AWO", ["q0", "q1"])
    _ontology_dir(root, "b", "SWO", ["q1"])
    first, second = (root / d / "questions" / "q1.txt" for d in ("a", "b"))
    with pytest.raises(CorpusError) as exc:
        load_corpus(root)
    assert str(exc.value) == f"{second}: duplicate CQ id 'q1' (first at {first})"


def test_corpus_reports_positions_of_a_repeated_name():
    q = CompetencyQuestion("x1", "AWO", "Which plants eat animals?", ())
    other = CompetencyQuestion("x2", "AWO", "Which animals eat plants?", ())
    with pytest.raises(DuplicateError) as exc:
        Corpus([OntologyId("AWO")], [q, other, q])
    assert (str(exc.value), exc.value.field, exc.value.first, exc.value.second) \
        == ("duplicate CQ id 'x1'", "questions", 0, 2)
