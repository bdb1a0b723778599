from __future__ import annotations

import json
from collections import Counter

import pytest

import cqowl.correspondence
from cqowl.correspondence import (
    BUILTIN_RULES,
    SignalRule,
    _exemplar_skeleton,
    build_mapping,
    discover_signals,
    load_rules,
    mine_signals,
    phrase_matches,
    rule_matches,
)
from cqowl.patterns import Pattern
from cqowl.pipeline import signals_for
from cqowl.queryparse import parse_query
from cqowl.signatures import canonicalize

PREFIXES = {"ex": "http://example.org/ns#"}


def _ast(text):
    return parse_query(text, PREFIXES)


def _skeleton(text):
    return canonicalize(_ast(text)).skeleton


# ---------------------------------------------------------------------------
# mapping


def test_single_cq_yields_single_edge():
    patterns = [Pattern("What is EC1", "pattern", ["q1"], {"X"})]
    edges, summary = build_mapping(patterns, {"q1": "SKEL-A"})
    assert len(edges) == 1
    assert edges[0].witness_cq_ids == ("q1",)
    assert summary.edges == 1
    assert summary.patterns_with_multiple_signatures == 0


def test_many_to_many_mapping():
    patterns = [
        Pattern("What EC1 to EC2 are there", "pattern", ["q1"], {"X"}),
        Pattern("What are EC1 to EC2", "pattern", ["q2"], {"X"}),
        Pattern("Forked EC1", "pattern", ["q3", "q4"], {"X"}),
    ]
    skeletons = {"q1": "S1", "q2": "S1", "q3": "S2", "q4": "S3"}
    edges, summary = build_mapping(patterns, skeletons)
    assert summary.signatures_with_multiple_patterns == 1  # S1
    assert summary.patterns_with_multiple_signatures == 1  # Forked EC1
    assert dict(summary.pattern_degree_histogram) == {1: 2, 2: 1}


def test_witnesses_need_both_sides():
    patterns = [Pattern("What is EC1", "pattern", ["q1", "q2"], {"X"})]
    edges, _ = build_mapping(patterns, {"q1": "S1"})  # q2 has no query
    assert edges[0].witness_cq_ids == ("q1",)


# ---------------------------------------------------------------------------
# signal rules


def test_phrase_wildcards_and_alternation():
    assert phrase_matches(("What", "types", "of", "EC", "is/are"),
                          "What types of EC1 are available for EC2")
    assert phrase_matches(("exactly", "NUM", "EC"),
                          "Which EC1 have as EC2 exactly NUM EC3")
    assert not phrase_matches(("What", "types", "of", "EC", "is/are"),
                              "What types of EC1 PC1")
    assert phrase_matches(("Which/what", "kind", "of"),
                          "Which kind of EC1 are EC2")


def test_initial_word_and_contains_word_matchers():
    rule = SignalRule("r", "initial_word_class", ("Which", "What"), "verb", "SELECT")
    assert rule_matches(rule, "Which plants eat animals?", "")
    assert not rule_matches(rule, "Does a lion eat plants?", "")
    word = SignalRule("w", "contains_word", ("or",), "keyword", "owl:unionOf")
    assert rule_matches(word, "Does a lion eat plants or plant parts?", "")
    assert not rule_matches(word, "What is the visualisation for this?", "")


def test_mine_signals_counts_and_flags():
    ask = _ast("ASK WHERE { $x rdfs:subClassOf ex:C }")
    select = _ast("SELECT ?x WHERE { ?x rdfs:subClassOf ex:C }")
    union = _ast(
        "SELECT ?x WHERE { ?x rdfs:subClassOf [ owl:unionOf ( ex:A ex:B ) ] }")
    rows = mine_signals(
        [
            SignalRule("binary-ask", "initial_word_class",
                       ("Is", "Are", "Can", "Does"), "verb", "ASK"),
            SignalRule("or-union", "contains_word", ("or",), "keyword",
                       "owl:unionOf"),
        ],
        [
            ("q1", "Is [this] a thing?", "Is EC1 EC2", ask, "S1"),
            ("q2", "Is [this] red or blue?", "Is EC1 EC2 or EC3", select, "S2"),
            ("q3", "Does [it] eat plants or parts?", "PC1 EC1 PC1 EC2 or EC3",
             union, "S3"),
            ("q4", "Which things are there?", "Which EC1 are there", select, "S2"),
        ],
    )
    by_id = {r.rule_id: r for r in rows}
    assert (by_id["binary-ask"].numerator, by_id["binary-ask"].denominator) == (1, 3)
    assert (by_id["or-union"].numerator, by_id["or-union"].denominator) == (1, 2)
    assert by_id["binary-ask"].non_evidential  # subgroup of one
    assert "1/3" in by_id["binary-ask"].fraction


def test_skeleton_target_uses_canonical_form():
    rule = SignalRule(
        "subclass", "contains_phrase", ("What", "are", "the", "types", "of"),
        "skeleton",
        "SELECT DISTINCT * WHERE { ?x rdfs:subClassOf :URI . "
        "FILTER(?x != :URI && ?x != owl:Nothing) }",
    )
    matching = _skeleton(
        "SELECT DISTINCT * WHERE { ?v rdfs:subClassOf ex:Thing . "
        "FILTER(?v != ex:Thing && ?v != owl:Nothing) }")
    deviating = _skeleton("ASK WHERE { }")
    ast = _ast("SELECT DISTINCT * WHERE { ?v rdfs:subClassOf ex:Thing . "
               "FILTER(?v != ex:Thing && ?v != owl:Nothing) }")
    rows = mine_signals([rule], [
        ("q1", "What are the types of data?", "What are the types of EC1",
         ast, matching),
        ("q2", "What are the types of events?", "What are the types of EC1",
         ast, deviating),
    ])
    assert (rows[0].numerator, rows[0].denominator) == (1, 2)


def test_builtin_rules_cover_both_published_tables():
    ids = {r.id for r in BUILTIN_RULES}
    assert ids == {
        "wh-select", "binary-ask", "or-union", "and-intersection",
        "exactly-cardinality", "possible-types", "types-of", "what-types-is",
        "kind-of-is", "main-types",
    }


def test_rules_loadable_from_json(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{
        "id": "custom", "matcher_kind": "contains_word",
        "matcher_value": ["never"], "target_kind": "verb",
        "target_value": "ASK",
    }]), encoding="utf-8")
    rules = load_rules(path)
    assert rules[0].id == "custom"
    with pytest.raises(FileNotFoundError):
        load_rules(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"id": "incomplete"}]), encoding="utf-8")
    with pytest.raises(ValueError, match="malformed"):
        load_rules(bad)


# ---------------------------------------------------------------------------
# discovery


def _translated_fixture():
    ask = _ast("ASK WHERE { $x rdfs:subClassOf ex:C }")
    rows = []
    for i in range(3):
        rows.append((f"m{i}", f"What are the main types of thing{i}?",
                     "What are the main types of EC1", ask, "SKEL-MAIN"))
    rows.append(("d1", "What are the main types of data a report may refer to?",
                 "What are the main types of EC1 EC2 PC1", ask, "SKEL-OTHER"))
    rows.append(("x1", "Which plants eat animals?", "Which EC1 PC1 EC2", ask,
                 "SKEL-X"))
    return rows


def test_discovery_surfaces_shared_phrase():
    results = discover_signals(_translated_fixture(), min_support=2)
    best = {r.ngram: (r.group_size, r.subgroup_size) for r in results}
    key = ("What", "are", "the", "main", "types", "of")
    assert key in best
    assert best[key] == (4, 3)


def test_discovery_excludes_stopword_only_ngrams():
    results = discover_signals(_translated_fixture(), min_support=2)
    assert ("the",) not in {r.ngram for r in results}
    assert ("of", "the") not in {r.ngram for r in results}


def test_discovery_skips_rows_without_a_skeleton():
    rows = _translated_fixture()
    untranslated = [(f"n{i}", f"What are the main types of item{i}?",
                     "What are the main types of EC1", rows[0][3], None) for i in range(3)]
    assert discover_signals(rows + untranslated) == discover_signals(rows)


def test_discovery_deterministic_and_min_support():
    rows = _translated_fixture()
    first = discover_signals(rows, min_support=2)
    second = discover_signals(rows, min_support=2)
    assert first == second
    for r in discover_signals(rows, min_support=4):
        assert r.subgroup_size >= 4
    with pytest.raises(ValueError):
        discover_signals(rows, min_support=1)


# ---------------------------------------------------------------------------
# rule checks and exemplar parsing


@pytest.mark.parametrize("fields, message", [
    (("r", "initial", ("or",), "verb", "ASK"), "unknown matcher_kind 'initial'"),
    (("r", "contains_word", ("or",), "shape", "ASK"), "unknown target_kind 'shape'"),
    (("r", "contains_word", (), "verb", "ASK"), "nonempty tuple of strings"),
    (("r", "contains_word", "or", "verb", "ASK"), "nonempty tuple of strings"),
    (("r", "contains_word", ("or", 5), "verb", "ASK"), "nonempty tuple of strings"),
    ((7, "contains_word", ("or",), "verb", "ASK"), "id and target_value must be strings"),
    (("r", "contains_word", ("or",), "verb", None), "id and target_value must be strings"),
])
def test_signal_rule_checks_its_fields(fields, message):
    with pytest.raises(ValueError) as exc:
        SignalRule(*fields)
    assert message in str(exc.value)


_GOOD_RULE = {"id": "r", "matcher_kind": "contains_word", "matcher_value": ["or"],
              "target_kind": "verb", "target_value": "ASK"}


@pytest.mark.parametrize("rule, message", [
    ("r", "expected an object whose matcher_value is a list"),
    ({**_GOOD_RULE, "matcher_value": "or"},
     "expected an object whose matcher_value is a list"),
    ({k: v for k, v in _GOOD_RULE.items() if k != "target_kind"}, "'target_kind'"),
    ({**_GOOD_RULE, "matcher_kind": "initial"}, "unknown matcher_kind 'initial'"),
    ({**_GOOD_RULE, "matcher_value": []}, "nonempty tuple of strings"),
    ({**_GOOD_RULE, "target_kind": "skeleton", "target_value": "ASK { ?x a"},
     "expected a term, found 'end of input'"),
], ids=["not-object", "string-matcher", "missing-field", "unknown-kind",
        "empty-matcher", "bad-exemplar"])
def test_load_rules_names_the_file_and_rule(tmp_path, rule, message):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([_GOOD_RULE, rule]), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_rules(path)
    assert str(exc.value).startswith(f"{path}: rule #1 malformed: ")
    assert message in str(exc.value)


def test_each_distinct_exemplar_is_parsed_once(bundle, monkeypatch, tmp_path):
    parsed = Counter()
    original = cqowl.correspondence.parse_query

    def counting(text, prefixes=None):
        parsed[text] += 1
        return original(text, prefixes)

    monkeypatch.setattr(cqowl.correspondence, "parse_query", counting)
    exemplars = Counter(r.target_value for r in BUILTIN_RULES
                        if r.target_kind == "skeleton")
    assert (len(exemplars), sum(exemplars.values())) == (4, 5)
    once = Counter(set(exemplars))

    _exemplar_skeleton.cache_clear()
    default = signals_for(bundle)
    assert parsed == once

    # a rule file: loading checks each exemplar, and mining reuses the result
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([
        {"id": r.id, "matcher_kind": r.matcher_kind,
         "matcher_value": list(r.matcher_value), "target_kind": r.target_kind,
         "target_value": r.target_value} for r in BUILTIN_RULES]), encoding="utf-8")
    _exemplar_skeleton.cache_clear()
    parsed.clear()
    assert signals_for(bundle, load_rules(path)) == default
    assert parsed == once
