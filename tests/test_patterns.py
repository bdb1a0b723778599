from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqowl.correspondence import SignalRule, rule_matches
from cqowl.patterns import (
    CandidateRecord,
    CqFeatures,
    avg_cqs_per_pattern,
    classify_cq,
    coverage_stats,
    cq_words,
    cross_set_reuse,
    filter_candidates,
    higher_level_inventory,
    normalize_text,
)


def rec(cq_id, onto, demat, text):
    return CandidateRecord(cq_id, onto, demat, text)


# ---------------------------------------------------------------------------
# filtering


def test_two_materialized_with_same_candidate_form_one_pattern():
    patterns, rejected = filter_candidates([
        rec("a", "X", False, "What is EC1"),
        rec("b", "X", False, "What is EC1"),
    ])
    assert len(patterns) == 1
    assert patterns[0].support == ["a", "b"]
    assert rejected == []


def test_unique_materialized_is_rejected():
    patterns, rejected = filter_candidates([rec("a", "X", False, "Rare EC1")])
    assert patterns == []
    assert rejected[0].cq_id == "a"


def test_dematerialized_always_passes():
    patterns, _ = filter_candidates([rec("a", "X", True, "Rare EC1")])
    assert len(patterns) == 1


def test_sharing_across_ontologies_counts():
    patterns, rejected = filter_candidates([
        rec("a", "X", False, "What is EC1"),
        rec("b", "Y", True, "What is EC1"),
    ])
    assert len(patterns) == 1
    assert patterns[0].ontologies == {"X", "Y"}
    assert rejected == []


def test_sentence_initial_capitalization_normalized_for_comparison():
    patterns, _ = filter_candidates([
        rec("a", "X", False, "what is EC1"),
        rec("b", "X", False, "What is EC1"),
    ])
    assert len(patterns) == 1


def test_override_applied_before_filtering():
    patterns, _ = filter_candidates(
        [rec("a", "X", True, "Broken EC1")],
        overrides={"a": "Fixed EC1"},
    )
    assert patterns[0].text == "Fixed EC1"


def _brute_force_filter(records):
    by_text = {}
    for r in records:
        key = r.text[0].upper() + r.text[1:]
        by_text.setdefault(key, []).append(r)
    accepted = {}
    for text, group in by_text.items():
        keep = [r for r in group if r.dematerialized or len(group) > 1]
        if keep:
            accepted[text] = sorted(r.cq_id for r in keep)
    return accepted


def test_filter_against_brute_force_reference_on_random_corpora():
    rng = random.Random(2024)
    texts = [f"Frame {i} EC1" for i in range(12)]
    for _ in range(200):
        n = rng.randint(0, 50)
        records = [
            rec(f"q{i}", rng.choice("XYZ"), rng.random() < 0.4,
                rng.choice(texts))
            for i in range(n)
        ]
        patterns, _ = filter_candidates(records)
        got = {p.text: p.support for p in patterns}
        assert got == _brute_force_filter(records)


def test_filter_monotonicity_under_corpus_growth():
    rng = random.Random(7)
    texts = [f"Frame {i} EC1" for i in range(8)]
    for _ in range(100):
        base = [
            rec(f"q{i}", "X", rng.random() < 0.4, rng.choice(texts))
            for i in range(rng.randint(0, 30))
        ]
        extra = [
            rec(f"e{i}", "Y", rng.random() < 0.4, rng.choice(texts))
            for i in range(rng.randint(0, 20))
        ]
        before = {p.text for p in filter_candidates(base)[0]}
        after = {p.text for p in filter_candidates(base + extra)[0]}
        assert before <= after


# ---------------------------------------------------------------------------
# normalization


@pytest.mark.parametrize("source,expected", [
    ("Are there any EC1 for EC2", "Is there EC1"),
    ("What is EC1 of EC2 for EC3", "What is EC1"),
    ("What is EC1", "What is EC1"),
    ("Which are EC1 of EC2", "What is EC1"),
    ("Are there EC1 in EC2", "Is there EC1"),
    ("Is there EC1 with EC2", "Is there EC1"),
    ("Which kind of EC1 are EC2", "What kind of EC1 is EC2"),
    ("What EC1 PC1 we PC1 EC2", "What EC1 PC1 I PC1 EC2"),
    ("Which EC1 PC1 EC2", "What EC1 PC1 EC2"),
    ("What EC1 does EC2 have", "What EC1 do EC2 have"),
    ("Will EC1 PC1 EC2", "Is EC1 PC1 EC2"),
    # one rewrite pass: at the sentence start "any" is dropped after the
    # "which of" rule has passed over the position, and the initial
    # "Which" -> "What" step comes before "which kind" can see KIND
    ("Which any of EC1 are EC2", "What of EC1 is EC2"),
    ("Which of KIND of EC1 are EC2", "What KIND of EC1 is EC2"),
    ("Which any KIND of EC1 are EC2", "What KIND of EC1 is EC2"),
])
def test_normalization_rules(source, expected):
    assert normalize_text(source) == expected


def test_ordinal_recompaction_after_merge():
    # the middle chunk disappears; survivors renumber densely
    assert normalize_text("What is EC1 of EC2 and EC3") == "What is EC1 and EC2"


_TOKEN_POOL = (
    ["EC1", "EC2", "EC3", "EC4", "PC1", "PC2"]
    + "are is any did we does which of kind has have will possible there".split()
    + "what the for in with from to and or main types".split()
)


@given(st.lists(st.sampled_from(_TOKEN_POOL), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent_and_ec_monotone(tokens):
    text = " ".join(tokens)
    once = normalize_text(text)
    assert normalize_text(once) == once
    ec_before = sum(1 for t in tokens if t.startswith("EC"))
    ec_after = sum(1 for t in once.split() if t.startswith("EC"))
    assert ec_after <= ec_before


# ---------------------------------------------------------------------------
# tables


def _small_inventory():
    candidates = [
        rec("a1", "X", True, "What is EC1"),
        rec("a2", "X", False, "What is EC1 of EC2"),
        rec("a3", "Y", False, "What is EC1 of EC2"),
        rec("a4", "Y", False, "Lonely EC1"),
    ]
    patterns, _ = filter_candidates(candidates)
    return candidates, patterns, higher_level_inventory(patterns)


def test_coverage_stats_rows_and_total():
    candidates, patterns, higher = _small_inventory()
    rows = coverage_stats(candidates, patterns, higher, ["X", "Y"])
    by_name = {r.ontology: r for r in rows}
    assert by_name["X"].candidates == 2
    assert by_name["X"].patterns == 2
    assert by_name["Y"].patterns == 1
    assert by_name["Y"].coverage_pct == 50.0
    total = by_name["Total"]
    assert total.candidates == 4
    assert total.patterns == 3
    assert total.distinct_patterns == 2
    assert total.distinct_higher == 1  # both normalize to "What is EC1"


def test_coverage_stats_empty():
    rows = coverage_stats([], [], [], [])
    assert rows[-1].candidates == 0
    assert rows[-1].coverage_pct == 0.0


def test_cross_set_reuse_requires_two_sets():
    _, patterns, higher = _small_inventory()
    assert cross_set_reuse(patterns) == [("What is EC1 of EC2",
                                          frozenset({"X", "Y"}))]
    assert cross_set_reuse(higher) == [("What is EC1", frozenset({"X", "Y"}))]
    single = filter_candidates([rec("z", "X", True, "Solo EC1")])[0]
    assert cross_set_reuse(single) == []


def test_avg_cqs_per_pattern_division_guard():
    candidates, patterns, _ = _small_inventory()
    out = dict(avg_cqs_per_pattern(candidates, patterns, ["X", "Y", "Z"]))
    assert out["X"] == 1.0
    assert out["Y"] == 1.0
    assert out["Z"] == 0.0
    one = [rec("solo", "W", True, "Solo EC1")]
    pat, _ = filter_candidates(one)
    assert dict(avg_cqs_per_pattern(one, pat, ["W"]))["W"] == 1.0


# ---------------------------------------------------------------------------
# Ren-style feature classification


@pytest.mark.parametrize("text,expected", [
    ("Is EC RC or not?", CqFeatures("Binary", "Both", "None", frozenset())),
    ("How many EC do I RC to RC EC?",
     CqFeatures("Count", "Positive", "None", frozenset())),
    ("Which EC RC exactly NUM EC?",
     CqFeatures("Selection", "Positive", "Numeric", frozenset())),
    ("Are EC never EC?", CqFeatures("Binary", "Negative", "None", frozenset())),
    ("Which is the fastest EC RC EC?",
     CqFeatures("Selection", "Positive", "Superlative", frozenset())),
    ("What EC is better for EC given EC as EC?",
     CqFeatures("Selection", "Positive", "Comparative", frozenset())),
    ("What are the differences between EC of EC?",
     CqFeatures("Selection", "Positive", "Difference", frozenset())),
    ("To what extent does EC RC EC?",
     CqFeatures("Selection", "Positive", "Extent", frozenset())),
    # ";", ":" and "'" are stripped from word edges like "?" and ","
    ("Which EC is best;", CqFeatures("Selection", "Positive", "Superlative",
                                     frozenset())),
    ("Who: EC RC EC?", CqFeatures("Selection", "Positive", "None",
                                  frozenset({"Person"}))),
    ("Is EC RC 'never'?", CqFeatures("Binary", "Negative", "None", frozenset())),
    ("Which EC RC 3.5 EC?", CqFeatures("Selection", "Positive", "Numeric",
                                       frozenset())),
])
def test_classify_rows(text, expected):
    assert classify_cq(text) == expected


@pytest.mark.parametrize("opening, closing", ['""', "''", "“”", "‘’"])
def test_cq_words_strip_the_tokenizers_quote_marks(opening, closing):
    # the tagger strips these marks from word edges, so the CQ features and
    # the word signal rules must read the same words
    text = f"{opening}Which tools are {opening}never{closing} used{closing}?"
    assert cq_words(text) == ["which", "tools", "are", "never", "used"]
    assert classify_cq(text).polarity == "Negative"
    assert classify_cq(f"{opening}How many EC RC?{closing}").question_type == "Count"
    rule = SignalRule("r", "initial_word_class", ("which",), "verb", "SELECT")
    assert rule_matches(rule, text, "")


def test_classify_dinde_values():
    assert classify_cq("When was EC RC?").dinde == {"Time"}
    assert classify_cq("At what point did EC RC?").dinde == {"Time"}
    assert classify_cq("Where is EC of EC?").dinde == {"Location"}
    assert classify_cq("In which EC are EC?").dinde == {"Location"}
    assert classify_cq("Who are EC of EC?").dinde == {"Person"}
    assert classify_cq("How long has EC RC?").dinde == {"Time", "Period"}
    assert classify_cq("How do I RC EC?").dinde == {"Procedure"}
    assert classify_cq("What is EC?").dinde == frozenset()


def test_classify_superlative_blocklist():
    features = classify_cq("What information is of clinical interest regarding EC?")
    assert features.modifier == "None"
