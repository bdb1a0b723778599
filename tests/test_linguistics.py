from __future__ import annotations

import itertools

import pytest

from cqowl import linguistics
from cqowl.linguistics import (
    AnnotationError,
    annotate,
    annotate_sentence,
    builtin_annotate,
    identify_chunks,
    read_conllu,
    to_pattern_candidate,
    tokenize,
)


def candidate(text: str) -> str:
    return to_pattern_candidate(annotate_sentence("t", text))


def test_tokenizer_placeholders_and_punctuation():
    tokens = tokenize("What is the valid input for [this software]?")
    surfaces = [t.surface for t in tokens]
    assert surfaces == ["What", "is", "the", "valid", "input", "for",
                        "[this software]", "?"]
    assert tokens[-2].is_placeholder


def test_tokenizer_contraction_and_extension():
    assert [t.surface for t in tokenize("Where's the file?")] == \
        ["Where", "'s", "the", "file", "?"]
    assert [t.surface for t in tokenize("a .cel file")] == ["a", ".cel", "file"]


def test_tokenizer_rejects_nested_or_unbalanced_brackets():
    with pytest.raises(AnnotationError):
        tokenize("What is [a [nested] thing]?")
    with pytest.raises(AnnotationError):
        tokenize("What is [unclosed?")


def test_tagger_lexicons_are_pairwise_disjoint():
    # each word has one lexicon tag, whatever order the table lists them in
    lexicons = {name: getattr(linguistics, name) for name in (
        "WH_PRON", "WH_ADV", "AUX_VERBS", "DETERMINERS", "PRONOUNS",
        "ADPOSITIONS", "CCONJ", "SCONJ", "ADVERBS", "NUMBER_WORDS",
        "ADJECTIVES", "NOUN_EXCEPTIONS", "CONTENT_VERBS")}
    lexicons["to"] = {"to"}
    for (a, words_a), (b, words_b) in itertools.combinations(lexicons.items(), 2):
        assert not words_a & words_b, (a, b, words_a & words_b)


def test_annotate_empty_is_an_error():
    with pytest.raises(AnnotationError):
        annotate("")
    with pytest.raises(AnnotationError):
        annotate("   ")


def test_basic_tagging_and_root():
    tokens = builtin_annotate("Which plants eat animals?")
    assert [(t.surface, t.pos) for t in tokens] == [
        ("Which", "PRON"), ("plants", "NOUN"), ("eat", "VERB"),
        ("animals", "NOUN"), ("?", "PUNCT"),
    ]
    root = [t for t in tokens if t.head == t.index]
    assert len(root) == 1 and root[0].surface == "eat"


@pytest.mark.parametrize("text, expected", [
    ("In which country?", "In which EC1"),
    ("For which purpose?", "For which EC1"),
    ("Of what?", "Of what"),
    ("In which country do lions live?", "In which EC1 PC1 EC2 PC1"),
])
def test_verbless_cq_starting_with_an_adposition_has_one_root(text, expected):
    # with no verb the root falls back to token 0, which may be the ADP
    # itself; it must stay the root rather than attach to the next noun
    roots = [t for t in builtin_annotate(text) if t.head == t.index]
    assert len(roots) == 1
    assert candidate(text) == expected


def test_aux_dependency_link():
    tokens = builtin_annotate("Does a lion eat plants or plant parts?")
    does = tokens[0]
    eat = next(t for t in tokens if t.surface == "eat")
    assert does.pos == "AUX"
    assert does.deprel == "aux"
    assert does.head == eat.index


def test_copula_stays_literal_without_content_verb():
    tokens = builtin_annotate("Is [this animal] a herbivore?")
    assert tokens[0].pos == "VERB"  # bare copula, never a predicate chunk


def test_discontinuous_pc_shares_ordinal():
    sentence = annotate_sentence("t", "Does a lion eat plants or plant parts?")
    pcs = [c for c in sentence.chunks if c.kind == "PC"]
    assert len(pcs) == 1
    assert len(pcs[0].spans) == 2
    assert pcs[0].surface_text == "Does eat"


def test_trailing_adposition_joins_pc():
    sentence = annotate_sentence(
        "t",
        "What data are measured for neuromuscular impairment in speech production mechanism?",
    )
    pc = next(c for c in sentence.chunks if c.kind == "PC")
    assert pc.surface_text == "are measured for"


def test_chunk_spans_are_disjoint_and_ordinals_dense():
    sentence = annotate_sentence(
        "t", "Which visualisation software is there for [this data] and what will it cost?"
    )
    seen = set()
    for chunk in sentence.chunks:
        for start, end in chunk.spans:
            for i in range(start, end):
                assert i not in seen
                seen.add(i)
    for kind in ("EC", "PC"):
        ordinals = sorted(c.ordinal for c in sentence.chunks if c.kind == kind)
        assert ordinals == list(range(1, len(ordinals) + 1))


WORKED_EXAMPLES = [
    ("Which plants eat animals?", "Which EC1 PC1 EC2"),
    ("Does a lion eat plants or plant parts?", "PC1 EC1 PC1 EC2 or EC3"),
    ("What data are measured for neuromuscular impairment in speech production mechanism?",
     "What EC1 PC1 EC2 in EC3"),
    ("[X]?", "EC1"),
    ("What is the valid input for [this software]?", "What is EC1 for EC2"),
    ("Which stuffs have as part exactly two substuffs?",
     "Which EC1 have as EC2 exactly NUM EC3"),
    ("Which 3 plants eat animals?", "Which NUM EC1 PC1 EC2"),
]


@pytest.mark.parametrize("text,expected", WORKED_EXAMPLES)
def test_pattern_candidates(text, expected):
    assert candidate(text) == expected


def test_candidate_reconstruction_property():
    # chunk surfaces plus literal tokens reproduce the token sequence
    sentence = annotate_sentence("t", "Which plants eat animals?")
    covered = {}
    for chunk in sentence.chunks:
        for s, e in chunk.spans:
            for i in range(s, e):
                covered[i] = chunk
    rebuilt = []
    for token in sentence.tokens:
        rebuilt.append(token.surface)
    assert " ".join(rebuilt) == "Which plants eat animals ?"


def test_materialization_coherence():
    # filling the placeholder with a single noun keeps the candidate stable
    demat = candidate("Is [this animal] a herbivore?")
    mat = candidate("Is impala a herbivore?")
    assert demat == mat == "Is EC1 EC2"


CONLLU = """# text = Which plants eat animals?
1\tWhich\twhich\tPRON\tWDT\t_\t2\tdet\t_\t_
2\tplants\tplant\tNOUN\tNNS\t_\t3\tnsubj\t_\t_
3\teat\teat\tVERB\tVBP\t_\t0\troot\t_\t_
4\tanimals\tanimal\tNOUN\tNNS\t_\t3\tobj\t_\t_
5\t?\t?\tPUNCT\t.\t_\t3\tpunct\t_\t_

# text = Does a lion eat plants?
1\tDoes\tdo\tAUX\tVBZ\t_\t4\taux\t_\t_
2\ta\ta\tDET\tDT\t_\t3\tdet\t_\t_
3\tlion\tlion\tNOUN\tNN\t_\t4\tnsubj\t_\t_
4\teat\teat\tVERB\tVB\t_\t0\troot\t_\t_
5\tplants\tplant\tNOUN\tNNS\t_\t4\tobj\t_\t_
6\t?\t?\tPUNCT\t.\t_\t4\tpunct\t_\t_
"""


def test_conllu_reader_and_matching(tmp_path):
    path = tmp_path / "sample.conllu"
    path.write_text(CONLLU, encoding="utf-8")
    sentences = read_conllu(path)
    assert len(sentences) == 2
    tokens = annotate("Which plants eat animals?", path)
    assert [t.pos for t in tokens] == ["PRON", "NOUN", "VERB", "NOUN", "PUNCT"]
    chunks = identify_chunks(tokens)
    sentence = annotate_sentence("t", "Which plants eat animals?", path)
    assert to_pattern_candidate(sentence) == "Which EC1 PC1 EC2"
    assert len(chunks) == 3


def test_conllu_aux_link_drives_discontinuous_pc(tmp_path):
    path = tmp_path / "sample.conllu"
    path.write_text(CONLLU, encoding="utf-8")
    sentence = annotate_sentence("t", "Does a lion eat plants?", path)
    assert to_pattern_candidate(sentence) == "PC1 EC1 PC1 EC2"


def test_conllu_mismatch_errors(tmp_path):
    path = tmp_path / "sample.conllu"
    path.write_text(CONLLU, encoding="utf-8")
    with pytest.raises(AnnotationError):
        annotate("A sentence that is not there?", path)
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tonly\tthree\tcolumns\n", encoding="utf-8")
    with pytest.raises(AnnotationError):
        read_conllu(bad)


def test_determinism():
    text = "What types of clinical data are collected?"
    assert candidate(text) == candidate(text)


def _conllu(tokens) -> str:
    return "".join(f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\tdep\t_\t_\n"
                   for i, (form, upos, head) in enumerate(tokens, 1))


def test_conllu_reader_skips_multiword_and_empty_nodes_and_reads_unknown_upos_as_x(
        tmp_path):
    path = tmp_path / "nodes.conllu"
    lines = _conllu([("Which", "PRON", 2), ("plants", "NOUN", 3), ("eat", "VERBAL", 0),
                     ("animals", "NOUN", 3), ("?", "PUNCT", 3)]).splitlines(keepends=True)
    path.write_text("1-2\tWhich plants\t_\t_\t_\t_\t_\t_\t_\t_\n" + "".join(lines[:3])
                    + "3.1\tgreen\tgreen\tADJ\t_\t_\t_\t_\t_\t_\n" + "".join(lines[3:]),
                    encoding="utf-8")
    [sentence] = read_conllu(path)
    assert [(t.surface, t.pos, t.head) for t in sentence] == [
        ("Which", "PRON", 1), ("plants", "NOUN", 2), ("eat", "X", 2),
        ("animals", "NOUN", 2), ("?", "PUNCT", 2)]


@pytest.mark.parametrize("text, tokens, expected, pc", [
    ("Which plants give up leaves?",
     [("Which", "PRON", 2), ("plants", "NOUN", 3), ("give", "VERB", 0),
      ("up", "PART", 3), ("leaves", "NOUN", 3), ("?", "PUNCT", 3)],
     "Which EC1 PC1 EC2", "give up"),
    ("Which plants need to grow?",
     [("Which", "PRON", 2), ("plants", "NOUN", 3), ("need", "VERB", 0),
      ("to", "PART", 5), ("grow", "VERB", 3), ("?", "PUNCT", 3)],
     "Which EC1 PC1 to PC2", "need"),
], ids=["joins", "before-a-verb"])
def test_conllu_part_after_a_content_verb_joins_its_pc_unless_a_verb_follows(
        tmp_path, text, tokens, expected, pc):
    # the built-in tagger tags ``to`` PART only before a verb, so only a
    # CoNLL-U file reaches the joining branch
    path = tmp_path / "part.conllu"
    path.write_text(_conllu(tokens), encoding="utf-8")
    sentence = annotate_sentence("t", text, path)
    assert to_pattern_candidate(sentence) == expected
    assert next(c for c in sentence.chunks if c.label == "PC1").surface_text == pc


@pytest.mark.parametrize("heads, roots", [((2, 3, 2), 0), ((0, 2, 2), 2)],
                         ids=["cycle", "root-and-self-loop"])
def test_conllu_reader_checks_the_root(tmp_path, heads, roots):
    # a token headed by itself counts as a root, as HEAD 0 does
    path = tmp_path / "tree.conllu"
    path.write_text("# a comment line\n" + "".join(
        f"{i}\t{form}\t{form}\tNOUN\t_\t_\t{head}\tdep\t_\t_\n"
        for i, (form, head) in enumerate(zip(("Which", "plants", "grow"), heads), 1)),
        encoding="utf-8")
    with pytest.raises(AnnotationError) as exc:
        read_conllu(path)
    assert str(exc.value) == (f"{path}: sentence at line 2: "
                              f"expected exactly one root, got {roots}")


@pytest.mark.parametrize("apostrophe", ["'", "’"])
def test_typographic_possessive_splits_tags_and_attaches_like_ascii(apostrophe):
    text = f"Which tool{apostrophe}s licence is used?"
    tokens = annotate_sentence("t", text).tokens
    assert [(t.surface, t.pos, t.deprel) for t in tokens[:3]] == [
        ("Which", "PRON", "dep"), ("tool", "NOUN", "dep"),
        (f"{apostrophe}s", "AUX", "aux")]
    assert candidate(text) == "Which EC1 PC1 EC2 PC1"
    assert [t.surface for t in tokenize(f"Where{apostrophe}S the file?")][:2] == \
        ["Where", f"{apostrophe}s"]
    assert linguistics._detokenize(["tool", f"{apostrophe}s", "licence"]) == \
        f"tool{apostrophe}s licence"


@pytest.mark.parametrize("apostrophe", ["'", "’"])
def test_re_clitic_splits_and_tags_like_are(apostrophe):
    text = f"Which tools{apostrophe}re used by a lab?"
    assert [t.surface for t in tokenize(text)][:3] == ["Which", "tools", f"{apostrophe}re"]
    assert annotate_sentence("t", text).tokens[2].pos == "AUX"
    assert candidate(text) == candidate("Which tools are used by a lab?") == \
        "Which EC1 PC1 EC2"
    # a clitic standing alone keeps its apostrophe
    assert [t.surface for t in tokenize(f"What {apostrophe}re the inputs?")][1] == \
        f"{apostrophe}re"


@pytest.mark.parametrize("word, expected", [
    ("'sample'", ["sample"]),
    ("'should'", ["should"]),
    ('"sample"', ["sample"]),
    ("‘result’", ["result"]),
    ("'s", ["'s"]),
    ("'s?", ["'s", "?"]),
    ("\"'s\"", ["'s"]),
    ("’re,", ["’re", ","]),
])
def test_an_opening_quote_stays_only_on_a_clitic(word, expected):
    assert [t.surface for t in tokenize(word)] == expected


def test_a_quoted_auxiliary_is_tagged_as_one():
    tokens = annotate_sentence("t", "Which tools 'should' be used?").tokens
    assert [(t.surface, t.pos) for t in tokens[2:4]] == [("should", "AUX"), ("be", "AUX")]
