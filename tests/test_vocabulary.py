"""One reserved-vocabulary rule: ``queryparse.vocabulary_name``.

It names a term of the rdf/rdfs/owl/xsd vocabulary ``prefix:local``, and it
decides a prefixed name once per namespace.  These tests hold it to the
plain rule (build the IRI, match it against the reserved namespaces) on
namespace/local splits that cross the namespace boundary either way, and
check that the keyword table and the signatures it feeds do not change
when the bundled queries rename the vocabulary's prefixes or write its
full IRIs.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqowl.queryparse import (
    Iri,
    PrefixedName,
    PrefixResolutionError,
    Variable,
    WELL_KNOWN_PREFIXES,
    _tokenize,
    keyword_presence,
    parse_query,
    resolve_term,
    vocabulary_name,
)
from cqowl.signatures import canonicalize

RESERVED = list(WELL_KNOWN_PREFIXES.values())
DOMAIN = ["http://example.org/onto#", "http://purl.org/dc/terms/", "urn:x:", ""]
# parts a local name may hold; a hand-built record may hold a ``#``
PIECES = ["type", "Thing", "subClassOf", "first", "x", "#", "-", "/", "ns#", "owl#"]


def _matched(iri: str):
    """The rule spelled out: the IRI matched against the reserved namespaces."""
    names = [f"{prefix}:{iri[len(ns):]}" for prefix, ns in WELL_KNOWN_PREFIXES.items()
             if iri.startswith(ns)]
    return names[0] if names else None


@st.composite
def splits(draw):
    """``(namespace, local)``: a reserved namespace, a proper beginning of
    one, one extended, or a domain namespace, and a local part that may
    carry the rest of a reserved namespace."""
    reserved = draw(st.sampled_from(RESERVED))
    cut = draw(st.integers(0, len(reserved)))
    tail = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=3)))
    namespace = draw(st.sampled_from([
        reserved, reserved[:cut], reserved + tail, *DOMAIN]))
    local = draw(st.sampled_from([tail, reserved[cut:] + tail, reserved[cut:]]))
    return namespace, local


@given(splits())
@settings(max_examples=500, deadline=None)
def test_prefixed_names_follow_the_matched_iri(split):
    namespace, local = split
    term = PrefixedName("p", local)
    prefixes = {"p": namespace}
    assert vocabulary_name(term, prefixes) == _matched(resolve_term(term, prefixes))
    assert vocabulary_name(Iri(namespace + local), {}) == _matched(namespace + local)


def test_a_proper_beginning_of_a_namespace_leaves_it_to_the_local_part():
    owl = WELL_KNOWN_PREFIXES["owl"]
    prefixes = {"w3": "http://www.w3.org/", "o": owl[:-1]}
    assert vocabulary_name(PrefixedName("w3", "2002/07/owl#Thing"), prefixes) == "owl:Thing"
    assert vocabulary_name(PrefixedName("o", "#Nothing"), prefixes) == "owl:Nothing"
    assert vocabulary_name(PrefixedName("o", "x"), prefixes) is None
    assert vocabulary_name(PrefixedName("w3", "TR/"), prefixes) is None


def test_names_of_other_terms_and_undeclared_prefixes():
    verb_a = parse_query("ASK { ?s a ?o }").where.items[0].triples[0].predicate
    assert vocabulary_name(verb_a, {}) == "rdf:type"
    assert vocabulary_name(PrefixedName("rdf", "type"), WELL_KNOWN_PREFIXES) == "rdf:type"
    assert vocabulary_name(Variable("x"), {}) is None
    with pytest.raises(PrefixResolutionError, match="'zz' is not declared"):
        vocabulary_name(PrefixedName("zz", "a"), {})


# renamed labels of the bundled queries' rdf:, rdfs: and owl: names; the
# old labels are bound to a domain namespace, so a name left unrewritten
# would change the signature
RENAMED = {"rdf": "vr", "rdfs": "vrs", "owl": "vo"}


def _rewrite(text: str, table: dict[str, str], how: str) -> tuple[str, int]:
    """``text`` with each rdf:/rdfs:/owl: name written under its renamed
    label (``how="renamed"``) or as a full IRI (``"full"``), or each in
    turn (``"mixed"``), and the number of names rewritten."""
    out, pos, count = [], 0, 0
    for kind, value, offset in _tokenize(text):
        prefix, _, local = value.partition(":")
        if kind != "PNAME" or prefix not in RENAMED:
            continue
        count += 1
        full = how == "full" or (how == "mixed" and count % 2)
        out += [text[pos:offset],
                f"<{table[prefix]}{local}>" if full else f"{RENAMED[prefix]}:{local}"]
        pos = offset + len(value)
    declared = "".join(f"PREFIX {label}: <{table[prefix]}>\n"
                       f"PREFIX {prefix}: <http://example.org/not-{prefix}#>\n"
                       for prefix, label in RENAMED.items())
    return declared + "".join(out) + text[pos:], count


@pytest.mark.parametrize("how", ["renamed", "full", "mixed"])
def test_renamed_or_full_vocabulary_keeps_keywords_and_signatures(corpus, how):
    asts, _ = corpus.parse_queries()
    rewritten = 0
    for q in corpus.questions:
        if q.id not in asts:
            continue
        ast = asts[q.id]
        text, count = _rewrite(q.query_text, ast.prefixes(), how)
        rewritten += count
        other = parse_query(text, corpus.ontology(q.ontology).prefixes())
        assert keyword_presence(other) == keyword_presence(ast), q.id
        assert canonicalize(other) == canonicalize(ast), q.id
    assert len(asts) == 131 and rewritten > 131
