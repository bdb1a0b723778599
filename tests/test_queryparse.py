from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqowl.queryparse import (
    And,
    Arith,
    Bgp,
    BlankPropertyList,
    Compare,
    Filter,
    FnCall,
    Group,
    In,
    KEYWORD_INVENTORY,
    Literal,
    Or,
    PathSequence,
    PathZeroOrMore,
    PrefixedName,
    PrefixResolutionError,
    QueryAst,
    QueryParseError,
    STAR,
    TermRef,
    TriplePattern,
    UnionPattern,
    Variable,
    keyword_presence,
    parse_query,
    resolve_term,
    serialize_query,
)
from cqowl.signatures import canonicalize

PREFIXES = {
    "awo": "http://www.meteck.org/teaching/ontologies/AfricanWildlifeOntology1.owl#",
    "exch": "http://www.demcare.eu/ontologies/exchangemodel.owl#",
    "stuff": "http://www.meteck.org/files/ontologies/stuff.owl#",
    "": "http://www.meteck.org/files/ontologies/stuff.owl#",
}

PLANT_EATERS = """SELECT DISTINCT ?eats
WHERE {
    ?eats rdfs:subClassOf awo:plant, [
        a owl:Restriction ;
        owl:onProperty awo:eats;
        owl:someValuesFrom awo:animal
    ] .
    FILTER(?eats != owl:Nothing)
}"""


def test_select_distinct_structure():
    ast = parse_query(PLANT_EATERS, PREFIXES)
    assert ast.verb == "SELECT"
    assert ast.distinct is True
    assert ast.projection == (Variable("eats", "?"),)
    bgp, filt = ast.where.items
    assert isinstance(bgp, Bgp) and isinstance(filt, Filter)
    assert len(bgp.triples) == 1
    triple = bgp.triples[0]
    assert len(triple.objects) == 2
    nested = triple.objects[1]
    assert isinstance(nested, BlankPropertyList)
    assert len(nested.pairs) == 3


def test_property_path_sequence():
    q = ("SELECT ?c WHERE { exch:Report rdfs:subClassOf "
         "[ owl:unionOf/rdf:rest*/rdf:first ?c ] . }")
    ast = parse_query(q, PREFIXES)
    pairs = ast.where.items[0].triples[0].objects[0].pairs
    path = pairs[0][0]
    assert isinstance(path, PathSequence)
    first, middle, last = path.parts
    assert first == PrefixedName("owl", "unionOf")
    assert middle == PathZeroOrMore(PrefixedName("rdf", "rest"))
    assert last == PrefixedName("rdf", "first")


def test_minimal_ask():
    ast = parse_query("ASK WHERE { }")
    assert ast.verb == "ASK"
    assert ast.projection is None
    assert ast.where.items == ()


def test_placeholder_variable_marker_preserved():
    ast = parse_query("SELECT ?x WHERE { $sw rdfs:subClassOf ?x }", PREFIXES)
    subject = ast.where.items[0].triples[0].subject
    assert subject == Variable("sw", "$")
    assert "$sw" in serialize_query(ast)


def test_prefix_declaration_overrides_and_star():
    q = """PREFIX ex: <http://example.org/ns#>
    SELECT DISTINCT * WHERE { ?x ex:p ex:C }"""
    ast = parse_query(q, PREFIXES)
    assert ast.projection == STAR
    assert ast.prefixes()["ex"] == "http://example.org/ns#"


def test_comments_are_skipped():
    q = """SELECT ?x WHERE {
        ?x rdfs:subClassOf awo:plant . # a comment with { braces }
    }"""
    ast = parse_query(q, PREFIXES)
    assert len(ast.where.items[0].triples) == 1


def test_union_and_not_exists_nodes():
    q = """ASK WHERE {
        { ?x rdfs:subClassOf awo:plant . } UNION { ?x rdfs:subClassOf awo:animal . }
        FILTER NOT EXISTS { ?x owl:disjointWith awo:plant }
    }"""
    ast = parse_query(q, PREFIXES)
    kinds = [type(i).__name__ for i in ast.where.items]
    assert kinds == ["UnionPattern", "NotExists"]


def test_typed_literal_and_in_expression():
    q = """SELECT ?x WHERE {
        ?x rdfs:subClassOf [ owl:cardinality "2"^^xsd:nonNegativeInteger ] .
        FILTER(?x IN (:PureStuff, :MixedStuff))
    }"""
    ast = parse_query(q, PREFIXES)
    rt = parse_query(serialize_query(ast), PREFIXES)
    assert rt == ast


def test_errors_carry_positions():
    with pytest.raises(QueryParseError) as err:
        parse_query("SELECT ?x WHERE { ?x rdfs:subClassOf }", PREFIXES)
    assert "line 1" in str(err.value)
    with pytest.raises(QueryParseError):
        parse_query("", PREFIXES)
    with pytest.raises(QueryParseError):
        parse_query("DESCRIBE ?x", PREFIXES)


@pytest.mark.parametrize("text, message, line, col", [
    # a newline inside a string literal starts a new line too
    ('ASK {\n  ?x rdfs:label "one\ntwo" ]\n}', "expected a term, found ']'", 3, 6),
    ('ASK {\n  ?x rdfs:label "one\ntwo" %\n}', "unexpected character '%'", 3, 6),
    # end of input is placed after the comment that precedes it
    ("ASK {\n  ?x a ?y .\n# no closing brace", "found 'end of input'", 3, 19),
    ("ASK { ?x a ?y\n# comment\n", "found 'end of input'", 3, 1),
    # ``a`` is a verb only, as in SPARQL
    ("ASK { a ?p ?y }", "expected a term, found 'a'", 1, 7),
    ("ASK {\n  ?x ?p a }", "expected a term, found 'a'", 2, 9),
    ("ASK { ?x ?p ?y FILTER(?y = a) }", "expected a term, found 'a'", 1, 28),
])
def test_error_positions_count_every_newline(text, message, line, col):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert message in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).endswith(f"(line {line}, column {col})")


_MUTATION_PIECES = list('{}()[].;,/*+-:=!&|^<>"?$_#@\\\n\t xa0') + [
    "SELECT", "ASK", "WHERE", "FILTER", "NOT EXISTS", "BIND", " AS ", " IN ", "UNION",
    "DISTINCT", "PREFIX ex: <http://example.org/>", "ex:", "_:", "^^", "&&", "||",
    "!=", "\n# comment\n", "@en", '"text"',
]


def test_mutated_queries_round_trip_or_raise_parse_errors(corpus):
    # seeded character edits of the bundled queries: each result either
    # parses to an AST that survives serialization, or is a QueryParseError
    # whose position lies inside the text
    rng = random.Random(20181)
    queries = [(q.query_text, corpus.ontology(q.ontology).prefixes())
               for q in corpus.questions if q.query_text is not None]
    parsed = 0
    for _ in range(2500):
        text, prefixes = rng.choice(queries)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            piece = rng.choice(_MUTATION_PIECES)
            text = rng.choice((text[:i] + text[i + 1:], text[:i] + piece + text[i:],
                               text[:i] + piece + text[i + 1:]))
        try:
            ast = parse_query(text, prefixes)
        except QueryParseError as exc:
            lines = text.split("\n")
            assert 1 <= exc.line <= len(lines), text
            assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1, text
            continue
        parsed += 1
        assert parse_query(serialize_query(ast), prefixes) == ast, text
    assert 100 < parsed < 2400  # both outcomes are well represented


def test_out_of_scope_syntax_is_rejected():
    with pytest.raises(QueryParseError):
        parse_query("SELECT ?x WHERE { OPTIONAL { ?x a ?y } }", PREFIXES)
    with pytest.raises(QueryParseError):
        parse_query("SELECT ?x WHERE { { SELECT ?y WHERE { ?y a ?z } } }",
                    PREFIXES)


def test_undeclared_prefix_is_a_parse_error():
    with pytest.raises(QueryParseError) as err:
        parse_query("SELECT ?x WHERE {\n  ?x mystery:p ?y }", PREFIXES)
    assert (err.value.line, err.value.col) == (2, 6)
    assert "'mystery'" in str(err.value)
    # the default prefix is checked the same way
    with pytest.raises(QueryParseError) as err:
        parse_query("ASK { :A a owl:Class }", {})
    assert (err.value.line, err.value.col) == (1, 7)
    # a declaration in the query text makes the prefix known
    parse_query("PREFIX mystery: <http://x#> ASK { ?x mystery:p ?y }", {})
    # hand-built ASTs still meet the check when their terms are resolved
    with pytest.raises(PrefixResolutionError):
        resolve_term(PrefixedName("mystery", "p"), PREFIXES)


def test_keyword_presence_resolved_iris():
    ast = parse_query(PLANT_EATERS, PREFIXES)
    assert keyword_presence(ast) == {
        "WHERE", "SELECT", "DISTINCT", "rdfs:subClassOf", "rdf:type / a",
        "owl:Restriction", "owl:onProperty", "owl:someValuesFrom", "FILTER",
        "owl:Nothing",
    }
    # prefix renaming does not change the result
    renamed = PLANT_EATERS.replace("awo:", "zoo:")
    ast2 = parse_query(renamed, {"zoo": PREFIXES["awo"]})
    assert keyword_presence(ast2) == keyword_presence(ast)


def test_keyword_presence_minimal_ask():
    assert keyword_presence(parse_query("ASK WHERE { }")) == {"WHERE", "ASK"}


def test_keyword_presence_stays_inside_the_inventory(corpus):
    asts, _ = corpus.parse_queries()
    assert len(asts) == 131
    for ast in asts.values():
        assert keyword_presence(ast) <= set(KEYWORD_INVENTORY)


def test_roundtrip_preserves_predicate_object_grouping():
    q = """SELECT ?sw WHERE {
        ?sw rdfs:subClassOf awo:plant ;
            rdfs:subClassOf [ owl:onProperty awo:eats ; owl:someValuesFrom ?x ] ;
            owl:disjointWith awo:animal .
    }"""
    ast = parse_query(q, PREFIXES)
    assert parse_query(serialize_query(ast), PREFIXES) == ast


def test_collections_roundtrip():
    q = ("SELECT ?x WHERE { ?x rdfs:subClassOf "
         "[ owl:unionOf ( awo:plant awo:PlantParts ) ] . }")
    ast = parse_query(q, PREFIXES)
    assert parse_query(serialize_query(ast), PREFIXES) == ast


def test_filter_on_a_bare_name_before_a_collection_roundtrips():
    # unbracketed, the name and the collection after it would re-parse as
    # the function call ``owl:Nothing(?a)``; a FILTER is written bracketed
    ast = parse_query("ASK { FILTER owl:Nothing . ( ?a ) rdf:type ?b . }")
    assert parse_query(serialize_query(ast)) == ast


def test_labeled_blank_nodes():
    q = "SELECT ?x WHERE { ?x rdfs:subClassOf _:b2 . _:b2 owl:onProperty ?p . }"
    ast = parse_query(q, PREFIXES)
    assert parse_query(serialize_query(ast), PREFIXES) == ast


def test_serialization_keeps_declared_prefixes():
    q = ("PREFIX ex: <http://example.org/ns#>\n"
         "PREFIX : <http://example.org/default#>\n"
         "SELECT ?x WHERE { ?x rdfs:subClassOf ex:C . ?x :p ?y }")
    ast = parse_query(q)
    text = serialize_query(ast)
    assert text.startswith("PREFIX ex: <http://example.org/ns#>\n"
                           "PREFIX : <http://example.org/default#>\n")
    assert parse_query(text) == ast
    assert serialize_query(parse_query(text)) == text


def test_full_iris_match_their_prefixed_form():
    prefixed = ("SELECT ?x WHERE { ?x rdfs:subClassOf awo:plant . "
                "FILTER(?x != owl:Nothing) }")
    full = ("SELECT ?x WHERE { ?x <http://www.w3.org/2000/01/rdf-schema#subClassOf> "
            f"<{PREFIXES['awo']}plant> . "
            "FILTER(?x != <http://www.w3.org/2002/07/owl#Nothing>) }")
    a, b = parse_query(prefixed, PREFIXES), parse_query(full, {})
    assert keyword_presence(a) == keyword_presence(b) == {
        "WHERE", "SELECT", "rdfs:subClassOf", "FILTER", "owl:Nothing"}
    assert canonicalize(a).skeleton == canonicalize(b).skeleton
    assert parse_query(serialize_query(b), {}) == b


def test_disjunctions_serialize_and_round_trip():
    ast = parse_query("ASK { ?x a ?y . FILTER((?x = awo:a || ?x = awo:b) "
                      "&& ?y != awo:c || ?y = awo:d) }", PREFIXES)
    text = serialize_query(ast)
    assert "FILTER ((?x = awo:a || ?x = awo:b) && ?y != awo:c || ?y = awo:d)" in text
    assert parse_query(text, PREFIXES) == ast


def test_language_tagged_literals_round_trip():
    ast = parse_query('SELECT ?x WHERE { ?x rdfs:label "lion"@en, "Löwe"@de-DE }',
                      PREFIXES)
    objects = ast.where.items[0].triples[0].objects
    assert [(o.lexical, o.lang) for o in objects] == [("lion", "en"), ("Löwe", "de-DE")]
    text = serialize_query(ast)
    assert '"lion"@en, "Löwe"@de-DE' in text
    assert parse_query(text, PREFIXES) == ast


@pytest.mark.parametrize("escaped, lexical", [
    (r"a\\b", "a\\b"),
    (r"a\"b", 'a"b'),
    (r"a\nb\tc", "a\nb\tc"),
    (r"a\\nb", "a\\nb"),
    (r"a\ub", "a\\ub"),
    ("a\x00b", "a\x00b"),  # the NUL is a character, not a marker for a backslash
    (r"\r\b\f\'", "\r\b\f'"),  # the rest of SPARQL's ECHAR set
    (r"\u0041B", "AB"),  # a UCHAR, as in Turtle's string grammar
    (r"\U0001F981\u00e9", "\U0001F981\u00e9"),
    (r"\\u0041", "\\u0041"),  # an escaped backslash, then text
])
def test_string_escapes_read_in_one_pass(escaped, lexical):
    ast = parse_query(f'ASK {{ ?x awo:p "{escaped}" . }}', PREFIXES)
    assert ast.where.items[0].triples[0].objects[0].lexical == lexical
    assert parse_query(serialize_query(ast), PREFIXES) == ast


@pytest.mark.parametrize("escaped", [r"\uD800", r"\uDFFF", r"\U00110000"])
def test_uchar_naming_no_character_is_a_parse_error(escaped):
    # a surrogate or a code point above U+10FFFF is no character that a
    # UTF-8 output can hold
    with pytest.raises(QueryParseError) as err:
        parse_query(f'ASK {{\n  ?x awo:p "a{escaped}" . }}', PREFIXES)
    assert f"{escaped} names no character" in str(err.value)
    assert (err.value.line, err.value.col) == (2, 14)


def test_single_quoted_literals_read_as_double_quoted_ones():
    ast = parse_query("ASK { ?x rdfs:label 'lion' . }", PREFIXES)
    assert ast == parse_query('ASK { ?x rdfs:label "lion" . }', PREFIXES)
    ast = parse_query(r"""ASK { ?x rdfs:label 'it\'s "Leo"'@en . }""", PREFIXES)
    assert ast.where.items[0].triples[0].objects == (Literal('it\'s "Leo"', lang="en"),)
    text = serialize_query(ast)
    assert '"it\'s \\"Leo\\""@en' in text
    assert parse_query(text, PREFIXES) == ast


def test_literals_are_written_on_one_line_and_read_back():
    # STRING_LITERAL2 admits no raw line feed or carriage return
    lexical = 'one\ntwo\rthree\tfour\\five"six'
    written = str(Literal(lexical))
    assert written == r'"one\ntwo\rthree\tfour\\five\"six"'
    ast = parse_query(f"ASK {{ ?x awo:p {written} . }}", PREFIXES)
    assert ast.where.items[0].triples[0].objects == (Literal(lexical),)
    assert written in serialize_query(ast)
    assert parse_query(serialize_query(ast), PREFIXES) == ast


_LEAVES = st.builds(TermRef, st.one_of(
    st.builds(Variable, st.sampled_from("ab")),
    st.just(PrefixedName("awo", "lion")),
    st.builds(Literal, st.text('x"\\', max_size=2)),
    st.builds(Literal, st.sampled_from("07"), st.just(PrefixedName("xsd", "integer"))),
))


def _expressions(depth: int):
    """Expression trees at most ``depth`` nodes deep, built as the AST
    holds them, so any nesting may need brackets to be read back."""
    if depth == 1:
        return _LEAVES
    sub = _expressions(depth - 1)
    parts = st.lists(sub, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        _LEAVES,
        st.builds(Compare, st.sampled_from(["=", "!="]), sub, sub),
        st.builds(And, parts),
        st.builds(Or, parts),
        st.builds(In, sub, st.lists(sub, min_size=1, max_size=2).map(tuple)),
        st.builds(Arith, st.sampled_from("+-"), sub, sub),
        st.builds(FnCall, st.just("STRSTARTS"), st.tuples(sub, sub)),
        st.just(FnCall("now", ())),
        st.builds(FnCall, st.just(PrefixedName("xsd", "dateTime")), st.tuples(sub)),
    )


@given(_expressions(4))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_expression_tree_round_trips(expr):
    triple = TriplePattern(Variable("s"), Variable("p"), (Variable("o"),))
    ast = QueryAst("ASK", False, None, Group((Bgp((triple,)), Filter(expr))))
    assert parse_query(serialize_query(ast), PREFIXES).where == ast.where
