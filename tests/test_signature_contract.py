"""The signature contract: pairs of queries that must share a signature
(``merge``) or must not (``split``), each with the SPARQL 1.1 clause that
decides it.  A row the canonicalizer gets wrong today is a strict xfail
that names the ROADMAP item meant to mend it; the mending change flips it.
"""
from __future__ import annotations

import pytest

from cqowl.queryparse import parse_query
from cqowl.signatures import canonicalize

PREFIXES = {"ex": "http://example.org/ns#"}


def _gap(item: str, what: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {what}")


_ROWS = [
    # what the search and the abstraction cover today
    ("renaming", "§18.3 solution mappings", "merge",
     "ASK { ?x ex:p ?y . ?y ex:q ex:C }", "ASK { ?s ex:r ?o . ?o ex:t ex:D }"),
    ("triple order", "§18.1 a BGP is a set", "merge",
     "ASK { ?x ex:p ?y . ?y ex:q ?z }", "ASK { ?y ex:q ?z . ?x ex:p ?y }"),
    ("conjunct order", "§17.4.1 logical-and", "merge",
     "ASK { ?x ex:p ?y FILTER(?x != ex:C && ?y = ?x) }",
     "ASK { ?x ex:p ?y FILTER(?y = ?x && ?x != ex:C) }"),
    ("operand order", "§17.4.1.7 RDFterm-equal", "merge",
     "ASK { ?x ex:p ?y FILTER(?x = ?y) }", "ASK { ?x ex:p ?y FILTER(?y = ?x) }"),
    # nested comparisons: the brackets decide the operands
    ("nested, same tree", "§17.4.1.7 RDFterm-equal", "merge",
     "ASK { ?a ex:p ?b FILTER((?a = ?b) = ?c) }", "ASK { ?a ex:p ?b FILTER(?c = (?b = ?a)) }"),
    ("nested, other tree", "§19.8 RelationalExpression", "split",
     "ASK { ?a ex:p ?b FILTER((?a = ?b) IN (?c)) }",
     "ASK { ?a ex:p ?b FILTER(?a = (?b IN (?c))) }"),
    # the signature keeps whether a projection is ``*``, not which variables
    ("projection, variables", "§18.2.4.1 projection", "merge",
     "SELECT ?x WHERE { ?x ex:p ?y }", "SELECT ?y WHERE { ?x ex:p ?y }"),
    ("projection, star", "§18.2.4.1 projection", "split",
     "SELECT ?x WHERE { ?x ex:p ?y }", "SELECT * WHERE { ?x ex:p ?y }"),
    # the rows of ROADMAP "Measured at re-anchor 6"
    pytest.param("(a)", "§4.1.4 blank node syntax", "merge",
                 "ASK { ?x ex:p _:r . _:r ex:q ex:C }", "ASK { ?x ex:p [ ex:q ex:C ] }",
                 marks=_gap("12", "a labelled blank and its [ … ] form split")),
    pytest.param("(b)", "§18.1 a BGP is a set", "merge",
                 "ASK { ?x ex:p ?y . ?x ex:p ?y }", "ASK { ?x ex:p ?y }",
                 marks=_gap("12", "a duplicated triple splits")),
    pytest.param("(c)", "§5.2.2 scope of filters", "merge",
                 "ASK { ?x ex:p ?y . FILTER(?y != ex:C) ?y ex:q ?z }",
                 "ASK { ?x ex:p ?y . ?y ex:q ?z FILTER(?y != ex:C) }",
                 marks=_gap("7", "filter placement is kept")),
    pytest.param("(d)", "§18.2.2.6 filters of a group", "merge",
                 "ASK { ?x ex:p ?y FILTER(?x != ex:C && ?y != ex:D) }",
                 "ASK { ?x ex:p ?y FILTER(?x != ex:C) FILTER(?y != ex:D) }",
                 marks=_gap("7", "a group's FILTERs are not one &&")),
    pytest.param("(e)", "§18.5 union", "merge",
                 "ASK { { ?x a ex:C } UNION { ?x ex:p ?y } }",
                 "ASK { { ?x ex:p ?y } UNION { ?x a ex:C } }",
                 marks=_gap("7", "UNION operands keep their order")),
    pytest.param("(f) NOT EXISTS moved", "§5.2.2 scope of filters", "merge",
                 "ASK { FILTER NOT EXISTS { ?x ex:q ?z } ?x ex:p ?y }",
                 "ASK { ?x ex:p ?y FILTER NOT EXISTS { ?x ex:q ?z } }",
                 marks=_gap("7", "filter-like items keep their place")),
    pytest.param("(f) filters swapped", "§18.2.2.6 filters of a group", "merge",
                 "ASK { ?x ex:p ?y FILTER(?x != ex:C) FILTER(?y != ex:D) }",
                 "ASK { ?x ex:p ?y FILTER(?y != ex:D) FILTER(?x != ex:C) }",
                 marks=_gap("7", "filter-like items keep their order")),
    pytest.param("(g)", "§17.4.1.9 IN", "merge",
                 "ASK { ?y ex:p ?x FILTER(?y IN (ex:A, ?x)) }",
                 "ASK { ?y ex:p ?x FILTER(?y IN (?x, ex:A)) }",
                 marks=_gap("7", "IN options keep their order")),
    pytest.param("(h) pairs", "§4.2.1 predicate-object lists", "merge",
                 "ASK { ?x ex:p [ ex:q ?a ; ex:q ?b ] . ?a ex:r ex:C }",
                 "ASK { ?x ex:p [ ex:q ?b ; ex:q ?a ] . ?a ex:r ex:C }",
                 marks=_gap("12", "tied [ … ] pairs keep source order")),
    pytest.param("(h) objects", "§4.2.2 object lists", "merge",
                 "ASK { ?x ex:p [ ex:q ?a, ?b ] . ?a ex:r ex:C }",
                 "ASK { ?x ex:p [ ex:q ?b, ?a ] . ?a ex:r ex:C }",
                 marks=_gap("12", "objects inside a [ … ] keep source order")),
    pytest.param("(i)", "§4.1.4 blank node syntax", "split",
                 "ASK { [ ex:p ex:o ] ex:q ?a ; ex:r ?b . }",
                 "ASK { [ ex:p ex:o ] ex:q ?a . [ ex:p ex:o ] ex:r ?b . }",
                 marks=_gap("12", "a [ … ] subject of two triples is two blank nodes")),
]


@pytest.mark.parametrize("row, clause, verdict, left, right", _ROWS,
                         ids=[row[0] if type(row) is tuple else row.values[0] for row in _ROWS])
def test_signature_contract(row, clause, verdict, left, right):
    merged = canonicalize(parse_query(left, PREFIXES)) == canonicalize(parse_query(right, PREFIXES))
    assert merged == (verdict == "merge"), f"{row} ({clause}) should {verdict}"
