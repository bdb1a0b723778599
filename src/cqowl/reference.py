"""Published reference statistics for the five-ontology CQ corpus.

These are the numbers reported for the original study corpus (234 CQs over
SWO, Stuff, AWO, Dem@Care and OntoDT with 131 SPARQL-OWL translations).
The ``--paper-calibration`` CLI flag compares computed results against them
and emits the deltas, so any divergence between this toolkit's
reconstruction of the procedures and the original analysis is first-class
output rather than a silent difference.
"""
from __future__ import annotations

# ontology -> (cq count, translated count)
TRANSLATABILITY = {
    "SWO": (88, 42),
    "Stuff": (11, 9),
    "AWO": (14, 7),
    "Dem@Care": (107, 60),
    "OntoDT": (14, 13),
    "Total": (234, 131),
}

# keyword -> (total, per-ontology counts)
KEYWORD_USAGE = {
    "WHERE": (131, {"Dem@Care": 60, "SWO": 42, "OntoDT": 13, "Stuff": 9, "AWO": 7}),
    "rdfs:subClassOf": (125, {"Dem@Care": 57, "SWO": 42, "OntoDT": 13, "Stuff": 7, "AWO": 6}),
    "SELECT": (114, {"Dem@Care": 60, "SWO": 30, "OntoDT": 13, "Stuff": 7, "AWO": 4}),
    "owl:onProperty": (96, {"SWO": 42, "Dem@Care": 33, "OntoDT": 13, "Stuff": 2, "AWO": 6}),
    "owl:someValuesFrom": (83, {"SWO": 31, "Dem@Care": 32, "OntoDT": 13, "AWO": 6, "Stuff": 1}),
    "rdf:type / a": (72, {"SWO": 40, "OntoDT": 13, "Dem@Care": 11, "AWO": 6, "Stuff": 2}),
    "DISTINCT": (71, {"Dem@Care": 57, "Stuff": 6, "SWO": 4, "AWO": 4}),
    "owl:Restriction": (69, {"SWO": 40, "OntoDT": 13, "Dem@Care": 8, "AWO": 6, "Stuff": 2}),
    "FILTER": (58, {"Dem@Care": 31, "SWO": 16, "Stuff": 6, "AWO": 5}),
    "owl:Nothing": (34, {"SWO": 6, "AWO": 4, "Dem@Care": 24}),
    "ASK": (17, {"SWO": 12, "Stuff": 2, "AWO": 3}),
    "owl:hasValue": (13, {"SWO": 13}),
    "NOT EXISTS": (11, {"Dem@Care": 7, "SWO": 2, "Stuff": 1, "AWO": 1}),
    "owl:intersectionOf": (7, {"SWO": 7}),
    "owl:unionOf": (4, {"AWO": 2, "Dem@Care": 1, "SWO": 1}),
    "UNION": (3, {"SWO": 2, "Dem@Care": 1}),
    "owl:disjointWith": (3, {"Stuff": 2, "AWO": 1}),
    "owl:allValuesFrom": (1, {"Dem@Care": 1}),
    "owl:cardinality": (1, {"Stuff": 1}),
    "rdf:first": (1, {"Dem@Care": 1}),
    "rdf:rest": (1, {"Dem@Care": 1}),
}

# ontology -> (candidates, patterns, distinct, coverage %, materialized,
#              dematerialized, distinct higher-level)
PATTERN_COVERAGE = {
    "SWO": (88, 88, 72, 100.0, 1, 87, 60),
    "Stuff": (11, 7, 6, 63.6, 4, 7, 5),
    "AWO": (14, 10, 9, 71.4, 6, 8, 8),
    "Dem@Care": (107, 90, 18, 84.1, 107, 0, 15),
    "OntoDT": (14, 14, 8, 100.0, 0, 14, 4),
    "Total": (234, 209, 106, 89.3, 118, 116, 81),
}

SIGNATURE_COUNT = 46
TOP9_SIGNATURE_COVERAGE_PCT = 63.1

# rule id -> (numerator, denominator)
SIGNAL_SUPPORT = {
    "wh-select": (107, 107),
    "binary-ask": (16, 18),
    "or-union": (2, 9),
    "and-intersection": (2, 11),
    "exactly-cardinality": (1, 1),
    "possible-types": (3, 3),
    "types-of": (3, 4),
    "what-types-is": (8, 11),
    "kind-of-is": (2, 3),
    "main-types": (6, 9),
}
