from __future__ import annotations

import importlib.util
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cqowl.queryparse import (
    And,
    Arith,
    Bgp,
    BlankNodeLabel,
    BlankPropertyList,
    Compare,
    Filter,
    Group,
    In,
    Iri,
    Literal,
    PrefixedName,
    QueryAst,
    STAR,
    TermRef,
    TriplePattern,
    Variable,
    WELL_KNOWN_PREFIXES,
    _walk,
    parse_query,
)
from cqowl.records import Record
from cqowl.signatures import (
    CanonicalizationLimitExceeded,
    _Canonicalizer,
    _Namer,
    _abstract_term,
    canonicalize,
    coverage_table,
    group_by_signature,
    render_in_source_order,
)
from tests.strategies import (
    expressions,
    oracle_minimum,
    order_count,
    orders,
    queries,
    rename_terms,
)

PREFIXES = {"ex": "http://example.org/ns#", "awo": "http://example.org/awo#"}
_NAMESPACES = {**PREFIXES, **WELL_KNOWN_PREFIXES}


def _name(prefix: str, local: str) -> PrefixedName:
    """``prefix:local`` as the parser reads it under ``PREFIXES``."""
    return PrefixedName(prefix, local, _NAMESPACES[prefix])


def test_uri_renaming_gives_equal_signature():
    q1 = ("SELECT DISTINCT ?x WHERE { ?x rdfs:subClassOf ex:Plant, "
          "[ a owl:Restriction ; owl:onProperty ex:eats ; "
          "owl:someValuesFrom ex:Animal ] . FILTER(?x != owl:Nothing) }")
    q2 = q1.replace("ex:Plant", "awo:lion").replace("ex:eats", "awo:p") \
           .replace("ex:Animal", "awo:Prey")
    assert canonicalize(parse_query(q1, PREFIXES)) == \
        canonicalize(parse_query(q2, PREFIXES))


def test_placeholder_variables_abstract_to_uri_token():
    q1 = "ASK WHERE { $sw rdfs:subClassOf ex:Tool }"
    q2 = "ASK WHERE { ex:Weka rdfs:subClassOf ex:Tool }"
    assert canonicalize(parse_query(q1, PREFIXES)) == \
        canonicalize(parse_query(q2, PREFIXES))


def test_literal_abstracts_but_keeps_datatype():
    q1 = ('SELECT ?x WHERE { ?x ex:p "2"^^xsd:nonNegativeInteger }')
    q2 = ('SELECT ?x WHERE { ?x ex:p "7"^^xsd:nonNegativeInteger }')
    q3 = ('SELECT ?x WHERE { ?x ex:p "2"^^xsd:integer }')
    s1 = canonicalize(parse_query(q1, PREFIXES))
    assert s1 == canonicalize(parse_query(q2, PREFIXES))
    assert s1 != canonicalize(parse_query(q3, PREFIXES))
    assert ":LIT^^xsd:nonNegativeInteger" in s1.skeleton


def test_sensitivity():
    base = "SELECT ?x WHERE {{ ?x rdfs:subClassOf [ owl:onProperty ex:p ; {val} ex:C ] }}"
    some = canonicalize(parse_query(base.format(val="owl:someValuesFrom"), PREFIXES))
    all_ = canonicalize(parse_query(base.format(val="owl:allValuesFrom"), PREFIXES))
    has = canonicalize(parse_query(base.format(val="owl:hasValue"), PREFIXES))
    assert len({some.skeleton, all_.skeleton, has.skeleton}) == 3
    sel = canonicalize(parse_query("SELECT ?x WHERE { ?x a ex:C }", PREFIXES))
    ask = canonicalize(parse_query("ASK WHERE { ?x a ex:C }", PREFIXES))
    assert sel != ask
    plain = canonicalize(parse_query("SELECT ?x WHERE { ?x a ex:C }", PREFIXES))
    distinct = canonicalize(parse_query("SELECT DISTINCT ?x WHERE { ?x a ex:C }", PREFIXES))
    assert plain != distinct


def test_projection_abstracts_to_star_vs_nonstar():
    a = canonicalize(parse_query("SELECT ?x WHERE { ?x a ex:C . ?y a ex:D }", PREFIXES))
    b = canonicalize(parse_query("SELECT ?y WHERE { ?x a ex:C . ?y a ex:D }", PREFIXES))
    star = canonicalize(parse_query("SELECT * WHERE { ?x a ex:C . ?y a ex:D }", PREFIXES))
    assert a == b
    assert a != star


def test_guard_on_oversized_bgp():
    triples = " . ".join(
        f'?x{i} ex:p "v"^^xsd:T{i}' for i in range(20)
    )
    ast = parse_query(f"SELECT * WHERE {{ {triples} }}", PREFIXES)
    with pytest.raises(CanonicalizationLimitExceeded):
        canonicalize(ast)
    groups, skipped = group_by_signature([("big", ast)])
    assert groups == [] and skipped[0][0] == "big"
    # a larger bound admits it
    assert canonicalize(ast, max_triples=32)


def test_guard_on_pathological_symmetry():
    # twenty triples that coincide once IRIs become :URI; each variable
    # occurs in one triple only, so the triples are interchangeable and the
    # search takes them in one fixed order instead of branching on each
    triples = " . ".join(f"?x{i} ex:p ex:C{i}" for i in range(20))
    ast = parse_query(f"SELECT * WHERE {{ {triples} }}", PREFIXES)
    expected = ["SELECT * WHERE {"] + [f"?v{i} :URI :URI ." for i in range(1, 21)]
    assert canonicalize(ast, max_triples=32).skeleton == "\n".join(expected + ["}"])


def test_guard_on_unprunable_symmetry():
    # six disjoint 2-cycles: every variable is shared by two triples, so no
    # triple is interchangeable with another and the branch cap still fires
    triples = " . ".join(f"?a{i} ex:p ?b{i} . ?b{i} ex:q ?a{i}" for i in range(6))
    ast = parse_query(f"SELECT * WHERE {{ {triples} }}", PREFIXES)
    with pytest.raises(CanonicalizationLimitExceeded):
        canonicalize(ast, max_triples=32)


def test_group_by_signature_partition_and_order():
    queries = [
        ("a", parse_query("ASK WHERE { ?x a ex:C }", PREFIXES)),
        ("b", parse_query("ASK WHERE { ?y a ex:D }", PREFIXES)),
        ("c", parse_query("SELECT ?x WHERE { ?x a ex:C }", PREFIXES)),
    ]
    groups, skipped = group_by_signature(queries)
    assert skipped == []
    assert [g.count for g in groups] == [2, 1]
    assert sorted(sum((g.member_ids for g in groups), [])) == ["a", "b", "c"]
    rows = coverage_table(groups)
    assert rows[0]["cumulative_pct"] == 66.7
    assert rows[-1]["cumulative_pct"] == 100.0


def test_single_query_group():
    groups, _ = group_by_signature(
        [("only", parse_query("ASK WHERE { }", PREFIXES))])
    assert len(groups) == 1
    assert groups[0].count == 1
    assert coverage_table(groups)[0]["cumulative_pct"] == 100.0


# The bundled corpus has no ``||`` and one IN, BIND and arithmetic
# expression each, and every oracle renders through the canonicalizer's own
# renderer; so the skeleton text of each node kind is pinned here.
_NODE_KIND_SKELETONS = {
    "empty group": ("ASK WHERE { }", "ASK WHERE {\n}"),
    "a": ("ASK { ?x a ex:C }", "ASK WHERE {\n?v1 a :URI .\n}"),
    "rdf:type": ("ASK { ?x rdf:type ex:C }", "ASK WHERE {\n?v1 a :URI .\n}"),
    "rdf:type outside a verb": (
        "ASK { ?x ex:p rdf:type . FILTER(?x = rdf:type) }",
        "ASK WHERE {\n?v1 :URI rdf:type .\nFILTER(?v1 = rdf:type)\n}"),
    "or in filter": (
        "SELECT * WHERE { ?x a ex:C FILTER(?x = ex:a || ex:b = ?x) }",
        "SELECT * WHERE {\n?v1 a :URI .\nFILTER(:URI = ?v1 || :URI = ?v1)\n}"),
    "or in and": (
        "SELECT * WHERE { ?x a ex:C FILTER(?x != ex:a && (?x = ex:b || ?x = ex:c)) }",
        "SELECT * WHERE {\n?v1 a :URI .\n"
        "FILTER((:URI = ?v1 || :URI = ?v1) && :URI != ?v1)\n}"),
    "and in or": (
        "SELECT * WHERE { ?x a ex:C FILTER(?x = ex:a || ?x != ex:b && ?x != ex:c) }",
        "SELECT * WHERE {\n?v1 a :URI .\n"
        "FILTER((:URI != ?v1 && :URI != ?v1) || :URI = ?v1)\n}"),
    "or as operand": (
        "SELECT * WHERE { ?x ex:p ?y FILTER((?x || ?y) = ?x) }",
        "SELECT * WHERE {\n?v1 :URI ?v2 .\nFILTER((?v1 || ?v2) = ?v1)\n}"),
    "in": (
        "SELECT * WHERE { ?x a ex:C FILTER(?x IN (ex:a, ?x, ex:b)) }",
        "SELECT * WHERE {\n?v1 a :URI .\nFILTER(?v1 IN (:URI, ?v1, :URI))\n}"),
    "call and cast": (
        'SELECT * WHERE { ?x ex:p ?y FILTER(STRSTARTS(?x, "a") '
        '&& xsd:integer(?y) = "1"^^xsd:integer) }',
        "SELECT * WHERE {\n?v1 :URI ?v2 .\n"
        "FILTER(:LIT^^xsd:integer = xsd:integer(?v2) && STRSTARTS(?v1, :LIT))\n}"),
    "arithmetic": (
        "SELECT * WHERE { ?x ex:p ?y . ?x ex:q ?z FILTER(?y + ?z = ?z - ?y) }",
        "SELECT * WHERE {\n?v1 :URI ?v2 .\n?v1 :URI ?v3 .\n"
        "FILTER((?v2 + ?v3) = (?v3 - ?v2))\n}"),
    "bind": (
        "SELECT * WHERE { ?x a ex:C . BIND(now() AS ?t) }",
        "SELECT * WHERE {\n?v1 a :URI .\nBIND(now() AS ?v2)\n}"),
    # only a variable follows AS, so a bound placeholder is a variable there
    "bind of a placeholder": (
        "SELECT * WHERE { ?x ex:p $p . BIND(?x AS $p) }",
        "SELECT * WHERE {\n?v1 :URI :URI .\nBIND(?v1 AS ?v2)\n}"),
    "two-way union": (
        "SELECT * WHERE { { ?x a ex:C } UNION { ?x a ex:D } }",
        "SELECT * WHERE {\n{\n?v1 a :URI .\n} UNION {\n?v1 a :URI .\n}\n}"),
    "three-way union": (
        "SELECT * WHERE { { ?x a ex:C } UNION { ?x ex:p ?y } UNION { ?y a ex:D } }",
        "SELECT * WHERE {\n{\n{\n?v1 a :URI .\n} UNION {\n?v1 :URI ?v2 .\n}\n}"
        " UNION {\n?v2 a :URI .\n}\n}"),
    "not exists": (
        "SELECT * WHERE { ?x a ex:C FILTER NOT EXISTS { ?x ex:p ?y FILTER(?y != ex:a) } }",
        "SELECT * WHERE {\n?v1 a :URI .\n"
        "FILTER NOT EXISTS {\n?v1 :URI ?v2 .\nFILTER(:URI != ?v2)\n}\n}"),
    "paths, collection and literals": (
        'SELECT ?x WHERE { ?x rdfs:subClassOf* ?y . ?y ex:p/ex:q ( ex:a ?z ) . '
        '?z ex:r "3"^^xsd:integer, "cat"@en }',
        "SELECT ?proj WHERE {\n?v1 :URI / :URI ( :URI ?v2 ) .\n?v2 :URI :LIT .\n"
        "?v2 :URI :LIT^^xsd:integer .\n?v3 rdfs:subClassOf * ?v1 .\n}"),
    "two filters": (
        "SELECT * WHERE { ?x ex:p ?y FILTER(?x != ?y) FILTER(?y != ex:a) }",
        "SELECT * WHERE {\n?v1 :URI ?v2 .\nFILTER(?v1 != ?v2)\nFILTER(:URI != ?v2)\n}"),
}


@pytest.mark.parametrize("name", sorted(_NODE_KIND_SKELETONS))
def test_skeleton_text_of_each_node_kind(name):
    query, skeleton = _NODE_KIND_SKELETONS[name]
    assert canonicalize(parse_query(query, PREFIXES)).skeleton == skeleton



# ---------------------------------------------------------------------------
# randomized invariance suite (acceptance criterion: 1000 trials) and the
# brute-force global-minimum oracle


def _random_ast(rng: random.Random) -> QueryAst:
    n_vars = rng.randint(1, 4)
    n_blanks = rng.randint(0, 2)
    variables = [Variable(f"x{i}") for i in range(n_vars)]
    blanks = [BlankNodeLabel(f"b{i}") for i in range(n_blanks)]
    iris = [_name("ex", f"C{i}") for i in range(rng.randint(1, 4))]
    reserved = [_name("rdfs", "subClassOf"), _name("owl", "onProperty"),
                _name("ex", "p"), _name("ex", "q")]
    anon_ids = itertools.count()

    def term(allow_literal=True):
        choices = variables + blanks + iris
        if allow_literal and rng.random() < 0.15:
            return Literal("v", datatype=_name("xsd", "integer"))
        return rng.choice(choices)

    def node():
        if rng.random() < 0.2:
            return BlankPropertyList((
                (_name("owl", "onProperty"), (term(False),)),
                (_name("owl", "someValuesFrom"), (term(),)),
            ), next(anon_ids))
        return term()

    n_triples = rng.randint(1, 8)
    triples = tuple(
        TriplePattern(term(allow_literal=False), rng.choice(reserved), (node(),))
        for _ in range(n_triples)
    )
    items = [Bgp(triples)]
    if rng.random() < 0.6:
        conjuncts = tuple(
            Compare("!=", TermRef(rng.choice(variables)), TermRef(term()))
            for _ in range(rng.randint(1, 3))
        )
        expr = conjuncts[0] if len(conjuncts) == 1 else And(conjuncts)
        items.append(Filter(expr))
    verb = rng.choice(["SELECT", "ASK"])
    projection = STAR if verb == "SELECT" else None
    return QueryAst(verb, verb == "SELECT" and rng.random() < 0.5, projection,
                    Group(tuple(items)))


@given(queries(depth=1), st.randoms(use_true_random=True))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_invariance_1000_randomized_trials(ast, rng):
    # groups nested one deep keep every draw within the canonicalizer's bounds
    assert canonicalize(ast).skeleton == canonicalize(rename_terms(ast, rng)).skeleton


@given(queries(depth=1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_canonical_form_is_global_minimum_small_asts(ast):
    # at most 5! orders: every draw of at most five orderable parts, and more
    assume(order_count(ast) <= 120)
    want = oracle_minimum(ast)
    got = canonicalize(ast).skeleton
    assert got.split("WHERE ", 1)[1] == want.split("WHERE ", 1)[1]
    assert got == want


def test_three_triple_permutations_and_blank_swaps_identical():
    base = """SELECT * WHERE {{ {t} }}"""
    t1 = "?x rdfs:subClassOf _:b1 ."
    t2 = "_:b1 owl:onProperty ex:p ."
    t3 = "?y rdfs:subClassOf _:b2 ."
    skeletons = set()
    for perm in itertools.permutations([t1, t2, t3]):
        text = base.format(t=" ".join(perm))
        for swapped in (text, text.replace("_:b1", "_:TMP")
                        .replace("_:b2", "_:b1").replace("_:TMP", "_:b2")):
            skeletons.add(canonicalize(parse_query(swapped, PREFIXES)).skeleton)
    assert len(skeletons) == 1


def test_determinism_byte_identical():
    q = ("SELECT DISTINCT * WHERE { ?x rdfs:subClassOf _:b2, "
         "[ owl:onProperty _:b3 ; owl:someValuesFrom ?w ] . "
         "?y rdfs:subClassOf _:b2, [ owl:onProperty _:b3 ; "
         "owl:someValuesFrom ?w ] . ?w rdfs:subClassOf ?z "
         "FILTER ( ?w != ?z && ?x != ?y) }")
    first = canonicalize(parse_query(q, PREFIXES)).skeleton
    for _ in range(5):
        assert canonicalize(parse_query(q, PREFIXES)).skeleton == first


# ---------------------------------------------------------------------------
# interchangeable parts: queries whose triples and FILTER conjuncts coincide
# once IRIs become :URI, some with private variables or blanks and some tied
# to the rest of the query, where an unsound notion of "private" would show


def _pruning_case(rng: random.Random) -> tuple[list, list, list]:
    """Main-BGP triples and FILTER conjuncts (two to five parts in all) plus
    the context items that tie some of them to the rest of the query.  Names
    are ``{k}`` placeholders: ``?{k}`` a variable, ``_:{k}`` a blank,
    ``ex:{k}`` an IRI."""
    triples: list[str] = []
    conjuncts: list[str] = []
    context: list[str] = []
    counter = itertools.count()

    def fresh() -> str:
        return "{k%d}" % next(counter)

    hub = fresh()
    kinds = {
        # one part, with private slots only
        "private": lambda v: triples.append(f"?{v} ex:p ex:{fresh()}"),
        "repeated": lambda v: triples.append(f"?{v} ex:p ?{v}"),
        "blank": lambda v: triples.append(f"_:{v} ex:p ex:{fresh()}"),
        "private conjunct": lambda v: conjuncts.append(f"?{v} != ex:{fresh()}"),
        # the hub variable is shared once two triples use it
        "hub": lambda v: triples.append(f"?{hub} ex:p ?{v}"),
        # a variable shared with another triple or a later FILTER conjunct
        "pair": lambda v: triples.extend(
            [f"?{v} ex:p ex:{fresh()}", f"?{v} ex:q ex:{fresh()}"]),
        "filter": lambda v: (triples.append(f"?{v} ex:p ex:{fresh()}"),
                             conjuncts.append(f"?{v} != ex:{fresh()}")),
        # a variable shared with the rest of the query
        "bind": lambda v: (triples.append(f"?{v} ex:p ex:{fresh()}"),
                           context.append(f"BIND(ex:{fresh()} AS ?{v})")),
        "not exists": lambda v: (
            triples.append(f"?{v} ex:p ex:{fresh()}"),
            context.append(f"FILTER NOT EXISTS {{ ?{v} ex:q ex:{fresh()} }}")),
        "union": lambda v: (
            triples.append(f"?{v} ex:p ex:{fresh()}"),
            context.append(f"{{ ?{v} ex:q ex:{fresh()} }} UNION "
                           f"{{ ?{fresh()} ex:q ex:{fresh()} }}")),
    }
    two_parts = {"pair", "filter"}
    size = rng.randint(2, 5)
    kinds["private"](fresh())
    while len(triples) + len(conjuncts) < size:
        kind = rng.choice(sorted(kinds))
        if kind in two_parts and len(triples) + len(conjuncts) + 2 > size:
            continue
        kinds[kind](fresh())
    return triples, conjuncts, context


def _pruning_query(case: tuple[list, list, list],
                   rng: random.Random | None = None) -> QueryAst:
    """The parsed query of a case; with ``rng``, the triples and conjuncts
    are shuffled, comparison operands flipped and every name replaced."""
    triples, conjuncts, context = (list(part) for part in case)
    keys = sorted(set(re.findall(r"{(k\d+)}", " ".join(triples + conjuncts + context))))
    names = {k: k.upper() for k in keys}
    if rng is not None:
        rng.shuffle(triples)
        rng.shuffle(conjuncts)
        conjuncts = [" != ".join(c.split(" != ")[::-1]) if rng.random() < 0.5 else c
                     for c in conjuncts]
        for i, k in enumerate(rng.sample(keys, len(keys))):
            names[k] = f"r{rng.randint(0, 99)}x{i}"
    items = [" . ".join(triples) + " ."] + context
    if conjuncts:
        items.append(f"FILTER({' && '.join(conjuncts)})")
    text = "SELECT * WHERE { " + " ".join(items) + " }"
    return parse_query(re.sub(r"{(k\d+)}", lambda m: names[m[1]], text), PREFIXES)


def test_interchangeable_parts_keep_global_minimum():
    rng = random.Random(4)
    for _ in range(150):
        ast = _pruning_query(_pruning_case(rng))
        assert canonicalize(ast).skeleton == oracle_minimum(ast)


def test_interchangeable_parts_invariant_under_shuffle_and_renaming():
    rng = random.Random(5)
    for _ in range(150):
        case = _pruning_case(rng)
        expected = canonicalize(_pruning_query(case)).skeleton
        for _ in range(3):
            assert canonicalize(_pruning_query(case, rng)).skeleton == expected


def test_object_list_shares_its_subject_across_templates():
    # the object list expands to two templates that both hold ?x, so ?x is
    # shared and those two templates are not interchangeable with ?w's
    pair = "?x ex:p ?y, ?z"
    skeletons = {canonicalize(parse_query(f"SELECT * WHERE {{ {body} }}", PREFIXES)).skeleton
                 for body in (f"?w ex:p ?v . {pair}", f"{pair} . ?w ex:p ?v")}
    expanded = parse_query(
        "SELECT * WHERE { ?w ex:p ?v . ?x ex:p ?y . ?x ex:p ?z }", PREFIXES)
    assert skeletons == {oracle_minimum(expanded)}
    assert skeletons == {
        "SELECT * WHERE {\n?v1 :URI ?v2 .\n?v1 :URI ?v3 .\n?v4 :URI ?v5 .\n}"}


# ---------------------------------------------------------------------------
# sequences whose parts form one class of interchangeable parts render in
# one order; they must still give the global minimum and count the branches
# the frontier search counted


def _family_case(family: str, n: int) -> tuple[list, list, list]:
    """One of the four adversarial shapes with ``n`` interchangeable parts,
    in the case format of ``_pruning_case``."""
    if family == "symmetric":
        return ["?{k%d} ex:p ex:{k%d}" % (i, n + i) for i in range(n)], [], []
    if family == "star":
        return ["?{k0} ex:p ?{k%d}" % i for i in range(1, n + 1)], [], []
    if family == "filter":
        return (["?{k0} rdfs:subClassOf ex:{k1}"],
                ["?{k0} != ex:{k%d}" % i for i in range(2, n + 2)], [])
    if family == "objlist":
        objects = ", ".join("ex:{k%d}" % i for i in range(1, n + 1))
        return [f"?{{k0}} rdfs:subClassOf {objects}"], [], []
    raise ValueError(family)


# two or more naming states tie on the main BGP (the hub triples render
# alike whichever of them comes first) and are told apart only after the
# FILTER, whose conjuncts form one class
_TIED_STATE_CASES = {
    "bind": (["?{k0} ex:p ?{k1}", "?{k0} ex:p ?{k2}"],
             ["?{k3} != ex:{k4}", "?{k5} != ex:{k6}"],
             ["BIND(?{k1} AS ?{k7})"]),
    "not exists": (["?{k0} ex:p ?{k1}", "?{k0} ex:p ?{k2}"],
                   ["?{k3} != ex:{k4}", "?{k5} != ex:{k6}"],
                   ["FILTER NOT EXISTS { ?{k1} ex:q ex:{k7} }"]),
    "three states": (["?{k0} ex:p ?{k1}", "?{k0} ex:p ?{k2}", "?{k0} ex:p ?{k3}"],
                     ["?{k4} != ex:{k5}", "?{k6} != ex:{k7}", "?{k8} != ex:{k9}"],
                     ["BIND(?{k1} AS ?{k10})"]),
    "not exists bgp": (["?{k0} ex:p ?{k1}", "?{k0} ex:p ?{k2}"], [],
                       ["FILTER NOT EXISTS { ?{k3} ex:q ex:{k4} . ?{k5} ex:q ex:{k6} }",
                        "BIND(?{k1} AS ?{k7})"]),
}


def _one_class_query(case: tuple[list, list, list],
                     rng: random.Random | None = None) -> QueryAst:
    """Like ``_pruning_query``, but the FILTER comes before the context
    items, so that they read the slots again after it, and with ``rng`` the
    objects of each object list are shuffled too."""
    triples, conjuncts, context = (list(part) for part in case)
    if rng is not None:
        for i, triple in enumerate(triples):
            subject, predicate, objects = triple.split(" ", 2)
            objects = objects.split(", ")
            rng.shuffle(objects)
            triples[i] = f"{subject} {predicate} {', '.join(objects)}"
        rng.shuffle(conjuncts)
        conjuncts = [" != ".join(c.split(" != ")[::-1]) if rng.random() < 0.5 else c
                     for c in conjuncts]
    if conjuncts:
        context.insert(0, f"FILTER({' && '.join(conjuncts)})")
    return _pruning_query((triples, [], context), rng)


_ONE_CLASS_CASES = {
    **{f"{family} n={n}": _family_case(family, n)
       for family in ("symmetric", "star", "filter", "objlist") for n in range(2, 6)},
    **_TIED_STATE_CASES,
}


@pytest.mark.parametrize("name", sorted(_ONE_CLASS_CASES))
def test_one_class_sequences_keep_global_minimum(name):
    case = _ONE_CLASS_CASES[name]
    expected = canonicalize(_one_class_query(case)).skeleton
    assert expected == oracle_minimum(_one_class_query(case))
    rng = random.Random(name)
    for _ in range(8):
        assert canonicalize(_one_class_query(case, rng)).skeleton == expected


def _branches(ast: QueryAst) -> int:
    worker = _Canonicalizer(16)
    worker.render_query(ast)
    return worker.branches


@pytest.mark.parametrize("family,branches_per_part,extra",
                         [("symmetric", 2, 0), ("star", 2, 0),
                          ("filter", 2, 2), ("objlist", 2, 0)])
@pytest.mark.parametrize("n", [2, 8, 16])
def test_branch_counts_of_the_adversarial_families(family, branches_per_part, extra, n):
    ast = _one_class_query(_family_case(family, n))
    assert _branches(ast) == branches_per_part * n + extra


def test_tied_states_count_branches_of_nested_searches():
    # the two tied states enter the one-class conjunction together; each
    # ``||`` part is searched from each state alone, as the frontier does
    ast = _one_class_query((["?{k0} ex:p ?{k1}", "?{k0} ex:p ?{k2}"],
                            ["(?{k1} = ex:{k3} || ?{k4} = ex:{k5})",
                             "(?{k1} = ex:{k3} || ?{k6} = ex:{k5})"], []))
    assert _branches(ast) == 28


def test_nested_sequences_are_classed_once(monkeypatch):
    # each ``||`` is rendered once per order the ``&&`` tries, and its
    # classes are computed on the first rendering only
    keyed = []
    classes = _Canonicalizer._classes

    def counting(self, parts):
        keyed.append(len(parts))
        return classes(self, parts)

    monkeypatch.setattr(_Canonicalizer, "_classes", counting)
    ast = parse_query("ASK { ?a ex:p ?b . ?c ex:p ?d . "
                      "FILTER((?a = ex:C || ?b = ex:D) && (?c = ex:C || ?d = ex:D)) }",
                      PREFIXES)
    assert canonicalize(ast).skeleton == (
        "ASK WHERE {\n?v1 :URI ?v2 .\n?v3 :URI ?v4 .\n"
        "FILTER((:URI = ?v1 || :URI = ?v2) && (:URI = ?v3 || :URI = ?v4))\n}")
    assert keyed == [2, 2, 2, 2]  # the BGP, the ``&&`` and each ``||``


def test_one_class_run_of_leaves_copies_the_namer_once(monkeypatch):
    # the first leaf naming a new slot copies the namer; the later ones
    # name into that copy, which no branch of the search holds
    made = []

    def counting(cls):
        made.append(cls)
        return object.__new__(cls)

    monkeypatch.setattr(_Namer, "__new__", counting)
    ast = _one_class_query(_family_case("star", 16))
    assert canonicalize(ast).skeleton == "SELECT * WHERE {\n" + "".join(
        f"?v1 :URI ?v{i} .\n" for i in range(2, 18)) + "}"
    assert len(made) <= 2


def test_pair_of_leaves_keeps_both_tied_namings():
    # both orders of ``?a != ?b`` render ``?v1 != ?v2``, naming ?a or ?b
    # first; only the naming with ``?b`` as ``?v1`` gives the least triple
    ast = parse_query("SELECT * WHERE { FILTER(?a != ?b) ?b ex:p ex:C . }", PREFIXES)
    skeleton = canonicalize(ast).skeleton
    assert skeleton == "SELECT * WHERE {\nFILTER(?v1 != ?v2)\n?v1 :URI :URI .\n}"
    assert skeleton == oracle_minimum(ast)


def test_namer_copies_only_when_naming_a_new_slot():
    empty = _Namer()
    text, namer = empty.render([("var", "?x"), ":URI", ("blank", "b")])
    assert text == "?v1 :URI _:b1"
    assert namer is not empty and empty.key() == ((), ())
    before = namer.key()
    first, after_first = namer.render([("var", "?y"), ("var", "?x")])
    second, after_second = namer.render([("blank", "c"), ("var", "?z")])
    assert (first, second) == ("?v2 ?v1", "_:b2 ?v2")
    assert namer.key() == before
    assert after_first.key() == ((("?x", "?v1"), ("?y", "?v2")), (("b", "_:b1"),))
    assert after_second.key() == ((("?x", "?v1"), ("?z", "?v2")),
                                  (("b", "_:b1"), ("c", "_:b2")))
    text, same = namer.render([("var", "?x"), ":URI", ("blank", "b")])
    assert text == "?v1 :URI _:b1" and same is namer


# ---------------------------------------------------------------------------
# FILTER operands whose text is a prefix of another operand's: a bare term
# ``?a`` against ``?a = ?c``; ranking a part by its text alone picks the
# shorter one although ``?a = ?c || ?a`` is the lesser rendering


def test_operand_that_prefixes_another_still_gives_the_minimum():
    ast = parse_query("ASK { ?a ex:p ?b . FILTER((?a) || (?a = ?c)) }", PREFIXES)
    assert canonicalize(ast).skeleton == (
        "ASK WHERE {\n?v1 :URI ?v2 .\nFILTER(?v1 = ?v3 || ?v1)\n}")


# the most orders a FILTER's brute-force minimum renders
_ORACLE_ORDERS = 384


@given(expressions(), st.randoms(use_true_random=True))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_filter_operand_kinds_keep_global_minimum(expr, rng):
    ast = _with_filter("?a ex:p ?b .", expr)
    assume(order_count(ast) <= _ORACLE_ORDERS)
    want = oracle_minimum(ast)
    # the same for the query shuffled and renamed
    for form in (ast, rename_terms(ast, rng)):
        assert canonicalize(form).skeleton == want, form


# ---------------------------------------------------------------------------
# comparisons decided by their text: operands whose renderings begin with
# different characters under every naming are put in order during
# abstraction, and the search never tries the other order

def _compared_query(triples, filter_text: str) -> QueryAst:
    return parse_query(f"SELECT * WHERE {{ {' '.join(triples)} FILTER({filter_text}) }}",
                       PREFIXES)


def _with_filter(triples: str, expr) -> QueryAst:
    """``SELECT * WHERE { triples FILTER(expr) }``, for a drawn ``expr``."""
    where = parse_query(f"SELECT * WHERE {{ {triples} }}", PREFIXES).where
    return QueryAst("SELECT", False, STAR, Group(where.items + (Filter(expr),)))


# a term of an abstracted rendering: a named slot, an abstracted literal or
# IRI, or a reserved name
_RENDERED_TERM = re.compile(r"\?v\d+|_:b\d+|:LIT(?:\^\^(?::URI|\w+:\w+))?|:URI|\w+:\w+")
_TERM_KINDS = (Variable, Iri, PrefixedName, Literal, BlankNodeLabel)


def _source_order_terms(ast: QueryAst) -> list[str]:
    """The terms of ``ast``'s WHERE group abstracted in the order the query
    writes them, each variable and blank named by its first occurrence."""
    names: dict = {"var": {}, "blank": {}}
    out = []

    def visit(node):
        if type(node) in _TERM_KINDS:
            for tok in _abstract_term(node):
                if type(tok) is tuple:
                    kind, key = tok
                    head = "?v" if kind == "var" else "_:b"
                    tok = names[kind].setdefault(key, f"{head}{len(names[kind]) + 1}")
                out.append(tok)
        elif isinstance(node, tuple):
            for item in node:
                visit(item)
        elif isinstance(node, Record):
            visit(node._astuple())

    visit(ast.where)
    return out


@given(expressions(), st.randoms(use_true_random=True))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_decided_comparisons_keep_global_minimum(expr, rng):
    # two triples that render alike, so two naming states tie until the FILTER
    ast = _with_filter("?a ex:p _:b1 . ?b ex:p _:b2 .", expr)
    assume(order_count(ast) <= _ORACLE_ORDERS)
    want = oracle_minimum(ast)
    assert canonicalize(ast).skeleton == want
    # any operand order, conjunct order, triple order and naming
    assert canonicalize(rename_terms(ast, rng)).skeleton == want
    # without search, every triple, conjunct and operand stays where the
    # query writes it
    for form in (ast, rng.choice(orders(ast))):
        rendered = render_in_source_order(form)
        assert _RENDERED_TERM.findall(rendered) == _source_order_terms(form), rendered


def test_bundled_queries_branch_total(bundle):
    # the exact work of the search on the bundled corpus, where 51 queries
    # hold a comparison decided by its text and 2 an undecided one, searched
    # as a sequence of two operands
    assert len(bundle.asts) == 131
    assert sum(_branches(ast) for ast in bundle.asts.values()) == 751


# ---------------------------------------------------------------------------
# nested comparisons: a comparison or IN that is an operand of a comparison,
# IN or arithmetic keeps its brackets, so each skeleton is itself a query

# comparisons and IN in every operand position that needs brackets
_NESTED_BY_HAND = ["(?a = ?b) = ?c", "?a = (?b = ?c)", "(?a != ?b) != (?c != ?b)",
                   "?a != (?b != (?b != ?c))", "((?a = ?b)) = ?c",
                   "(?a IN (?b, ex:C)) = ?c", "(?a = ?b) IN (?c, ex:C)",
                   "(?a IN (?b)) IN (?c, ?d = ex:C)", "(?a = ?b) + ?c = ?d",
                   "?a - (?b IN (?c)) != ?d"]


def test_nested_comparisons_keep_their_brackets():
    skeletons = {}
    for text in _NESTED_BY_HAND:
        skeleton = canonicalize(_compared_query([], text)).skeleton
        skeletons.setdefault(skeleton.split("\n")[1], []).append(text)
    assert skeletons == {
        "FILTER((?v1 = ?v2) = ?v3)": ["(?a = ?b) = ?c", "?a = (?b = ?c)", "((?a = ?b)) = ?c"],
        "FILTER((?v1 != ?v2) != (?v1 != ?v3))": ["(?a != ?b) != (?c != ?b)"],
        "FILTER(((?v1 != ?v2) != ?v1) != ?v3)": ["?a != (?b != (?b != ?c))"],
        "FILTER((?v1 IN (?v2, :URI)) = ?v3)": ["(?a IN (?b, ex:C)) = ?c"],
        "FILTER((?v1 = ?v2) IN (?v3, :URI))": ["(?a = ?b) IN (?c, ex:C)"],
        "FILTER((?v1 IN (?v2)) IN (?v3, :URI = ?v4))": ["(?a IN (?b)) IN (?c, ?d = ex:C)"],
        "FILTER(((?v1 = ?v2) + ?v3) = ?v4)": ["(?a = ?b) + ?c = ?d"],
        "FILTER((?v1 - (?v2 IN (?v3))) != ?v4)": ["?a - (?b IN (?c)) != ?d"],
    }


def _nests_a_comparison(expr) -> bool:
    """Whether a comparison or IN in ``expr`` is an operand of a comparison,
    IN or arithmetic."""
    operands = [(node.needle,) if type(node) is In else (node.left, node.right)
                for node in _walk(expr) if type(node) in (Compare, In, Arith)]
    return any(type(operand) in (Compare, In) for pair in operands for operand in pair)


# comparisons at most three deep that nest a comparison or IN
_NESTED = st.builds(Compare, st.sampled_from(("=", "!=")), expressions(2),
                    expressions(2)).filter(_nests_a_comparison)


@given(_NESTED, st.randoms(use_true_random=True))
@settings(max_examples=250, deadline=None, derandomize=True)
def test_nested_comparisons_keep_global_minimum(expr, rng):
    ast = _with_filter("?a ex:p ?b . ?c ex:p ?d .", expr)
    assume(order_count(ast) <= _ORACLE_ORDERS)
    want = oracle_minimum(ast)
    # the same for the query shuffled and renamed
    for form in (ast, rename_terms(ast, rng)):
        assert canonicalize(form).skeleton == want, form


def _gen_queries() -> list[QueryAst]:
    """The adversarial queries that ``perfbench/gen.py`` makes for seeds 1
    and 2, the generator loaded from its file as the benchmark has it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [parse_query(record["text"]) for seed in (1, 2)
            for queries in gen.adversarial_set(seed) for record in queries]


def _fixed_point_inputs(family: str, request) -> list[QueryAst]:
    if family == "bundled":
        return list(request.getfixturevalue("bundle").asts.values())
    if family == "gen":
        return _gen_queries()
    if family == "rdf:type":
        return [parse_query(text, PREFIXES) for text in _RDF_TYPE_OUTSIDE_A_VERB]
    if family == "nested":
        return [_compared_query([], text) for text in _NESTED_BY_HAND]
    return []


# each family's strategy and its number of draws
_FIXED_POINT_DRAWS = {
    "random ast": (queries(depth=1), 1500),
    "filter operands": (expressions().map(lambda expr: _with_filter("?a ex:p ?b .", expr)),
                        1000),
    "nested": (_NESTED.map(lambda expr: _with_filter("?a ex:p ?b . ?c ex:p ?d .", expr)),
               300),
    "strategy": (queries(), 300),
}


# a skeleton writes rdf:type as ``a`` only where SPARQL admits ``a``: as a verb
_RDF_TYPE_OUTSIDE_A_VERB = [
    "ASK { ?x ex:p rdf:type . FILTER(?x = rdf:type) }",
    "ASK { rdf:type a ?c ; rdfs:subClassOf* rdf:type }",
    "ASK { ?x ex:p ( rdf:type ?y ), [ rdf:type ex:C ] . BIND(rdf:type AS ?t) }",
    'ASK { ?x ex:p/rdf:type "1"^^rdf:type FILTER(rdf:type IN (?x, rdf:type)) }',
]


@pytest.mark.parametrize("family", ["bundled", "gen", "random ast", "filter operands",
                                    "nested", "rdf:type", "strategy"])
def test_skeleton_is_a_query_that_canonicalizes_to_itself(family, request):
    # each :LIT is written as a literal, keeping its datatype, and only ``:``
    # is declared: the parser knows the reserved prefixes
    def check(ast):
        skeleton = canonicalize(ast).skeleton
        again = parse_query(skeleton.replace(":LIT", '"LIT"'),
                            {"": "http://example.org/skeleton#"})
        assert canonicalize(again).skeleton == skeleton, skeleton

    for ast in _fixed_point_inputs(family, request):
        check(ast)
    if family in _FIXED_POINT_DRAWS:
        draws, count = _FIXED_POINT_DRAWS[family]
        settings(max_examples=count, deadline=None, derandomize=True)(given(draws)(check))()
