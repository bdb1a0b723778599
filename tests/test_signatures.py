from __future__ import annotations

import importlib.util
import itertools
import random
import re
import string
from pathlib import Path

import pytest

from cqowl.queryparse import (
    And,
    Bgp,
    BlankNodeLabel,
    BlankPropertyList,
    Compare,
    Filter,
    Group,
    Literal,
    PrefixedName,
    QueryAst,
    STAR,
    TermRef,
    TriplePattern,
    Variable,
    WELL_KNOWN_PREFIXES,
    parse_query,
)
from cqowl.signatures import (
    CanonicalizationLimitExceeded,
    _Canonicalizer,
    _Namer,
    canonicalize,
    coverage_table,
    group_by_signature,
    render_in_source_order,
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


def _rename_terms(ast: QueryAst, rng: random.Random) -> QueryAst:
    iri_map = {}
    var_map = {}
    blank_map = {}

    def map_term(t):
        if isinstance(t, PrefixedName) and t.prefix == "ex" and t.local.startswith("C"):
            return iri_map.setdefault(t, _name("ex", f"R{len(iri_map)}{rng.randint(0, 9)}"))
        if isinstance(t, Variable):
            return var_map.setdefault(t, Variable(f"w{len(var_map)}{rng.randint(0, 9)}"))
        if isinstance(t, BlankNodeLabel):
            return blank_map.setdefault(t, BlankNodeLabel(f"k{len(blank_map)}{rng.randint(0, 9)}"))
        return t

    def map_node(n):
        if isinstance(n, BlankPropertyList):
            return BlankPropertyList(tuple(
                (map_term(p), tuple(map_node(o) for o in objs))
                for p, objs in n.pairs
            ), n.anon_id)
        return map_term(n)

    def map_expr(e):
        if isinstance(e, And):
            return And(tuple(map_expr(p) for p in e.parts))
        if isinstance(e, Compare):
            return Compare(e.op, map_expr(e.left), map_expr(e.right))
        if isinstance(e, TermRef):
            return TermRef(map_term(e.term))
        return e

    def map_item(item):
        if isinstance(item, Bgp):
            triples = [
                TriplePattern(map_node(t.subject), map_term(t.predicate),
                              tuple(map_node(o) for o in t.objects))
                for t in item.triples
            ]
            rng.shuffle(triples)
            return Bgp(tuple(triples))
        if isinstance(item, Filter):
            inner = map_expr(item.expr)
            if isinstance(inner, And):
                parts = list(inner.parts)
                rng.shuffle(parts)
                parts = [
                    Compare(p.op, p.right, p.left)
                    if isinstance(p, Compare) and rng.random() < 0.5 else p
                    for p in parts
                ]
                inner = And(tuple(parts))
            elif isinstance(inner, Compare) and rng.random() < 0.5:
                inner = Compare(inner.op, inner.right, inner.left)
            return Filter(inner)
        return item

    return _with_where(ast, Group(tuple(map_item(i) for i in ast.where.items)))


def _with_where(ast: QueryAst, where: Group) -> QueryAst:
    """``ast`` with its WHERE group replaced and every other field kept."""
    fields = dict(zip(QueryAst._fields, ast._astuple()))
    return QueryAst(**{**fields, "where": where})


def test_invariance_1000_randomized_trials():
    rng = random.Random(20240601)
    for _ in range(1000):
        ast = _random_ast(rng)
        transformed = _rename_terms(ast, rng)
        assert canonicalize(ast).skeleton == canonicalize(transformed).skeleton


def _oracle_minimum(ast: QueryAst) -> str:
    """Global minimum rendering over every triple order, conjunct order and
    comparison operand order, computed by exhaustive enumeration."""
    bgp_index = [i for i, item in enumerate(ast.where.items)
                 if isinstance(item, Bgp)]
    assert len(bgp_index) == 1
    bgp = ast.where.items[bgp_index[0]]
    filters = [i for i, item in enumerate(ast.where.items)
               if isinstance(item, Filter)]

    def filter_variants(item):
        expr = item.expr
        conjuncts = list(expr.parts) if isinstance(expr, And) else [expr]
        for order in itertools.permutations(conjuncts):
            swap_space = [
                ((c.left, c.right), (c.right, c.left)) if isinstance(c, Compare)
                else ((None, None),)
                for c in order
            ]
            for swaps in itertools.product(*swap_space):
                rebuilt = []
                for c, swap in zip(order, swaps):
                    if isinstance(c, Compare):
                        rebuilt.append(Compare(c.op, swap[0], swap[1]))
                    else:
                        rebuilt.append(c)
                inner = rebuilt[0] if len(rebuilt) == 1 else And(tuple(rebuilt))
                yield Filter(inner)

    best = None
    for perm in itertools.permutations(bgp.triples):
        variants = [filter_variants(ast.where.items[i]) for i in filters]
        for combo in itertools.product(*variants) if filters else [()]:
            items = list(ast.where.items)
            items[bgp_index[0]] = Bgp(tuple(perm))
            for idx, filt in zip(filters, combo):
                items[idx] = filt
            candidate = render_in_source_order(
                _with_where(ast, Group(tuple(items))))
            if best is None or candidate < best:
                best = candidate
    return best


def test_canonical_form_is_global_minimum_small_asts():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        ast = _random_ast(rng)
        bgp = ast.where.items[0]
        if len(bgp.triples) > 4:
            continue
        checked += 1
        want = _oracle_minimum(ast)
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
        assert canonicalize(ast).skeleton == _oracle_minimum(ast)


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
    assert skeletons == {_oracle_minimum(expanded)}
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
    assert expected == _oracle_minimum(_one_class_query(case))
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
    assert skeleton == _oracle_minimum(ast)


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


def _filter_operand(rng: random.Random, names: str, nested: bool):
    """A random operand tree: ``("text", t)``, ``("pair", op, left, right)``
    or, once per expression, ``("seq", op, operands)`` in parentheses."""
    def var():
        return "?" + rng.choice(names)
    if nested and rng.random() < 0.3:
        return ("seq", rng.choice(("&&", "||")),
                [_filter_operand(rng, names, False) for _ in range(2)])
    kind = rng.choice(("term", "compare", "in", "strstarts"))
    if kind == "term":
        return ("text", var())
    if kind == "compare":
        return ("pair", rng.choice(("=", "!=")), var(), rng.choice((var(), "ex:C")))
    if kind == "in":
        return ("text", f"{var()} IN ({var()}, ex:C)")
    return ("text", f'STRSTARTS({var()}, "x")')


def _filter_variants(node, top: bool = False):
    """Every text of ``node`` over its operand orders and operand swaps."""
    if node[0] == "text":
        yield node[1]
    elif node[0] == "pair":
        _, op, left, right = node
        for first, second in ((left, right), (right, left)):
            for a, b in itertools.product(_operand_texts(first), _operand_texts(second)):
                yield f"{a} {op} {b}"
    else:
        _, op, operands = node
        for order in itertools.permutations(operands):
            for texts in itertools.product(*(list(_filter_variants(o)) for o in order)):
                body = f" {op} ".join(texts)
                yield body if top else f"({body})"


def _operand_texts(operand) -> list[str]:
    """The texts of a comparison's operand: a term, or a nested ``pair``
    node in brackets."""
    if type(operand) is str:
        return [operand]
    return [f"({text})" for text in _filter_variants(operand)]


def test_filter_operand_kinds_keep_global_minimum():
    rng = random.Random(1212)
    for _ in range(1000):
        operands = []
        for _ in range(rng.randint(2, 3)):
            nested = not any(o[0] == "seq" for o in operands)
            operands.append(_filter_operand(rng, "abcd", nested))
        expr = ("seq", rng.choice(("&&", "||")), operands)
        query = "ASK {{ ?a ex:p ?b . FILTER({}) }}"
        texts = list(_filter_variants(expr, top=True))
        want = min(render_in_source_order(parse_query(query.format(t), PREFIXES))
                   for t in texts)
        for text in (texts[0], rng.choice(texts)):
            assert canonicalize(parse_query(query.format(text), PREFIXES)).skeleton \
                == want, text


# ---------------------------------------------------------------------------
# comparisons decided by their text: operands whose renderings begin with
# different characters under every naming are put in order during
# abstraction, and the search never tries the other order

# one or more operands per first character a rendering can begin with: a
# variable renders from ``?``, a blank from ``_``, a placeholder, a domain
# IRI and every literal from ``:``, a reserved name from its own first letter
_COMPARED = ["?x", "?y", "$p", "_:b", "_:z", "owl:Nothing", "rdf:type", "ex:C", "ex:D",
             '"a"', '"1"^^xsd:integer', '"a"@en']
# two triples that render alike, so two naming states tie until the FILTER
_COMPARED_BGP = ["?x ex:p _:b .", "?y ex:p _:z ."]
_COMPARED_TERM = re.compile(r'(\?\w+|\$\w+|_:\w+|"[^"]*"(?:\^\^xsd:\w+|@\w+)?|\w+:\w+)')


def _comparison_tree(rng: random.Random):
    """A FILTER ``&&``/``||`` tree in the node format of ``_filter_operand``:
    two or three ``=``/``!=`` operands, at most one of them a nested tree."""
    def pair():
        return ("pair", rng.choice(("=", "!=")), rng.choice(_COMPARED), rng.choice(_COMPARED))
    operands = [pair() for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.4:
        operands[-1] = ("seq", rng.choice(("&&", "||")), [pair(), pair()])
    return ("seq", rng.choice(("&&", "||")), operands)


def _compared_query(triples, filter_text: str) -> QueryAst:
    return parse_query(f"SELECT * WHERE {{ {' '.join(triples)} FILTER({filter_text}) }}",
                       PREFIXES)


def _renamed(text: str, rng: random.Random) -> str:
    """``text`` with every variable, placeholder, blank and domain IRI given
    a fresh name, the same name for each occurrence."""
    names: dict = {}

    def fresh(match):
        term = match[0]
        for head in ("?", "$", "_:", "ex:"):
            if term.startswith(head):
                if term not in names:
                    names[term] = f"{head}{rng.choice(string.ascii_lowercase)}{len(names)}"
                return names[term]
        return term
    return _COMPARED_TERM.sub(fresh, text)


def _source_order_pattern(filter_text: str) -> str:
    """A regex for the FILTER line that renders ``filter_text`` with every
    operand where the text has it."""
    def abstracted(term: str) -> str:
        if term[0] == "?":
            return r"\?v\d+"
        if term.startswith("_:"):
            return r"_:b\d+"
        if term[0] == '"':
            return re.escape(":LIT" + (term.split('"')[2] if "^^" in term else ""))
        if term[0] == "$" or term.startswith("ex:"):
            return ":URI"
        return re.escape(term)
    pieces = _COMPARED_TERM.split(filter_text)
    return r"\nFILTER\(" + "".join(
        abstracted(piece) if i % 2 else re.escape(piece)
        for i, piece in enumerate(pieces)) + r"\)\n"


def test_decided_comparisons_keep_global_minimum():
    rng = random.Random(2020)
    for _ in range(60):
        tree = _comparison_tree(rng)
        texts = list(_filter_variants(tree, top=True))
        want = min(render_in_source_order(_compared_query(triples, text))
                   for triples in itertools.permutations(_COMPARED_BGP) for text in texts)
        source = _compared_query(_COMPARED_BGP, texts[0])
        assert canonicalize(source).skeleton == want, texts[0]
        if all(operand[0] == "pair" for operand in tree[2]) and tree[1] == "&&":
            assert _oracle_minimum(source) == want
        # any operand order, conjunct order, triple order and naming
        for _ in range(3):
            text = _renamed(" ".join(rng.sample(_COMPARED_BGP, 2))
                            + " FILTER(" + rng.choice(texts) + ")", rng)
            ast = parse_query(f"SELECT * WHERE {{ {text} }}", PREFIXES)
            assert canonicalize(ast).skeleton == want, text
        # without search, every operand stays where the text has it
        for text in (texts[0], rng.choice(texts)):
            rendered = render_in_source_order(_compared_query(_COMPARED_BGP, text))
            assert re.search(_source_order_pattern(text), rendered), (text, rendered)


def test_bundled_queries_branch_total(bundle):
    # the exact work of the search on the bundled corpus, where 51 queries
    # hold a comparison decided by its text and 2 an undecided one, searched
    # as a sequence of two operands
    assert len(bundle.asts) == 131
    assert sum(_branches(ast) for ast in bundle.asts.values()) == 751


# ---------------------------------------------------------------------------
# nested comparisons: a comparison or IN that is an operand of a comparison,
# IN or arithmetic keeps its brackets, so each skeleton is itself a query

_NESTED_TERMS = ["?a", "?b", "?c", "?d", "ex:C", '"x"']
_NESTED_BGP = ["?a ex:p ?b .", "?c ex:p ?d ."]
# comparisons and IN in every operand position that needs brackets
_NESTED_BY_HAND = ["(?a = ?b) = ?c", "?a = (?b = ?c)", "(?a != ?b) != (?c != ?b)",
                   "?a != (?b != (?b != ?c))", "((?a = ?b)) = ?c",
                   "(?a IN (?b, ex:C)) = ?c", "(?a = ?b) IN (?c, ex:C)",
                   "(?a IN (?b)) IN (?c, ?d = ex:C)", "(?a = ?b) + ?c = ?d",
                   "?a - (?b IN (?c)) != ?d"]


def _nested_comparison(rng: random.Random, depth: int = 3):
    """An ``=``/``!=`` tree of at most ``depth`` levels in the node format
    of ``_filter_operand``: each operand is a term or such a tree."""
    def operand():
        if depth > 1 and rng.random() < 0.4:
            return _nested_comparison(rng, depth - 1)
        return rng.choice(_NESTED_TERMS)
    return ("pair", rng.choice(("=", "!=")), operand(), operand())


def _nested_comparisons(rng: random.Random, count: int) -> list:
    """``count`` trees of ``_nested_comparison``, each nesting one at least."""
    trees = []
    while len(trees) < count:
        tree = _nested_comparison(rng)
        if type(tree[2]) is tuple or type(tree[3]) is tuple:
            trees.append(tree)
    return trees


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


def test_nested_comparisons_keep_global_minimum():
    rng = random.Random(2121)
    for tree in _nested_comparisons(rng, 250):
        texts = list(_filter_variants(tree, top=True))
        want = min(render_in_source_order(_compared_query(triples, text))
                   for triples in itertools.permutations(_NESTED_BGP) for text in texts)
        for text in (texts[0], rng.choice(texts)):
            assert canonicalize(_compared_query(_NESTED_BGP, text)).skeleton == want, text


def _gen_queries() -> list[QueryAst]:
    """The adversarial queries that ``perfbench/gen.py`` makes for seeds 1
    and 2, the generator loaded from its file as the benchmark has it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [parse_query(record["text"]) for seed in (1, 2)
            for queries in gen.adversarial_set(seed) for record in queries]


def _filter_operand_queries(rng: random.Random, count: int) -> list[QueryAst]:
    """Queries whose FILTER is an ``&&``/``||`` of ``_filter_operand`` trees,
    built as ``test_filter_operand_kinds_keep_global_minimum`` builds them."""
    queries = []
    for _ in range(count):
        operands = []
        for _ in range(rng.randint(2, 3)):
            nested = not any(o[0] == "seq" for o in operands)
            operands.append(_filter_operand(rng, "abcd", nested))
        text = next(_filter_variants(("seq", rng.choice(("&&", "||")), operands), top=True))
        queries.append(parse_query(f"ASK {{ ?a ex:p ?b . FILTER({text}) }}", PREFIXES))
    return queries


def _fixed_point_inputs(family: str, request) -> list[QueryAst]:
    if family == "bundled":
        return list(request.getfixturevalue("bundle").asts.values())
    if family == "gen":
        return _gen_queries()
    if family == "random ast":
        rng = random.Random(5)
        return [_random_ast(rng) for _ in range(1500)]
    if family == "filter operands":
        return _filter_operand_queries(random.Random(33), 1000)
    if family == "rdf:type":
        return [parse_query(text, PREFIXES) for text in _RDF_TYPE_OUTSIDE_A_VERB]
    texts = _NESTED_BY_HAND + [next(_filter_variants(tree, top=True))
                               for tree in _nested_comparisons(random.Random(21), 200)]
    return [_compared_query(_NESTED_BGP, text) for text in texts]


# a skeleton writes rdf:type as ``a`` only where SPARQL admits ``a``: as a verb
_RDF_TYPE_OUTSIDE_A_VERB = [
    "ASK { ?x ex:p rdf:type . FILTER(?x = rdf:type) }",
    "ASK { rdf:type a ?c ; rdfs:subClassOf* rdf:type }",
    "ASK { ?x ex:p ( rdf:type ?y ), [ rdf:type ex:C ] . BIND(rdf:type AS ?t) }",
    'ASK { ?x ex:p/rdf:type "1"^^rdf:type FILTER(rdf:type IN (?x, rdf:type)) }',
]


@pytest.mark.parametrize("family", ["bundled", "gen", "random ast", "filter operands",
                                    "nested", "rdf:type"])
def test_skeleton_is_a_query_that_canonicalizes_to_itself(family, request):
    # each :LIT is written as a literal, keeping its datatype, and only ``:``
    # is declared: the parser knows the reserved prefixes
    for ast in _fixed_point_inputs(family, request):
        skeleton = canonicalize(ast).skeleton
        again = parse_query(skeleton.replace(":LIT", '"LIT"'),
                            {"": "http://example.org/skeleton#"})
        assert canonicalize(again).skeleton == skeleton, skeleton
