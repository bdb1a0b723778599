"""One ``hypothesis`` strategy over the query AST, and the renamer and the
enumerator that the canonicalizer's properties are stated with.

``queries()`` draws the ASTs that ``parse_query`` builds: every record
class of ``cqowl.queryparse``, every literal form, each ``[ … ]`` and ``[]``
numbered in the order it is written, and a group's adjacent triples in one
BGP.  A drawn query reads back from its serialization under ``PREFIXES``.
``rename_terms`` changes a query only in what a signature ignores, and
``orders`` lists the forms of a query that the canonicalizer's search
chooses among, so ``oracle_minimum`` finds the least skeleton by brute force.
"""
from __future__ import annotations

import itertools
import math
import random

from hypothesis import strategies as st

from cqowl.queryparse import (
    STAR, WELL_KNOWN_PREFIXES, And, AnonBlank, Arith, Bgp, Bind, BlankNodeLabel,
    BlankPropertyList, Collection, Compare, Filter, FnCall, Group, In, Iri, Literal,
    NotExists, Or, PathSequence, PathZeroOrMore, PrefixedName, QueryAst, TermRef,
    TriplePattern, UnionPattern, Variable, vocabulary_name,
)
from cqowl.records import Record
from cqowl.signatures import render_in_source_order

XSD = WELL_KNOWN_PREFIXES["xsd"]
# the table a drawn query is read under; its own PREFIX lines override it
PREFIXES = {"ex": "http://example.org/ns#", "": "http://example.org/default#"}
_DECLARATIONS = (("ex", PREFIXES["ex"]), ("ex", "http://example.org/other#"),
                 ("", "http://example.org/other#"), ("xsd", "http://example.org/xsd#"))

# What each position draws from, one draw each: a term; a prefixed name as
# ``(prefix, local)``, read under the query's table; or the name of a node,
# literal, path or expression operator that takes further draws.
_NAMES = (("ex", "C"), ("ex", "p"), ("", "D"), ("rdf", "type"), ("rdfs", "subClassOf"),
          ("owl", "Nothing"), ("xsd", "integer"))
_IRIS = tuple(map(Iri, ("http://example.org/x", WELL_KNOWN_PREFIXES["rdf"] + "type",
                        WELL_KNOWN_PREFIXES["owl"] + "Thing", XSD + "dateTime")))
_VARIABLES = (Variable("a"), Variable("b"), Variable("c"), Variable("p", "$"))
_VERBS = _VARIABLES + _IRIS + _NAMES
_STEPS = _VERBS + ("*",)
_PREDICATES = _STEPS + ("/",)
_SUBJECTS = _VERBS + _VARIABLES[:2] + (BlankNodeLabel("b1"), BlankNodeLabel("b2"))
# every literal written without quotes, unsigned and signed
SHORT_FORMS = tuple(Literal(lexical, PrefixedName("xsd", local, XSD)) for local, forms in (
    ("integer", ("0", "42", "+1", "-7")), ("decimal", ("1.5", ".5", "+2.0", "-0.25")),
    ("double", ("1e3", "1.5E-2", "+.5e1", "-2e+0")), ("boolean", ("true", "false")))
    for lexical in forms)
_OPERANDS = _SUBJECTS + SHORT_FORMS + ("quoted",) * 6
_NODES = ("[]", "[ … ]", "( … )") * 2
_OBJECTS = _OPERANDS + _NODES
_OPERATORS = ("term", "term", "=", "!=", "&&", "||", "IN", "+", "-", "call")
_QUOTED = ("", "a", 'say "hi"', "it's", "back\\slash", "line\nfeed\ttab", "é")
_CALLS = ("STRSTARTS", "now") + _NAMES + _IRIS


class _Draw:
    """The parts of one query, drawn in the order they are written, so that
    each ``[ … ]`` and ``[]`` takes the id its parse gives it.

    Each choice reads one byte of a fixed-length string that hypothesis
    draws: byte ``b`` picks option ``b`` mod ``n``, and past the end of the
    string every choice is the first option, the simplest, as a zero byte
    is.  So hypothesis shrinks a query by lowering bytes, and makes one draw
    per query.  One ``draw(st.sampled_from(...))`` per choice instead made
    the property tests of the parser and the canonicalizer take 18 s in
    place of 11 s on two vCPUs, the whole suite about a third slower.
    """

    def __init__(self, data: bytes):
        self.bytes = iter(data)
        self.table = {**WELL_KNOWN_PREFIXES, **PREFIXES}
        self.ids = itertools.count()

    def pick(self, options: tuple):
        return options[next(self.bytes, 0) % len(options)]

    def some(self, part, low: int, high: int) -> tuple:
        return tuple(part() for _ in range(low + next(self.bytes, 0) % (high - low + 1)))

    def term(self, choice):
        """``choice`` as a term: a prefixed name is read under the query's
        table, and "quoted" draws a quoted literal."""
        if type(choice) is tuple:
            return PrefixedName(*choice, self.table[choice[0]])
        if choice != "quoted":
            return choice
        lexical, kind = self.pick(_QUOTED), self.pick(("plain", "lang", "typed"))
        if kind == "typed":
            return Literal(lexical, self.term(self.pick(_NAMES + _IRIS)))
        return Literal(lexical, lang=self.pick(("en", "de-DE")) if kind == "lang" else None)

    def node(self, depth: int, options: tuple = _OBJECTS):
        node = self.pick(options)
        if node == "( … )" and depth:
            return Collection(self.some(lambda: self.node(depth - 1), 0, 2))
        if node not in _NODES:
            return self.term(node)
        anon_id = next(self.ids)
        if node == "[ … ]" and depth:
            return BlankPropertyList(self.some(lambda: self.pair(depth - 1), 1, 2), anon_id)
        return AnonBlank(anon_id)

    def predicate(self, options: tuple = _PREDICATES):
        verb = self.pick(options)
        if verb == "/":
            return PathSequence(self.some(lambda: self.predicate(_STEPS), 2, 3))
        return PathZeroOrMore(self.term(self.pick(_VERBS))) if verb == "*" else self.term(verb)

    def pair(self, depth: int) -> tuple:
        return self.predicate(), self.some(lambda: self.node(depth), 1, 2)

    def triples(self, depth: int) -> tuple:
        """A subject and its pairs; with at most three in a group, no BGP
        exceeds the canonicalizer's bound of 16 triples."""
        subject = self.node(depth, _SUBJECTS + _NODES)
        return self.some(lambda: TriplePattern(subject, *self.pair(depth)), 1, 2)

    def expr(self, depth: int):
        op = self.pick(_OPERATORS) if depth else "term"
        if op == "term":
            return TermRef(self.term(self.pick(_OPERANDS)))

        def sub():
            return self.expr(depth - 1)

        if op == "&&" or op == "||":
            return (And if op == "&&" else Or)(self.some(sub, 2, 3))
        if op == "IN":
            return In(sub(), self.some(sub, 1, 2))
        if op == "call":
            return FnCall(self.term(self.pick(_CALLS)), self.some(sub, 0, 2))
        return (Compare if op in ("=", "!=") else Arith)(op, sub(), sub())

    def group(self, depth: int) -> Group:
        items = []
        kinds = ("bgp", "bgp", "filter", "bind") + ("not exists", "union", "group") * (depth > 0)
        for kind in self.some(lambda: self.pick(kinds), 0, 3):
            if kind == "bgp":
                triples = self.triples(depth)
                if items and type(items[-1]) is Bgp:  # the parser reads them as one BGP
                    triples = items.pop().triples + triples
                items.append(Bgp(triples))
            elif kind == "filter":
                items.append(Filter(self.expr(2)))
            elif kind == "bind":
                items.append(Bind(self.expr(2), self.pick(_VARIABLES)))
            elif kind == "not exists":
                items.append(NotExists(self.group(depth - 1)))
            elif kind == "union":
                items.append(UnionPattern(self.group(depth - 1), self.group(depth - 1)))
            else:
                items.append(self.group(depth - 1))
        return Group(tuple(items))

    def query(self, depth: int) -> QueryAst:
        # a label declared twice keeps its first place and its last namespace
        declared = tuple(dict(self.some(lambda: self.pick(_DECLARATIONS), 0, 2)).items())
        self.table.update(declared)
        if self.pick(("SELECT", "ASK")) == "ASK":
            return QueryAst("ASK", False, None, self.group(depth), declared)
        projection = self.pick((STAR, "vars"))
        if projection == "vars":
            projection = self.some(lambda: self.pick(_VARIABLES), 1, 2)
        return QueryAst("SELECT", self.pick((False, True)), projection, self.group(depth),
                        declared)


def queries(depth: int = 2) -> st.SearchStrategy[QueryAst]:
    """Queries as the parser builds them, their groups nested ``depth`` deep."""
    return st.binary(min_size=128, max_size=128).map(lambda data: _Draw(data).query(depth))


def expressions(depth: int = 3) -> st.SearchStrategy:
    """Expressions as the parser builds them, at most ``depth`` operators deep."""
    return st.binary(min_size=48, max_size=48).map(lambda data: _Draw(data).expr(depth))


def rename_terms(ast: QueryAst, rng: random.Random) -> QueryAst:
    """``ast`` changed only in what its signature ignores: each variable
    (keeping its marker), blank label and non-reserved IRI renamed one to
    one, and BGP triples, the objects of each triple, ``&&``/``||`` operands
    and ``=``/``!=`` operands shuffled.  ``[ … ]`` pairs and objects, UNION
    operands, filter placement and ``IN`` options keep their order, as the
    xfail rows of ``test_signature_contract.py`` say they must today."""
    names: dict = {}

    def shuffled(items: tuple) -> tuple:
        return tuple(rng.sample(items, len(items)))

    def visit(node):
        if isinstance(node, tuple):
            return tuple(map(visit, node))
        kind = type(node)
        if kind is Variable or kind is BlankNodeLabel or \
                (kind is Iri or kind is PrefixedName) and vocabulary_name(node) is None:
            if node not in names:
                fresh = f"r{len(names)}x{rng.randint(0, 9)}"
                names[node] = Variable(fresh, node.marker) if kind is Variable else \
                    BlankNodeLabel(fresh) if kind is BlankNodeLabel else \
                    Iri("http://example.org/renamed/" + fresh) if kind is Iri else \
                    PrefixedName(node.prefix, fresh, node.namespace)
            return names[node]
        if not isinstance(node, Record):
            return node
        node = kind(*visit(node._astuple()))
        if kind is Bgp:
            return Bgp(shuffled(node.triples))
        if kind is TriplePattern:
            return TriplePattern(node.subject, node.predicate, shuffled(node.objects))
        if kind is And or kind is Or:
            return kind(shuffled(node.parts))
        if kind is Compare and rng.random() < 0.5:
            return Compare(node.op, node.right, node.left)
        return node

    return visit(ast)


def orders(node) -> list:
    """Every form of ``node`` whose source-order rendering the canonicalizer's
    search ranks: each order of a BGP's triples, written one object per
    triple, each order of the operands of every ``&&`` and ``||``, and both
    orders of every ``=`` and ``!=``."""
    if isinstance(node, tuple):
        return list(itertools.product(*map(orders, node)))
    if not isinstance(node, Record):
        return [node]
    kind = type(node)
    if kind is Bgp:
        single = [TriplePattern(t.subject, t.predicate, (o,)) for t in node.triples
                  for o in t.objects]
        return [Bgp(triples) for triples in itertools.permutations(single)]
    forms = [kind(*fields) for fields in orders(node._astuple())]
    if kind is And or kind is Or:
        return [kind(parts) for form in forms for parts in itertools.permutations(form.parts)]
    if kind is Compare:
        return forms + [Compare(form.op, form.right, form.left) for form in forms]
    return forms


def order_count(node) -> int:
    """``len(orders(node))``, without listing the orders."""
    if isinstance(node, tuple):
        return math.prod(map(order_count, node))
    if not isinstance(node, Record):
        return 1
    kind = type(node)
    if kind is Bgp:
        return math.factorial(sum(len(triple.objects) for triple in node.triples))
    count = order_count(node._astuple())
    if kind is And or kind is Or:
        return count * math.factorial(len(node.parts))
    return count * 2 if kind is Compare else count


def oracle_minimum(ast: QueryAst) -> str:
    """The least source-order rendering over ``orders(ast)``."""
    return min(map(render_in_source_order, orders(ast)))
