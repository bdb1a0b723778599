"""Parser, AST and serializer for the SPARQL-OWL subset used in CQ corpora.

The grammar is deliberately the closed subset observed in published CQ
translation datasets: SELECT/ASK queries whose WHERE clause mixes triple
patterns in Turtle syntax (blank-node property lists, object lists,
collections, labeled blanks), property paths built from ``/`` and ``*``,
FILTER / FILTER NOT EXISTS, BIND and UNION.  Anything outside that subset
(OPTIONAL, GROUP BY, subqueries, named graphs, ...) is a hard parse error:
the parser never skips syntax silently.

Placeholder variables written ``$name`` are accepted wherever ``?name``
variables are, as a lexical extension; the marker is preserved through
serialization.
"""
from __future__ import annotations

import re
from typing import Iterator, Optional, Union as TUnion

from .records import Record

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

WELL_KNOWN_PREFIXES = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "owl": OWL_NS,
    "xsd": XSD_NS,
}

# The default bound on the triples of one BGP that ``signatures``
# canonicalizes; it lives here so the CLI can name it without importing
# the canonicalizer.
DEFAULT_MAX_TRIPLES = 16


class QueryParseError(ValueError):
    """Lexical or grammatical error, carrying the source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class PrefixResolutionError(KeyError):
    """A prefixed name uses a prefix absent from the query's prefix table."""


# ---------------------------------------------------------------------------
# AST node types


class Iri(Record):
    value: str

    def __str__(self) -> str:
        return f"<{self.value}>"


class PrefixedName(Record):
    prefix: str
    local: str

    def __str__(self) -> str:
        return f"{self.prefix}:{self.local}"


class BlankNodeLabel(Record):
    label: str

    def __str__(self) -> str:
        return f"_:{self.label}"


class AnonBlank(Record):
    """A bare ``[]`` used as a term; ids are assigned in parse order."""

    anon_id: int

    def __str__(self) -> str:
        return "[]"


class Variable(Record):
    name: str
    marker: str = "?"  # "?" question variable, "$" placeholder variable

    def __str__(self) -> str:
        return f"{self.marker}{self.name}"


class Literal(Record):
    lexical: str
    datatype: Optional["Term"] = None
    lang: Optional[str] = None

    def __str__(self) -> str:
        out = '"%s"' % self.lexical.replace("\\", "\\\\").replace('"', '\\"')
        if self.datatype is not None:
            out += f"^^{self.datatype}"
        elif self.lang:
            out += f"@{self.lang}"
        return out


class KeywordA(Record):
    """The Turtle ``a`` abbreviation for rdf:type."""

    def __str__(self) -> str:
        return "a"


Term = TUnion[Iri, PrefixedName, BlankNodeLabel, AnonBlank, Variable, Literal, KeywordA]


class PathAtom(Record):
    term: Term

    def __str__(self) -> str:
        return str(self.term)


class PathZeroOrMore(Record):
    inner: "PropertyPath"

    def __str__(self) -> str:
        return f"{self.inner}*"


class PathSequence(Record):
    parts: tuple["PropertyPath", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("path sequence needs at least two parts")

    def __str__(self) -> str:
        return "/".join(str(p) for p in self.parts)


PropertyPath = TUnion[PathAtom, PathZeroOrMore, PathSequence]


class Collection(Record):
    items: tuple["Node", ...]


class BlankPropertyList(Record):
    """``[ p1 o1, o2 ; p2 o3 ]`` — predicate/object-list pairs."""

    pairs: tuple[tuple[TUnion[Term, PropertyPath], tuple["Node", ...]], ...]


Node = TUnion[Term, Collection, BlankPropertyList]


class TriplePattern(Record):
    """One subject/predicate with its full object list (``,`` kept intact)."""

    subject: Node
    predicate: TUnion[Term, PropertyPath]
    objects: tuple[Node, ...]


# Expressions -----------------------------------------------------------------


class Compare(Record):
    op: str  # "=" or "!="
    left: "Expr"
    right: "Expr"


class And(Record):
    parts: tuple["Expr", ...]


class Or(Record):
    parts: tuple["Expr", ...]


class In(Record):
    needle: "Expr"
    options: tuple["Expr", ...]

    def __post_init__(self):
        if not self.options:
            raise ValueError("IN list must be nonempty")


class FnCall(Record):
    name: TUnion[str, Term]  # builtin name ("STRSTARTS", "now") or a cast term
    args: tuple["Expr", ...]


class Arith(Record):
    op: str  # "+" or "-"
    left: "Expr"
    right: "Expr"


class TermRef(Record):
    term: Term


class Paren(Record):
    inner: "Expr"


Expr = TUnion[Compare, And, Or, In, FnCall, Arith, TermRef, Paren]


# Graph patterns ---------------------------------------------------------------


class Bgp(Record):
    triples: tuple[TriplePattern, ...]


class Filter(Record):
    expr: Expr


class NotExists(Record):
    """``FILTER NOT EXISTS { ... }`` modeled as its own pattern node."""

    pattern: "Group"


class Bind(Record):
    expr: Expr
    var: Variable


class UnionPattern(Record):
    left: "Group"
    right: "Group"


class Group(Record):
    items: tuple["GraphPattern", ...]


GraphPattern = TUnion[Bgp, Filter, NotExists, Bind, UnionPattern, Group]


STAR = "*"


class QueryAst(Record):
    verb: str  # "SELECT" or "ASK"
    distinct: bool
    projection: TUnion[str, tuple[Variable, ...], None]  # STAR, vars, or None for ASK
    where: Group
    prefix_table: tuple[tuple[str, str], ...] = ()
    # the query's own PREFIX declarations, in order; serialization writes them
    declared_prefixes: tuple[tuple[str, str], ...] = ()

    def prefixes(self) -> dict[str, str]:
        return dict(self.prefix_table)


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_SPEC = [
    ("COMMENT", r"#[^\n]*"),
    ("IRIREF", r"<[^<>\"{}|^`\\\s]*>"),
    ("VAR", r"[?$][A-Za-z_][A-Za-z_0-9]*"),
    ("BLANK", r"_:[A-Za-z_0-9]+"),
    ("STRING", r'"(?:[^"\\]|\\.)*"'),
    ("PNAME", r"[A-Za-z_][A-Za-z_0-9.-]*:[A-Za-z_0-9](?:[A-Za-z_0-9.-]*[A-Za-z_0-9-])?"),
    ("PNAMENS", r"[A-Za-z_][A-Za-z_0-9.-]*:"),
    ("COLONNAME", r":[A-Za-z_0-9](?:[A-Za-z_0-9.-]*[A-Za-z_0-9-])?"),
    ("INTEGER", r"[0-9]+"),
    ("NAME", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("LANG", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("OP", r"!=|=|&&|\|\||\^\^|[{}()\[\].;,/*+:-]"),
    ("WS", r"[ \t\r\n]+"),
    ("BAD", r"."),  # any other character; a newline is always WS
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_SPEC))

_KEYWORDS = {
    "select", "ask", "where", "distinct", "filter", "bind", "union",
    "not", "exists", "in", "as", "prefix",
}


def _error_at(text: str, offset: int, message: str) -> QueryParseError:
    """A :class:`QueryParseError` at character ``offset`` of ``text``."""
    line = text.count("\n", 0, offset) + 1
    return QueryParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tokens ending in an ``EOF`` token.

    An operator's kind is its text, and a keyword's kind and text are the
    upper-cased word, so the parser tests the kind alone.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind == "WS" or kind == "COMMENT":
            continue
        if kind == "OP":
            kind = value
        elif kind == "NAME" and value.lower() in _KEYWORDS:
            kind = value = value.upper()
        elif kind == "BAD":
            raise _error_at(text, m.start(), f"unexpected character {value!r}")
        tokens.append((kind, value, m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_BUILTIN_FNS = {"strstarts": "STRSTARTS", "now": "now"}


class _Parser:
    def __init__(self, text: str, prefixes: dict[str, str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes = dict(prefixes)
        self.declared: dict[str, str] = {}
        self.anon_counter = 0

    # token helpers --------------------------------------------------------

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def accept(self, kind: str) -> Optional[tuple[str, str, int]]:
        """The current token if it is of ``kind``, consumed; else None."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, message: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.accept(kind)
        if tok is None:
            shown = kind if kind.isalpha() else repr(kind)
            raise self.error(message or f"expected {shown}")
        return tok

    def error(self, message: str) -> QueryParseError:
        _, value, offset = self.tokens[self.pos]
        shown = value or "end of input"
        return _error_at(self.text, offset, f"{message}, found {shown!r}")

    # grammar --------------------------------------------------------------

    def parse_query(self) -> QueryAst:
        while self.accept("PREFIX"):
            label = self._parse_prefix_label()
            iri = self.expect("IRIREF", "expected namespace IRI in PREFIX declaration")
            self.prefixes[label] = self.declared[label] = iri[1][1:-1]

        verb = self.accept("SELECT") or self.accept("ASK")
        if verb is None:
            raise self.error("expected SELECT or ASK")
        distinct, projection = False, None
        if verb[0] == "SELECT":
            distinct = self.accept("DISTINCT") is not None
            projection = self._parse_projection()
            self.expect("WHERE")
        else:
            self.accept("WHERE")
        where = self._parse_group()
        if not self.at("EOF"):
            raise self.error("unexpected trailing content")
        return QueryAst(verb[0], distinct, projection, where,
                        tuple(sorted(self.prefixes.items())),
                        tuple(self.declared.items()))

    def _parse_prefix_label(self) -> str:
        tok = self.accept("PNAMENS") or self.accept(":")
        if tok is None:
            raise self.error("expected a prefix label like 'ex:'")
        return tok[1][:-1]

    def _parse_projection(self):
        if self.accept("*"):
            return STAR
        vars_: list[Variable] = []
        while self.at("VAR"):
            vars_.append(self._parse_term())
        if not vars_:
            raise self.error("expected '*' or at least one variable after SELECT")
        return tuple(vars_)

    def _parse_group(self) -> Group:
        self.expect("{")
        items: list[GraphPattern] = []
        triples: list[TriplePattern] = []

        def flush():
            nonlocal triples
            if triples:
                items.append(Bgp(tuple(triples)))
                triples = []

        while not self.accept("}"):
            if self.at("EOF"):
                raise self.error("unterminated group, expected '}'")
            if self.accept("FILTER"):
                flush()
                if self.accept("NOT"):
                    self.expect("EXISTS")
                    items.append(NotExists(self._parse_group()))
                else:
                    items.append(Filter(self._parse_primary()))
            elif self.accept("BIND"):
                flush()
                self.expect("(")
                expr = self._parse_expr()
                self.expect("AS")
                if not self.at("VAR"):
                    raise self.error("expected variable after AS")
                var = self._parse_term()
                self.expect(")")
                items.append(Bind(expr, var))
            elif self.at("{"):
                flush()
                node: GraphPattern = self._parse_group()
                while self.accept("UNION"):
                    right = self._parse_group()
                    node = UnionPattern(node if isinstance(node, Group) else Group((node,)), right)
                items.append(node)
            elif self.at("SELECT") or self.at("ASK"):
                raise self.error("subqueries are outside the supported subset")
            else:
                triples.extend(self._parse_triples_block())
            self.accept(".")
        flush()
        return Group(tuple(items))

    def _separated(self, parse_item, sep: str) -> list:
        """``item (sep item)*``."""
        items = [parse_item()]
        while self.accept(sep):
            items.append(parse_item())
        return items

    def _nary(self, node_type, sep: str, parse_part):
        """A separated list of parts, as ``node_type(parts)`` when there are two or more."""
        parts = self._separated(parse_part, sep)
        return parts[0] if len(parts) == 1 else node_type(tuple(parts))

    # triples ---------------------------------------------------------------

    def _parse_triples_block(self) -> list[TriplePattern]:
        subject = self._parse_node(allow_literal=False)
        triples: list[TriplePattern] = []
        while not (self.at("}") or self.at(".") or self.at("EOF")):
            triples.append(TriplePattern(subject, *self._parse_predicate_objects()))
            # a trailing ';' before '.' or '}' is tolerated
            if not self.accept(";"):
                break
        if not triples:
            raise self.error("expected predicate after subject")
        return triples

    def _parse_predicate_objects(self) -> tuple[TUnion[Term, PropertyPath], tuple[Node, ...]]:
        """One predicate with its comma-separated object list."""
        predicate = self._parse_predicate()
        return predicate, tuple(self._separated(self._parse_node, ","))

    def _parse_predicate(self) -> TUnion[Term, PropertyPath]:
        path = self._nary(PathSequence, "/", self._parse_path_elt)
        return path.term if isinstance(path, PathAtom) else path

    def _parse_path_elt(self) -> PropertyPath:
        kind, value, _ = self.tokens[self.pos]
        if kind not in ("IRIREF", "PNAME", "COLONNAME", "VAR") and \
                (kind, value) != ("NAME", "a"):
            raise self.error("expected predicate")
        atom = PathAtom(self._parse_term())
        return PathZeroOrMore(atom) if self.accept("*") else atom

    def _parse_node(self, allow_literal: bool = True) -> Node:
        if self.at("["):
            return self._parse_blank_property_list()
        if self.at("("):
            return self._parse_collection()
        if not allow_literal and (self.at("STRING") or self.at("INTEGER")):
            raise self.error("literal not allowed in subject position")
        return self._parse_term()

    def _parse_blank_property_list(self) -> Node:
        self.expect("[")
        pairs = []
        while not self.accept("]"):
            if self.at("EOF"):
                raise self.error("unterminated blank node property list")
            pairs.append(self._parse_predicate_objects())
            self.accept(";")
        if pairs:
            return BlankPropertyList(tuple(pairs))
        self.anon_counter += 1
        return AnonBlank(self.anon_counter - 1)

    def _parse_collection(self) -> Collection:
        self.expect("(")
        items: list[Node] = []
        while not self.accept(")"):
            if self.at("EOF"):
                raise self.error("unterminated collection")
            items.append(self._parse_node())
        return Collection(tuple(items))

    def _parse_term(self) -> Term:
        kind, value, offset = self.tokens[self.pos]
        if kind in ("PNAME", "COLONNAME"):
            prefix, local = value.split(":", 1)
            if prefix not in self.prefixes:
                raise _error_at(self.text, offset,
                                f"prefix {prefix!r} of {value!r} is not declared")
            self.pos += 1
            return PrefixedName(prefix, local)
        if kind == "IRIREF":
            self.pos += 1
            return Iri(value[1:-1])
        if kind == "VAR":
            self.pos += 1
            return Variable(value[1:], value[0])
        if kind == "BLANK":
            self.pos += 1
            return BlankNodeLabel(value[2:])
        if kind == "NAME" and value == "a":
            self.pos += 1
            return KeywordA()
        if kind == "INTEGER":
            self.pos += 1
            return Literal(value, datatype=PrefixedName("xsd", "integer"))
        if kind != "STRING":
            raise self.error("expected a term")
        self.pos += 1
        lexical = _unescape_string(value[1:-1])
        if self.accept("^^"):
            if not (self.at("IRIREF") or self.at("PNAME") or self.at("COLONNAME")):
                raise self.error("expected datatype after '^^'")
            return Literal(lexical, datatype=self._parse_term())
        lang = self.accept("LANG")
        return Literal(lexical, lang=lang[1][1:]) if lang else Literal(lexical)

    # expressions -------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._nary(Or, "||", self._parse_and)

    def _parse_and(self) -> Expr:
        return self._nary(And, "&&", self._parse_relational)

    def _parse_relational(self) -> Expr:
        left = self._parse_additive()
        op = self.accept("=") or self.accept("!=")
        if op:
            return Compare(op[0], left, self._parse_additive())
        if self.accept("IN"):
            self.expect("(")
            options = self._separated(self._parse_expr, ",")
            self.expect(")")
            return In(left, tuple(options))
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_primary()
        while op := self.accept("+") or self.accept("-"):
            left = Arith(op[0], left, self._parse_primary())
        return left

    def _parse_primary(self) -> Expr:
        kind, value, _ = self.tokens[self.pos]
        if self.accept("("):
            inner = self._parse_expr()
            self.expect(")")
            return Paren(inner)
        if kind == "NAME" and value.lower() in _BUILTIN_FNS:
            self.pos += 1
            return self._parse_call(_BUILTIN_FNS[value.lower()])
        if kind in ("PNAME", "COLONNAME") and self.tokens[self.pos + 1][0] == "(":
            return self._parse_call(self._parse_term())
        return TermRef(self._parse_term())

    def _parse_call(self, name) -> FnCall:
        self.expect("(")
        args = [] if self.at(")") else self._separated(self._parse_expr, ",")
        self.expect(")")
        return FnCall(name, tuple(args))


def _unescape_string(raw: str) -> str:
    return (
        raw.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace("\x00", "\\")
    )


def parse_query(text: str, prefixes: Optional[dict[str, str]] = None) -> QueryAst:
    """Parse a SPARQL-OWL query into a :class:`QueryAst`.

    ``prefixes`` supplies the namespace table when the query text omits its
    PREFIX preamble (the usual case for per-ontology corpora); declarations
    in the text extend and override it.
    """
    if not text.strip():
        raise QueryParseError("empty query text", 1, 1)
    table = dict(WELL_KNOWN_PREFIXES)
    if prefixes:
        table.update(prefixes)
    return _Parser(text, table).parse_query()


# ---------------------------------------------------------------------------
# Serializer


def serialize_query(ast: QueryAst) -> str:
    """Pretty-print an AST; ``parse(serialize(ast))`` is structurally equal.

    The query's own PREFIX declarations are written; prefixes it took from
    an external table must be passed to the parse again.
    """
    lines = [f"PREFIX {label}: <{iri}>" for label, iri in ast.declared_prefixes]
    if ast.verb == "SELECT":
        head = "SELECT"
        if ast.distinct:
            head += " DISTINCT"
        if ast.projection == STAR:
            head += " *"
        else:
            head += " " + " ".join(str(v) for v in ast.projection or ())
        lines.append(head)
    else:
        lines.append("ASK")
    lines.append("WHERE " + _render_group(ast.where, 0))
    return "\n".join(lines) + "\n"


def _render_group(group: Group, depth: int) -> str:
    pad = "    " * (depth + 1)
    out = ["{"]
    for item in group.items:
        out.append(_render_pattern(item, depth + 1, pad))
    out.append("    " * depth + "}")
    return "\n".join(out)


def _render_pattern(item: GraphPattern, depth: int, pad: str) -> str:
    if isinstance(item, Bgp):
        return "\n".join(pad + line for line in _render_bgp(item, depth))
    if isinstance(item, Filter):
        # a bare name would run on into a collection subject after it and
        # re-parse as a function call, so only a closing ")" may end it
        expr = _render_expr(item.expr)
        return pad + "FILTER " + expr + ("" if expr.endswith(")") else " .")
    if isinstance(item, NotExists):
        return pad + "FILTER NOT EXISTS " + _render_group(item.pattern, depth)
    if isinstance(item, Bind):
        return pad + f"BIND({_render_expr(item.expr)} AS {item.var})"
    if isinstance(item, UnionPattern):
        left = _render_group(item.left, depth)
        right = _render_group(item.right, depth)
        return pad + left + " UNION " + right
    if isinstance(item, Group):
        return pad + _render_group(item, depth)
    raise TypeError(f"unknown graph pattern node {item!r}")


def _render_bgp(bgp: Bgp, depth: int) -> list[str]:
    lines: list[str] = []
    i = 0
    triples = bgp.triples
    while i < len(triples):
        subject = triples[i].subject
        run = [triples[i]]
        j = i + 1
        while j < len(triples) and triples[j].subject == subject:
            run.append(triples[j])
            j += 1
        subj_text = _render_node(subject, depth)
        parts = [_render_pair(t.predicate, t.objects, depth) for t in run]
        lines.append(subj_text + " " + " ; ".join(parts) + " .")
        i = j
    return lines


def _render_pair(predicate, objects: tuple[Node, ...], depth: int) -> str:
    return f"{predicate} " + ", ".join(_render_node(o, depth) for o in objects)


def _render_node(node: Node, depth: int) -> str:
    if isinstance(node, BlankPropertyList):
        inner_pad = "    " * (depth + 1)
        parts = [inner_pad + _render_pair(pred, objects, depth + 1)
                 for pred, objects in node.pairs]
        return "[\n" + " ;\n".join(parts) + "\n" + "    " * depth + "]"
    if isinstance(node, Collection):
        return "( " + " ".join(_render_node(i, depth) for i in node.items) + " )"
    return str(node)


def _render_expr(expr: Expr) -> str:
    if isinstance(expr, Paren):
        return "(" + _render_expr(expr.inner) + ")"
    if isinstance(expr, Compare):
        return f"{_render_expr(expr.left)} {expr.op} {_render_expr(expr.right)}"
    if isinstance(expr, And):
        return " && ".join(_render_expr(p) for p in expr.parts)
    if isinstance(expr, Or):
        return " || ".join(_render_expr(p) for p in expr.parts)
    if isinstance(expr, In):
        opts = ", ".join(_render_expr(o) for o in expr.options)
        return f"{_render_expr(expr.needle)} IN ({opts})"
    if isinstance(expr, FnCall):
        name = expr.name if isinstance(expr.name, str) else str(expr.name)
        args = ", ".join(_render_expr(a) for a in expr.args)
        return f"{name}({args})"
    if isinstance(expr, Arith):
        return f"{_render_expr(expr.left)} {expr.op} {_render_expr(expr.right)}"
    if isinstance(expr, TermRef):
        return str(expr.term)
    raise TypeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# Keyword analytics


KEYWORD_INVENTORY = (
    "WHERE",
    "rdfs:subClassOf",
    "SELECT",
    "owl:onProperty",
    "owl:someValuesFrom",
    "rdf:type / a",
    "DISTINCT",
    "owl:Restriction",
    "FILTER",
    "owl:Nothing",
    "ASK",
    "owl:hasValue",
    "NOT EXISTS",
    "owl:intersectionOf",
    "owl:unionOf",
    "UNION",
    "owl:disjointWith",
    "owl:allValuesFrom",
    "owl:cardinality",
    "rdf:first",
    "rdf:rest",
)

# resolved IRI -> vocabulary keyword; "rdf:type / a" is matched by rdf:type,
# which the Turtle ``a`` also resolves to
_KEYWORD_OF_IRI = {
    WELL_KNOWN_PREFIXES[prefix] + local: keyword
    for keyword in KEYWORD_INVENTORY
    for prefix, colon, local in [keyword.split()[0].partition(":")]
    if colon
}
_RDF_TYPE_IRI = RDF_NS + "type"
# structural keywords, by the graph pattern node that shows them
_KEYWORDS_OF_NODE = {
    Filter: ("FILTER",),
    NotExists: ("FILTER", "NOT EXISTS"),
    UnionPattern: ("UNION",),
}


def resolve_term(term: Term, prefixes: dict[str, str]) -> Optional[str]:
    """Resolve an IRI-valued term to its absolute IRI, or None for non-IRIs."""
    if isinstance(term, Iri):
        return term.value
    if isinstance(term, PrefixedName):
        ns = prefixes.get(term.prefix)
        if ns is None:
            raise PrefixResolutionError(
                f"prefix {term.prefix!r} is not declared for this query"
            )
        return ns + term.local
    if isinstance(term, KeywordA):
        return _RDF_TYPE_IRI
    return None


def _walk(node) -> Iterator:
    """Every AST node reachable from ``node``, itself included, in no fixed order.

    Nodes are the records of this module; tuples of them are descended
    into and plain values (strings, flags, ``None``) are skipped.
    """
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif isinstance(item, Record):
            yield item
            stack.extend(item._astuple())


def keyword_presence(ast: QueryAst) -> set[str]:
    """Which of the fixed keyword inventory occurs in the query.

    Structural keywords come from AST shape; vocabulary keywords are matched
    on resolved IRIs so the result is invariant under prefix renaming.
    ``rdf:type`` and the Turtle ``a`` count as the single keyword
    ``"rdf:type / a"``.  A ``FILTER NOT EXISTS`` counts for both FILTER and
    NOT EXISTS, matching its surface syntax.
    """
    present: set[str] = {"WHERE", ast.verb}
    if ast.distinct:
        present.add("DISTINCT")
    prefixes = ast.prefixes()
    for node in _walk(ast.where):
        if isinstance(node, (Iri, PrefixedName, KeywordA)):
            keyword = _KEYWORD_OF_IRI.get(resolve_term(node, prefixes))
            if keyword is not None:
                present.add(keyword)
        else:
            present.update(_KEYWORDS_OF_NODE.get(type(node), ()))
    return present


def keyword_report(corpus) -> tuple[list[dict], list[tuple[str, str]]]:
    """Keyword usage per query over a corpus (presence, not occurrences).

    Returns rows of ``{"keyword", "total", "per_ontology"}`` sorted by
    descending total (inventory order breaks ties, which matches the
    published table layout), plus the list of queries that failed to parse
    and were therefore excluded.
    """
    asts, errors = corpus.parse_queries()
    onto_of = {q.id: q.ontology for q in corpus.questions}
    totals: dict[str, int] = {kw: 0 for kw in KEYWORD_INVENTORY}
    per_onto: dict[str, dict[str, int]] = {kw: {} for kw in KEYWORD_INVENTORY}
    for qid, ast in asts.items():
        onto = onto_of[qid]
        for kw in keyword_presence(ast):
            if kw not in totals:
                continue
            totals[kw] += 1
            per_onto[kw][onto] = per_onto[kw].get(onto, 0) + 1
    order = {kw: i for i, kw in enumerate(KEYWORD_INVENTORY)}
    rows = [
        {"keyword": kw, "total": totals[kw], "per_ontology": per_onto[kw]}
        for kw in KEYWORD_INVENTORY
        if totals[kw] > 0
    ]
    rows.sort(key=lambda r: (-r["total"], order[r["keyword"]]))
    return rows, errors
