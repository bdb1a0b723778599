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

The AST holds what a query means, not how it was spelled: brackets leave
no node, and the verb ``a`` is the IRI of rdf:type.  A prefixed name
carries the namespace its prefix had where it was read, so the parser is
the one place that resolves a prefix; a number or boolean written without
quotes is an ``xsd:integer``, ``xsd:decimal``, ``xsd:double`` or
``xsd:boolean`` literal whatever the query binds ``xsd:`` to, and is
written back as it was read; and each ``[ ... ]`` is its own blank node,
however its text repeats another's.  The serializer
brackets only where the grammar needs it, always writes ``FILTER (...)``,
and writes an rdf:type verb as ``a``.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import groupby
from typing import Iterator, Optional, Union as TUnion

from .records import Record

# the reserved vocabulary, whose prefixes every query may use
WELL_KNOWN_PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
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


# ---------------------------------------------------------------------------
# AST node types


class Iri(Record):
    value: str

    def __str__(self) -> str:
        return f"<{self.value}>"


class PrefixedName(Record):
    """``prefix:local``, carrying the namespace its prefix was bound to where
    it was read; its IRI is that namespace followed by ``local`` (SPARQL 1.1,
    4.1.1), so no prefix table need travel with the name."""

    prefix: str
    local: str
    namespace: str

    def __str__(self) -> str:
        return f"{self.prefix}:{self.local}"


# The literals SPARQL writes without quotes (SPARQL 1.1, 19.8): the token
# that reads each and its datatype, whatever the query binds ``xsd:`` to
# (4.1.2).  A literal of such a datatype whose lexical form is its token is
# written back as that token.  ``true`` and ``false`` are keywords, so the
# lexer reads them in any case, as lower case.
_SHORT_FORMS = {
    kind: (re.compile(pattern), PrefixedName("xsd", local, WELL_KNOWN_PREFIXES["xsd"]))
    for kind, pattern, local in (
        ("DOUBLE", r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][+-]?[0-9]+", "double"),
        ("DECIMAL", r"[+-]?[0-9]*\.[0-9]+", "decimal"),
        ("INTEGER", r"[+-]?[0-9]+", "integer"),
        ("BOOLEAN", r"true|false", "boolean"),
    )
}
_SHORT_FORM_OF = {datatype: pattern for pattern, datatype in _SHORT_FORMS.values()}


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


# SPARQL 1.1's ECHAR set: the letter after a backslash -> the character it escapes
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# a lexical form inside "...": each of those characters but ' as its escape
_ESCAPE = str.maketrans({c: "\\" + e for e, c in _ECHARS.items() if e != "'"})


class Literal(Record):
    lexical: str
    datatype: Optional["Term"] = None
    lang: Optional[str] = None

    def __str__(self) -> str:
        short_form = _SHORT_FORM_OF.get(self.datatype)
        if short_form is not None and short_form.fullmatch(self.lexical):
            return self.lexical  # a token that reads back as this literal
        out = f'"{self.lexical.translate(_ESCAPE)}"'
        if self.datatype is not None:
            out += f"^^{self.datatype}"
        elif self.lang:
            out += f"@{self.lang}"
        return out


Term = TUnion[Iri, PrefixedName, BlankNodeLabel, AnonBlank, Variable, Literal]

# the verb ``a`` (SPARQL 1.1, 4.2.4): the parser reads it as this term, and
# the serializer writes this term as ``a`` where it is a predicate
_RDF_TYPE = Iri(WELL_KNOWN_PREFIXES["rdf"] + "type")


class PathZeroOrMore(Record):
    inner: Term

    def __str__(self) -> str:
        return f"{self.inner}*"


class PathSequence(Record):
    """``p1/p2/...``: each step is a term or a starred term (SPARQL 1.1,
    9.1: a path element is an IRI, not a node of its own)."""

    parts: tuple[TUnion[Term, PathZeroOrMore], ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("path sequence needs at least two parts")

    def __str__(self) -> str:
        return "/".join(str(p) for p in self.parts)


PropertyPath = TUnion[PathZeroOrMore, PathSequence]


class Collection(Record):
    items: tuple["Node", ...]


class BlankPropertyList(Record):
    """``[ p1 o1, o2 ; p2 o3 ]`` — predicate/object-list pairs.  Each one is
    its own blank node (SPARQL 1.1, 4.1.4): its id comes from the parse-order
    count that :class:`AnonBlank` ids come from."""

    pairs: tuple[tuple[TUnion[Term, PropertyPath], tuple["Node", ...]], ...]
    anon_id: int


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


Expr = TUnion[Compare, And, Or, In, FnCall, Arith, TermRef]


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
    # the query's own PREFIX declarations, in order; serialization writes them
    declared_prefixes: tuple[tuple[str, str], ...] = ()


# ---------------------------------------------------------------------------
# Lexer

# in the order they are tried: the most frequent first, then each before
# any that could read a prefix of it
_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"#[^\n]*"),
    ("IRIREF", r"<[^<>\"{}|^`\\\s]*>"),
    ("VAR", r"[?$][A-Za-z_][A-Za-z_0-9]*"),
    ("BLANK", r"_:[A-Za-z_0-9]+"),
    ("STRING", r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\''),
    ("PNAME", r"[A-Za-z_][A-Za-z_0-9.-]*:[A-Za-z_0-9](?:[A-Za-z_0-9.-]*[A-Za-z_0-9-])?"),
    ("PNAMENS", r"[A-Za-z_][A-Za-z_0-9.-]*:"),
    ("COLONNAME", r":[A-Za-z_0-9](?:[A-Za-z_0-9.-]*[A-Za-z_0-9-])?"),
    ("NAME", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("LANG", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    *((kind, _SHORT_FORMS[kind][0].pattern) for kind in ("DOUBLE", "DECIMAL", "INTEGER")),
    ("OP", r"!=|=|&&|\|\||\^\^|[{}()\[\].;,/*+:-]"),
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

    An operator's kind is its text, a keyword's kind and text are the
    upper-cased word, and ``true`` or ``false`` is a ``BOOLEAN`` whose text
    is the lower-cased word, so the parser tests the kind alone.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind == "WS" or kind == "COMMENT":
            continue
        if kind == "OP":
            kind = value
        elif kind == "NAME":
            word = value.lower()
            if word in _KEYWORDS:
                kind = value = value.upper()
            elif word == "true" or word == "false":
                kind, value = "BOOLEAN", word
        elif kind == "BAD":
            raise _error_at(text, m.start(), f"unexpected character {value!r}")
        tokens.append((kind, value, m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_BUILTIN_FNS = {"strstarts": "STRSTARTS", "now": "now"}


class _Parser:
    def __init__(self, text: str, prefixes: Optional[dict[str, str]]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes = {**WELL_KNOWN_PREFIXES, **(prefixes or {})}
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
        return QueryAst(verb[0], distinct, projection, where, tuple(self.declared.items()))

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
        return self._nary(PathSequence, "/", self._parse_path_elt)

    def _parse_path_elt(self) -> TUnion[Term, PathZeroOrMore]:
        kind, value, _ = self.tokens[self.pos]
        if kind not in ("IRIREF", "PNAME", "COLONNAME", "VAR") and \
                (kind, value) != ("NAME", "a"):
            raise self.error("expected predicate")
        # SPARQL admits ``a`` as a verb only, so it is read here, not as a term
        term = _RDF_TYPE if self.accept("NAME") else self._parse_term()
        return PathZeroOrMore(term) if self.accept("*") else term

    def _parse_node(self, allow_literal: bool = True) -> Node:
        if self.at("["):
            return self._parse_blank_property_list()
        if self.at("("):
            return self._parse_collection()
        if not allow_literal and (self.at("STRING") or self.tokens[self.pos][0] in _SHORT_FORMS):
            raise self.error("literal not allowed in subject position")
        return self._parse_term()

    def _parse_blank_property_list(self) -> Node:
        self.expect("[")
        anon_id = self.anon_counter
        self.anon_counter += 1
        pairs = []
        while not self.accept("]"):
            if self.at("EOF"):
                raise self.error("unterminated blank node property list")
            pairs.append(self._parse_predicate_objects())
            self.accept(";")
        return BlankPropertyList(tuple(pairs), anon_id) if pairs else AnonBlank(anon_id)

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
            namespace = self.prefixes.get(prefix)
            if namespace is None:
                raise _error_at(self.text, offset,
                                f"prefix {prefix!r} of {value!r} is not declared")
            self.pos += 1
            return PrefixedName(prefix, local, namespace)
        if kind == "IRIREF":
            self.pos += 1
            return Iri(value[1:-1])
        if kind == "VAR":
            self.pos += 1
            return Variable(value[1:], value[0])
        if kind == "BLANK":
            self.pos += 1
            return BlankNodeLabel(value[2:])
        if kind in _SHORT_FORMS:
            self.pos += 1
            return Literal(value, datatype=_SHORT_FORMS[kind][1])
        if kind != "STRING":
            raise self.error("expected a term")
        self.pos += 1
        lexical = _unescape_string(value[1:-1], self.text, offset + 1)
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
        while True:
            kind, value, _ = self.tokens[self.pos]
            if kind == "+" or kind == "-":
                self.pos += 1
                left = Arith(kind, left, self._parse_primary())
            elif kind in _SHORT_FORMS and value[0] in "+-":
                # a signed number after an operand is an operator and the
                # unsigned number (SPARQL 1.1, AdditiveExpression): ?a -1 is ?a - 1
                self.pos += 1
                number = Literal(value[1:], datatype=_SHORT_FORMS[kind][1])
                left = Arith(value[0], left, TermRef(number))
            else:
                return left

    def _parse_primary(self) -> Expr:
        kind, value, _ = self.tokens[self.pos]
        if self.accept("("):
            inner = self._parse_expr()
            self.expect(")")
            return inner
        if kind == "NAME" and value.lower() in _BUILTIN_FNS:
            self.pos += 1
            return self._parse_call(_BUILTIN_FNS[value.lower()])
        # SPARQL's iriOrFunction: a name or an IRI before '(' names a call
        if kind in ("PNAME", "COLONNAME", "IRIREF") and self.tokens[self.pos + 1][0] == "(":
            return self._parse_call(self._parse_term())
        return TermRef(self._parse_term())

    def _parse_call(self, name) -> FnCall:
        self.expect("(")
        args = [] if self.at(")") else self._separated(self._parse_expr, ",")
        self.expect(")")
        return FnCall(name, tuple(args))


_STRING_ESCAPE = re.compile(r"(?s)\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")


def _unescape_string(raw: str, text: str, start: int) -> str:
    """``raw``, found at offset ``start`` of ``text``, with its ECHAR and
    UCHAR escapes read in one pass; any other ``\\x`` stays.

    A UCHAR must name a character: a surrogate, or a code point above
    U+10FFFF, is a :class:`QueryParseError` at the escape.
    """
    def unescape(m: re.Match) -> str:
        if m[3] is not None:
            return _ECHARS.get(m[3], m[0])
        code = int(m[1] or m[2], 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            raise _error_at(text, start + m.start(), f"{m[0]} names no character")
        return chr(code)

    return _STRING_ESCAPE.sub(unescape, raw)


def parse_query(text: str, prefixes: Optional[dict[str, str]] = None) -> QueryAst:
    """Parse a SPARQL-OWL query into a :class:`QueryAst`.

    ``prefixes`` supplies the namespace table when the query text omits its
    PREFIX preamble (the usual case for per-ontology corpora); declarations
    in the text extend and override it.
    """
    if not text.strip():
        raise QueryParseError("empty query text", 1, 1)
    return _Parser(text, prefixes).parse_query()


# ---------------------------------------------------------------------------
# Serializer


def serialize_query(ast: QueryAst) -> str:
    """Pretty-print an AST; for every AST the parser builds,
    ``parse(serialize(ast))`` is structurally equal.

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
        return pad + f"FILTER ({_render_expr(item.expr)})"
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
    """One line per run of triples with one subject, their pairs joined by ``;``."""
    lines: list[str] = []
    for subject, run in groupby(bgp.triples, key=lambda t: t.subject):
        parts = [_render_pair(t.predicate, t.objects, depth) for t in run]
        lines.append(_render_node(subject, depth) + " " + " ; ".join(parts) + " .")
    return lines


def _render_pair(predicate, objects: tuple[Node, ...], depth: int) -> str:
    verb = "a" if predicate == _RDF_TYPE else str(predicate)
    return f"{verb} " + ", ".join(_render_node(o, depth) for o in objects)


def _render_node(node: Node, depth: int) -> str:
    if isinstance(node, BlankPropertyList):
        inner_pad = "    " * (depth + 1)
        parts = [inner_pad + _render_pair(pred, objects, depth + 1)
                 for pred, objects in node.pairs]
        return "[\n" + " ;\n".join(parts) + "\n" + "    " * depth + "]"
    if isinstance(node, Collection):
        return "( " + " ".join(_render_node(i, depth) for i in node.items) + " )"
    return str(node)


# how tightly each expression node binds, as the parser's grammar levels
# rank them: || < && < =/!=/IN < +/- < a term or a call
_BINDING = {Or: 0, And: 1, Compare: 2, In: 2, Arith: 3, FnCall: 4, TermRef: 4}


def _render_expr(expr: Expr, need: int = 0) -> str:
    """``expr`` as text, bracketed if it binds looser than ``need``: an
    operand needs the level above its operator's, but the left operand of
    arithmetic, which is left-associative, needs only the operator's."""
    kind = type(expr)
    level = _BINDING.get(kind)
    if kind is Or or kind is And:
        text = (" || " if kind is Or else " && ").join(
            _render_expr(p, level + 1) for p in expr.parts)
    elif kind is Compare or kind is Arith:
        left = _render_expr(expr.left, level if kind is Arith else level + 1)
        text = f"{left} {expr.op} {_render_expr(expr.right, level + 1)}"
    elif kind is In:
        opts = ", ".join(_render_expr(o) for o in expr.options)
        text = f"{_render_expr(expr.needle, level + 1)} IN ({opts})"
    elif kind is FnCall:
        args = ", ".join(_render_expr(a) for a in expr.args)
        text = f"{expr.name}({args})"
    elif kind is TermRef:
        text = str(expr.term)
    else:
        raise TypeError(f"unknown expression node {expr!r}")
    return f"({text})" if level < need else text


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

# vocabulary name -> keyword; "rdf:type / a" is matched by rdf:type and by ``a``
_KEYWORD_OF_NAME = {kw.split()[0]: kw for kw in KEYWORD_INVENTORY if ":" in kw}
# structural keywords, by the graph pattern node that shows them
_KEYWORDS_OF_NODE = {
    Filter: ("FILTER",),
    NotExists: ("FILTER", "NOT EXISTS"),
    UnionPattern: ("UNION",),
}


def _vocabulary_head(start: str) -> Optional[str]:
    """The name of every IRI beginning with ``start``, up to that point:
    ``prefix:...`` inside a reserved namespace, "" when ``start`` properly
    begins one (the rest decides), None when no IRI beginning so is reserved."""
    for prefix, ns in WELL_KNOWN_PREFIXES.items():
        if start.startswith(ns):
            return f"{prefix}:{start[len(ns):]}"
        if ns.startswith(start):
            return ""
    return None


_namespace_head = lru_cache(maxsize=256)(_vocabulary_head)


def vocabulary_name(term: Term) -> Optional[str]:
    """``prefix:local`` for a term in the rdf/rdfs/owl/xsd vocabulary, None
    for any other term.  A prefixed name carries the namespace it was read
    under, and its IRI is that namespace followed by its local part (SPARQL
    1.1, 4.1.1), so the answer is decided once per namespace."""
    kind = type(term)
    if kind is PrefixedName:
        head = _namespace_head(term.namespace)
        if head:
            return head + term.local
        # the namespace properly begins a reserved one: the whole IRI decides
        return None if head is None else _vocabulary_head(term.namespace + term.local) or None
    if kind is Iri:
        return _vocabulary_head(term.value) or None
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
    by :func:`vocabulary_name`, invariant under prefix renaming and full IRIs:
    ``rdf:type`` and the Turtle ``a`` count as the single keyword
    ``"rdf:type / a"``.  A ``FILTER NOT EXISTS`` counts for both FILTER and
    NOT EXISTS, matching its surface syntax.
    """
    present: set[str] = {"WHERE", ast.verb}
    if ast.distinct:
        present.add("DISTINCT")
    for node in _walk(ast.where):
        if isinstance(node, (Iri, PrefixedName)):
            keyword = _KEYWORD_OF_NAME.get(vocabulary_name(node))
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
