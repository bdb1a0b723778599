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
    ("TYPED", r"\^\^"),
    ("VAR", r"[?$][A-Za-z_][A-Za-z_0-9]*"),
    ("BLANK", r"_:[A-Za-z_0-9]+"),
    ("STRING", r'"(?:[^"\\]|\\.)*"'),
    ("PNAME", r"[A-Za-z_][A-Za-z_0-9.-]*:[A-Za-z_0-9](?:[A-Za-z_0-9.-]*[A-Za-z_0-9-])?"),
    ("PNAMENS", r"[A-Za-z_][A-Za-z_0-9.-]*:"),
    ("COLONNAME", r":[A-Za-z_0-9](?:[A-Za-z_0-9.-]*[A-Za-z_0-9-])?"),
    ("COLON", r":"),
    ("INTEGER", r"[0-9]+"),
    ("NAME", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("NEQ", r"!="),
    ("EQ", r"="),
    ("ANDAND", r"&&"),
    ("OROR", r"\|\|"),
    ("LANG", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("PUNCT", r"[{}()\[\].;,/*+-]"),
    ("WS", r"[ \t\r\n]+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_SPEC))

_KEYWORDS = {
    "select", "ask", "where", "distinct", "filter", "bind", "union",
    "not", "exists", "in", "as", "prefix",
}


class _Token:
    # never compared, hashed or printed, so a plain class: a parse builds
    # one per token and this is the cheapest object to build
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        value = m.group()
        col = pos - line_start + 1
        if kind == "WS" or kind == "COMMENT":
            pass
        elif kind == "NAME" and value.lower() in _KEYWORDS:
            tokens.append(_Token("KW", value.upper(), line, col))
        else:
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = m.end() - (len(value) - value.rfind("\n") - 1)
        pos = m.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_BUILTIN_FNS = {"strstarts": "STRSTARTS", "now": "now"}


class _Parser:
    def __init__(self, tokens: list[_Token], prefixes: dict[str, str]):
        self.tokens = tokens
        self.pos = 0
        self.prefixes = dict(prefixes)
        self.declared: dict[str, str] = {}
        self.anon_counter = 0

    # token helpers --------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str) -> QueryParseError:
        tok = self.peek()
        shown = tok.value or "end of input"
        return QueryParseError(f"{message}, found {shown!r}", tok.line, tok.col)

    def expect_kw(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind == "KW" and tok.value == word:
            return self.next()
        raise self.error(f"expected {word}")

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == ch:
            return self.next()
        raise self.error(f"expected {ch!r}")

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == ch

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "KW" and tok.value == word

    # grammar --------------------------------------------------------------

    def parse_query(self) -> QueryAst:
        while self.at_kw("PREFIX"):
            self.next()
            label = self._parse_prefix_label()
            iri_tok = self.peek()
            if iri_tok.kind != "IRIREF":
                raise self.error("expected namespace IRI in PREFIX declaration")
            self.next()
            self.prefixes[label] = self.declared[label] = iri_tok.value[1:-1]

        if not (self.at_kw("SELECT") or self.at_kw("ASK")):
            raise self.error("expected SELECT or ASK")
        verb = self.next().value
        distinct, projection = False, None
        if verb == "SELECT":
            if self.at_kw("DISTINCT"):
                self.next()
                distinct = True
            projection = self._parse_projection()
            self.expect_kw("WHERE")
        elif self.at_kw("WHERE"):
            self.next()
        where = self._parse_group()
        if self.peek().kind != "EOF":
            raise self.error("unexpected trailing content")
        return QueryAst(verb, distinct, projection, where,
                        tuple(sorted(self.prefixes.items())),
                        tuple(self.declared.items()))

    def _parse_prefix_label(self) -> str:
        tok = self.peek()
        if tok.kind == "PNAMENS":
            self.next()
            return tok.value[:-1]
        if tok.kind == "COLON":
            self.next()
            return ""
        raise self.error("expected a prefix label like 'ex:'")

    def _parse_projection(self):
        if self.at_punct("*"):
            self.next()
            return STAR
        vars_: list[Variable] = []
        while self.peek().kind == "VAR":
            vars_.append(self._parse_term())
        if not vars_:
            raise self.error("expected '*' or at least one variable after SELECT")
        return tuple(vars_)

    def _parse_group(self) -> Group:
        self.expect_punct("{")
        items: list[GraphPattern] = []
        triples: list[TriplePattern] = []

        def flush():
            nonlocal triples
            if triples:
                items.append(Bgp(tuple(triples)))
                triples = []

        while not self.at_punct("}"):
            tok = self.peek()
            if tok.kind == "EOF":
                raise self.error("unterminated group, expected '}'")
            if self.at_kw("FILTER"):
                self.next()
                flush()
                if self.at_kw("NOT"):
                    self.next()
                    self.expect_kw("EXISTS")
                    inner = self._parse_group()
                    items.append(NotExists(inner))
                else:
                    items.append(Filter(self._parse_constraint()))
                self._skip_dot()
            elif self.at_kw("BIND"):
                self.next()
                flush()
                self.expect_punct("(")
                expr = self._parse_expr()
                self.expect_kw("AS")
                if self.peek().kind != "VAR":
                    raise self.error("expected variable after AS")
                var = self._parse_term()
                self.expect_punct(")")
                items.append(Bind(expr, var))
                self._skip_dot()
            elif self.at_punct("{"):
                flush()
                first = self._parse_group()
                node: GraphPattern = first
                while self.at_kw("UNION"):
                    self.next()
                    right = self._parse_group()
                    node = UnionPattern(node if isinstance(node, Group) else Group((node,)), right)
                items.append(node)
                self._skip_dot()
            elif self.at_kw("SELECT") or self.at_kw("ASK"):
                raise self.error("subqueries are outside the supported subset")
            else:
                triples.extend(self._parse_triples_block())
        self.expect_punct("}")
        flush()
        return Group(tuple(items))

    def _skip_dot(self):
        if self.at_punct("."):
            self.next()

    def _separated(self, parse_item, kind: str, value: str) -> list:
        """``item (sep item)*`` where the separator is a ``kind`` token ``value``."""
        items = [parse_item()]
        while self.peek().kind == kind and self.peek().value == value:
            self.next()
            items.append(parse_item())
        return items

    def _nary(self, node_type, kind: str, value: str, parse_part):
        """A separated list of parts, as ``node_type(parts)`` when there are two or more."""
        parts = self._separated(parse_part, kind, value)
        return parts[0] if len(parts) == 1 else node_type(tuple(parts))

    # triples ---------------------------------------------------------------

    def _parse_triples_block(self) -> list[TriplePattern]:
        subject = self._parse_node(allow_literal=False)
        triples: list[TriplePattern] = []
        while not (self.at_punct("}") or self.at_punct(".") or self.peek().kind == "EOF"):
            triples.append(TriplePattern(subject, *self._parse_predicate_objects()))
            if not self.at_punct(";"):
                break
            # a trailing ';' before '.' or '}' is tolerated
            self.next()
        if not triples:
            raise self.error("expected predicate after subject")
        self._skip_dot()
        return triples

    def _parse_predicate_objects(self) -> tuple[TUnion[Term, PropertyPath], tuple[Node, ...]]:
        """One predicate with its comma-separated object list."""
        predicate = self._parse_predicate()
        return predicate, tuple(self._separated(self._parse_node, "PUNCT", ","))

    def _parse_predicate(self) -> TUnion[Term, PropertyPath]:
        path = self._nary(PathSequence, "PUNCT", "/", self._parse_path_elt)
        return path.term if isinstance(path, PathAtom) else path

    def _parse_path_elt(self) -> PropertyPath:
        tok = self.peek()
        if tok.kind == "NAME" and tok.value == "a":
            self.next()
            atom: PropertyPath = PathAtom(KeywordA())
        elif tok.kind in ("IRIREF", "PNAME", "COLONNAME", "VAR"):
            atom = PathAtom(self._parse_term())
        else:
            raise self.error("expected predicate")
        if self.at_punct("*"):
            self.next()
            return PathZeroOrMore(atom)
        return atom

    def _parse_node(self, allow_literal: bool = True) -> Node:
        tok = self.peek()
        if self.at_punct("["):
            return self._parse_blank_property_list()
        if self.at_punct("("):
            return self._parse_collection()
        if tok.kind in ("STRING", "INTEGER") and not allow_literal:
            raise self.error("literal not allowed in subject position")
        return self._parse_term()

    def _parse_blank_property_list(self) -> Node:
        self.expect_punct("[")
        if self.at_punct("]"):
            self.next()
            blank = AnonBlank(self.anon_counter)
            self.anon_counter += 1
            return blank
        pairs = []
        while not self.at_punct("]"):
            if self.peek().kind == "EOF":
                raise self.error("unterminated blank node property list")
            pairs.append(self._parse_predicate_objects())
            if self.at_punct(";"):
                self.next()
        self.expect_punct("]")
        return BlankPropertyList(tuple(pairs))

    def _parse_collection(self) -> Collection:
        self.expect_punct("(")
        items: list[Node] = []
        while not self.at_punct(")"):
            if self.peek().kind == "EOF":
                raise self.error("unterminated collection")
            items.append(self._parse_node())
        self.expect_punct(")")
        return Collection(tuple(items))

    def _parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "IRIREF":
            self.next()
            return Iri(tok.value[1:-1])
        if tok.kind in ("PNAME", "COLONNAME"):
            prefix, local = tok.value.split(":", 1)
            if prefix not in self.prefixes:
                raise QueryParseError(
                    f"prefix {prefix!r} of {tok.value!r} is not declared",
                    tok.line, tok.col)
            self.next()
            return PrefixedName(prefix, local)
        if tok.kind == "VAR":
            self.next()
            return Variable(tok.value[1:], tok.value[0])
        if tok.kind == "BLANK":
            self.next()
            return BlankNodeLabel(tok.value[2:])
        if tok.kind == "NAME" and tok.value == "a":
            self.next()
            return KeywordA()
        if tok.kind == "STRING":
            self.next()
            lexical = _unescape_string(tok.value[1:-1])
            if self.peek().kind == "TYPED":
                self.next()
                dt_tok = self.peek()
                if dt_tok.kind not in ("IRIREF", "PNAME", "COLONNAME"):
                    raise self.error("expected datatype after '^^'")
                datatype = self._parse_term()
                return Literal(lexical, datatype=datatype)
            if self.peek().kind == "LANG":
                lang = self.next().value[1:]
                return Literal(lexical, lang=lang)
            return Literal(lexical)
        if tok.kind == "INTEGER":
            self.next()
            return Literal(tok.value, datatype=PrefixedName("xsd", "integer"))
        raise self.error("expected a term")

    # expressions -------------------------------------------------------------

    def _parse_constraint(self) -> Expr:
        if self.at_punct("("):
            self.next()
            expr = self._parse_expr()
            self.expect_punct(")")
            return Paren(expr)
        # bare builtin call form: FILTER STRSTARTS(...)
        return self._parse_primary()

    def _parse_expr(self) -> Expr:
        return self._nary(Or, "OROR", "||", self._parse_and)

    def _parse_and(self) -> Expr:
        return self._nary(And, "ANDAND", "&&", self._parse_relational)

    def _parse_relational(self) -> Expr:
        left = self._parse_additive()
        tok = self.peek()
        if tok.kind in ("EQ", "NEQ"):
            op = "=" if tok.kind == "EQ" else "!="
            self.next()
            right = self._parse_additive()
            return Compare(op, left, right)
        if self.at_kw("IN"):
            self.next()
            self.expect_punct("(")
            options = self._separated(self._parse_expr, "PUNCT", ",")
            self.expect_punct(")")
            return In(left, tuple(options))
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_primary()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next().value
            right = self._parse_primary()
            left = Arith(op, left, right)
        return left

    def _parse_primary(self) -> Expr:
        tok = self.peek()
        if self.at_punct("("):
            self.next()
            inner = self._parse_expr()
            self.expect_punct(")")
            return Paren(inner)
        if tok.kind == "NAME" and tok.value.lower() in _BUILTIN_FNS:
            self.next()
            return self._parse_call(_BUILTIN_FNS[tok.value.lower()])
        if tok.kind in ("PNAME", "COLONNAME") and self.peek(1).kind == "PUNCT" \
                and self.peek(1).value == "(":
            fn_term = self._parse_term()
            return self._parse_call(fn_term)
        return TermRef(self._parse_term())

    def _parse_call(self, name) -> FnCall:
        self.expect_punct("(")
        args = [] if self.at_punct(")") else self._separated(self._parse_expr, "PUNCT", ",")
        self.expect_punct(")")
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
    return _Parser(_tokenize(text), table).parse_query()


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
        return pad + "FILTER " + _render_expr(item.expr)
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
