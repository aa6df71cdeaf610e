"""Text input for quivers, ideals, paths and walks.

Grammar (UTF-8 text, ``#`` comments to end of line)::

    quiver <name> { vertices: v1 v2 ...; arrow <id>: <src> -> <tgt>; ... }
    ideal <name> over <quiver>[(<char>)] { rel <term> (+|-) <term> ...; ... }

A term is an optional coefficient (integer or ``a/b`` fraction) followed
by ``*`` and a path; a path lists arrow ids in composition order,
``d*c*b`` meaning "apply b first".  A leading integer-looking token
followed by ``*`` is always read as a coefficient, so arrow ids that
look like integers cannot start a path (prefix them with ``1*``).
Walk syntax marks inverse letters with ``^-1``, e.g. ``d^-1*d*a``.
"""

from __future__ import annotations

import re

from .errors import ParseError, QuiverError
from .fields import Field
from .quiver import Arrow, Quiver, Walk, FORWARD, INVERSE, make_path, make_walk, trivial_path, trivial_walk
from .records import FrozenRecord, Record

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<sym>->|\^-1|[{}():;*+\-/=,])
  | (?P<name>[A-Za-z0-9_.']+)
""", re.VERBOSE)

_INT_RE = re.compile(r"^-?[0-9]+$")


class Token(FrozenRecord):
    _fields = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        setattr_ = object.__setattr__
        setattr_(self, "kind", kind)
        setattr_(self, "text", text)
        setattr_(self, "line", line)
        setattr_(self, "column", column)


def tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos],
                             line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append(Token(kind, value, line, pos - line_start + 1))
        line += value.count("\n")
        if "\n" in value:
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, text) -> Token:
        tok = self.next()
        if tok.text != text:
            self.fail("expected %r, found %r" % (text, tok.text or "end of input"), tok)
        return tok

    def expect_name(self, what="identifier") -> Token:
        tok = self.next()
        if tok.kind != "name":
            self.fail("expected %s, found %r" % (what, tok.text or "end of input"), tok)
        return tok


class RawTerm(Record):
    """One summand of a relation before field/quiver resolution."""

    _fields = ("sign", "numerator", "denominator", "path_tokens", "token")

    def __init__(self, sign: int, numerator: int, denominator: int,
                 path_tokens: tuple, token: Token):
        self.sign = sign
        self.numerator = numerator
        self.denominator = denominator
        self.path_tokens = path_tokens
        self.token = token


class IdealDecl(Record):
    _fields = ("name", "quiver_name", "char", "relations")

    def __init__(self, name: str, quiver_name: str, char: int | None,
                 relations: list):
        self.name = name
        self.quiver_name = quiver_name
        self.char = char
        self.relations = relations

    def generators(self, quiver: Quiver, fld: Field):
        """Resolve the raw relations into Relation values over ``fld``."""
        from .ideal import make_relation

        gens = []
        for raw_terms in self.relations:
            terms = []
            endpoints = None
            for t in raw_terms:
                if len(t.path_tokens) == 1 and t.path_tokens[0].startswith("e_"):
                    v = t.path_tokens[0][2:]
                    if quiver.has_vertex(v):
                        path = trivial_path(quiver, v)
                    else:
                        path = _raw_path(quiver, t)
                else:
                    path = _raw_path(quiver, t)
                coeff = fld.scalar(t.sign * t.numerator, t.denominator)
                if endpoints is None:
                    endpoints = (path.source, path.target)
                elif endpoints != (path.source, path.target):
                    raise ParseError(
                        "relation mixes non-parallel paths (%s -> %s vs %s -> %s)"
                        % (endpoints[0], endpoints[1], path.source, path.target),
                        t.token.line, t.token.column)
                terms.append((path, coeff))
            gens.append(make_relation(quiver, fld, endpoints[0], endpoints[1], terms))
        return gens


def _raw_path(quiver, raw: RawTerm):
    try:
        return make_path(quiver, tuple(reversed(raw.path_tokens)))
    except QuiverError as exc:
        raise ParseError(str(exc), raw.token.line, raw.token.column) from None


class Workspace(Record):
    """All declarations of one source file, by name."""

    _fields = ("quivers", "ideal_decls", "projections")

    def __init__(self, quivers: dict = None, ideal_decls: dict = None,
                 projections: dict = None):
        self.quivers = {} if quivers is None else quivers
        self.ideal_decls = {} if ideal_decls is None else ideal_decls
        # quiver name -> {id: id}
        self.projections = {} if projections is None else projections

    def quiver(self, name: str) -> Quiver:
        if name not in self.quivers:
            raise ParseError("no quiver named %r" % name)
        return self.quivers[name]

    def ideal(self, name: str, char: int | None = None):
        """Close the named ideal declaration, optionally overriding char."""
        from .ideal import close_ideal

        if name not in self.ideal_decls:
            raise ParseError("no ideal named %r" % name)
        decl = self.ideal_decls[name]
        quiver = self.quiver(decl.quiver_name)
        fld = Field(char if char is not None else (decl.char or 0))
        return close_ideal(quiver, fld, decl.generators(quiver, fld))


def parse_source(text: str) -> Workspace:
    p = _Parser(text)
    ws = Workspace()
    last_quiver = None
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.text == "quiver":
            q = _parse_quiver_decl(p)
            if q.name in ws.quivers:
                p.fail("duplicate quiver name %r" % q.name, tok)
            ws.quivers[q.name] = q
            last_quiver = q.name
        elif tok.text == "ideal":
            d = _parse_ideal_decl(p)
            if d.name in ws.ideal_decls:
                p.fail("duplicate ideal name %r" % d.name, tok)
            if d.quiver_name not in ws.quivers:
                p.fail("ideal %r refers to unknown quiver %r" % (d.name, d.quiver_name), tok)
            ws.ideal_decls[d.name] = d
        elif tok.text == "projection":
            if last_quiver is None:
                p.fail("projection block before any quiver")
            ws.projections[last_quiver] = _parse_projection(p)
        else:
            p.fail("expected 'quiver', 'ideal' or 'projection', found %r" % tok.text)
    return ws


def _parse_projection(p: _Parser):
    p.expect("projection")
    p.expect("{")
    mapping = {}
    while p.peek().kind == "name":
        src = p.next().text
        p.expect("->")
        dst = p.expect_name().text
        p.expect(";")
        mapping[src] = dst
    p.expect("}")
    return mapping


def _parse_quiver_decl(p: _Parser) -> Quiver:
    p.expect("quiver")
    name_tok = p.expect_name("quiver name")
    p.expect("{")
    p.expect("vertices")
    p.expect(":")
    vertices = []
    while p.peek().kind == "name":
        vertices.append(p.next().text)
    p.expect(";")
    if not vertices:
        p.fail("a quiver needs at least one vertex")
    arrows = []
    while p.peek().text == "arrow":
        p.next()
        a_name = p.expect_name("arrow name").text
        p.expect(":")
        src = p.expect_name("source vertex").text
        p.expect("->")
        tgt = p.expect_name("target vertex").text
        p.expect(";")
        arrows.append(Arrow(a_name, src, tgt))
    brace = p.expect("}")
    try:
        return Quiver(name_tok.text, tuple(vertices), tuple(arrows))
    except QuiverError as exc:
        raise ParseError(str(exc), brace.line, brace.column) from None


def _parse_ideal_decl(p: _Parser) -> IdealDecl:
    p.expect("ideal")
    name = p.expect_name("ideal name").text
    p.expect("over")
    quiver_name = p.expect_name("quiver name").text
    char = None
    if p.peek().text == "(":
        p.next()
        char_tok = p.expect_name("characteristic")
        if not _INT_RE.match(char_tok.text):
            p.fail("characteristic must be an integer", char_tok)
        char = int(char_tok.text)
        p.expect(")")
    p.expect("{")
    relations = []
    while p.peek().text == "rel":
        p.next()
        relations.append(_parse_relation(p))
    p.expect("}")
    return IdealDecl(name, quiver_name, char, relations)


def _parse_relation(p: _Parser):
    terms = [_parse_term(p, 1)]
    while p.peek().text in ("+", "-"):
        sign = 1 if p.next().text == "+" else -1
        terms.append(_parse_term(p, sign))
    p.expect(";")
    return terms


def _parse_term(p: _Parser, sign: int) -> RawTerm:
    lead = p.peek()
    if lead.text == "-":
        p.next()
        sign = -sign
        lead = p.peek()
    num, den = 1, 1
    if lead.kind == "name" and _INT_RE.match(lead.text) and p.peek(1).text in ("*", "/"):
        p.next()
        num = int(lead.text)
        if p.peek().text == "/":
            p.next()
            den_tok = p.expect_name("denominator")
            if not _INT_RE.match(den_tok.text):
                p.fail("denominator must be an integer", den_tok)
            den = int(den_tok.text)
        p.expect("*")
    first = p.expect_name("path")
    path_tokens = [first.text]
    while p.peek().text == "*":
        p.next()
        path_tokens.append(p.expect_name("arrow").text)
    return RawTerm(sign, num, den, tuple(path_tokens), first)


def parse_quiver(text: str) -> Quiver:
    """Parse a source containing exactly one quiver declaration."""
    ws = parse_source(text)
    if len(ws.quivers) != 1:
        raise ParseError("expected exactly one quiver declaration, found %d"
                         % len(ws.quivers))
    return next(iter(ws.quivers.values()))


def parse_path(quiver: Quiver, text: str):
    """Parse ``d*c*b`` (composition order) or ``e_x`` into a Path."""
    text = text.strip()
    if text.startswith("e_") and quiver.has_vertex(text[2:]):
        return trivial_path(quiver, text[2:])
    names = [t.strip() for t in text.split("*") if t.strip()]
    if not names:
        raise ParseError("empty path text %r" % text)
    return make_path(quiver, tuple(reversed(names)))


def parse_walk(quiver: Quiver, text: str) -> Walk:
    """Parse ``d^-1*d*a`` (composition order, ^-1 marks inverses)."""
    text = text.strip()
    if text.startswith("e_") and quiver.has_vertex(text[2:]):
        return trivial_walk(quiver, text[2:])
    letters = []
    for chunk in text.split("*"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty letter in walk text %r" % text)
        if chunk.endswith("^-1"):
            letters.append((chunk[:-3], INVERSE))
        else:
            letters.append((chunk, FORWARD))
    return make_walk(quiver, tuple(reversed(letters)))
