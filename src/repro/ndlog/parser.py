"""Parser for the NDlog surface syntax used in the paper.

Grammar (informally)::

    program     := (materialize | rule)*
    materialize := "materialize" "(" ident "," ident "," ident ","
                   "keys" "(" int ("," int)* ")" ")" "."
    rule        := ident head ":-" body "."
    head        := atom
    body        := element ("," element)*
    element     := atom | assignment | condition
    atom        := ident "(" arg ("," arg)* ")"
    arg         := "@"? (var | const | aggregate)
    aggregate   := ident "<" var ">"
    assignment  := var ":=" expr        (also accepts "=" like the paper)
    condition   := expr op expr          op in == != < <= > >=
    expr        := var | const | ident "(" expr ("," expr)* ")"

Variables start with an upper-case letter; everything else lower-case is a
constant or function/relation name.  ``true``/``false``/``phi`` are literal
constants (φ maps to :data:`repro.algebra.base.PHI`).  Comments run from
``//`` to end of line.

The paper writes assignments with a bare ``=`` inside rule bodies (e.g.
``PNew=f_concatPath(U,P)``) and conditions as ``f_import(L,S)=true``; both
spellings are accepted — ``=`` resolves to an assignment when the left side
is a variable, and to an equality condition otherwise.
"""

from __future__ import annotations

import re

from ..algebra.base import PHI
from .ast import (
    Aggregate,
    Assignment,
    Atom,
    Condition,
    Const,
    Expr,
    FuncCall,
    Materialize,
    Program,
    Rule,
    Var,
)


class NDlogSyntaxError(ValueError):
    """Raised on malformed NDlog source."""


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<op>:-|:=|==|!=|<=|>=|<(?![A-Za-z])|>|=|@|\(|\)|,|\.)
  | (?P<num>\d+)
  | (?P<str>"[^"]*")
  | (?P<agg><)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)

_LITERALS = {"true": True, "false": False, "phi": PHI, "nil": ()}


def _tokenize(source: str) -> list[str]:
    tokens: list[str] = []
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise NDlogSyntaxError(
                f"unexpected character {source[position]!r} at {position}")
        position = match.end()
        if match.lastgroup == "ws":
            continue
        tokens.append(match.group())
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, offset: int = 0) -> str | None:
        index = self._pos + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise NDlogSyntaxError("unexpected end of input")
        self._pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise NDlogSyntaxError(f"expected {token!r}, got {got!r}")

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)


def parse_program(source: str, name: str = "ndlog",
                  strict: bool = True) -> Program:
    """Parse a full program.

    ``strict=True`` (default) runs :meth:`Program.validate`, which requires
    ``materialize`` declarations for stored relations.  Pass ``strict=False``
    for sketch programs like the paper's four-rule GPV listing, which omits
    declarations.
    """
    stream = _TokenStream(_tokenize(source))
    program = Program(name=name)
    while not stream.exhausted:
        if stream.peek() == "materialize":
            declaration = _parse_materialize(stream)
            program.materialized[declaration.relation] = declaration
        else:
            program.rules.append(_parse_rule(stream))
    if strict:
        program.validate()
    return program


def _parse_materialize(stream: _TokenStream) -> Materialize:
    stream.expect("materialize")
    stream.expect("(")
    relation = stream.next()
    # Two retention arguments (lifetime, size) — accepted and ignored, as in
    # the common "infinity, infinity" idiom.
    stream.expect(",")
    stream.next()
    stream.expect(",")
    stream.next()
    stream.expect(",")
    stream.expect("keys")
    stream.expect("(")
    keys = [int(stream.next()) - 1]  # surface syntax is 1-based
    while stream.peek() == ",":
        stream.next()
        keys.append(int(stream.next()) - 1)
    stream.expect(")")
    stream.expect(")")
    stream.expect(".")
    return Materialize(relation=relation, keys=tuple(keys))


def _parse_rule(stream: _TokenStream) -> Rule:
    rule_name = stream.next()
    if not rule_name[0].islower():
        raise NDlogSyntaxError(f"rule name must be lower-case: {rule_name!r}")
    head = _parse_atom(stream)
    stream.expect(":-")
    body: list = [_parse_body_element(stream)]
    while stream.peek() == ",":
        stream.next()
        body.append(_parse_body_element(stream))
    stream.expect(".")
    return Rule(name=rule_name, head=head, body=body)


def _parse_body_element(stream: _TokenStream):
    # Lookahead decides between atom, assignment, and condition.
    token = stream.peek()
    if token is None:
        raise NDlogSyntaxError("unexpected end of body")
    if _is_var(token):
        operator = stream.peek(1)
        if operator in (":=", "="):
            var = Var(stream.next())
            stream.next()  # operator
            expr = _parse_expr(stream)
            if operator == "=" and isinstance(expr, (Var, Const)):
                # Paper-style "=" between two bound things is a condition.
                return Condition(var, "==", expr)
            return Assignment(var, expr)
        if operator in ("==", "!=", "<", "<=", ">", ">="):
            lhs = Var(stream.next())
            op = stream.next()
            rhs = _parse_expr(stream)
            return Condition(lhs, op, rhs)
        raise NDlogSyntaxError(
            f"variable {token!r} must start an assignment or condition")
    # Identifier: atom or function-call condition.
    if _is_ident(token) and stream.peek(1) == "(":
        if stream.peek(2) == "@":
            return _parse_atom(stream)
        saved_pos = stream._pos
        call_or_atom = _parse_callable(stream)
        operator = stream.peek()
        if operator in ("==", "!=", "<", "<=", ">", ">=", "="):
            stream.next()
            rhs = _parse_expr(stream)
            op = "==" if operator == "=" else operator
            return Condition(call_or_atom, op, rhs)
        # It was a relation atom: re-parse with @ handling.
        stream._pos = saved_pos
        return _parse_atom(stream)
    raise NDlogSyntaxError(f"cannot parse body element at {token!r}")


def _parse_atom(stream: _TokenStream) -> Atom:
    relation = stream.next()
    if not _is_ident(relation):
        raise NDlogSyntaxError(f"bad relation name {relation!r}")
    stream.expect("(")
    args: list = []
    loc_index = 0
    index = 0
    while True:
        if stream.peek() == "@":
            stream.next()
            loc_index = index
        args.append(_parse_head_arg(stream))
        index += 1
        if stream.peek() == ",":
            stream.next()
            continue
        stream.expect(")")
        break
    return Atom(relation=relation, args=tuple(args), loc_index=loc_index)


def _parse_head_arg(stream: _TokenStream):
    token = stream.peek()
    if token is not None and _is_ident(token) and stream.peek(1) == "<":
        func = stream.next()
        stream.next()  # '<'
        var_token = stream.next()
        if not _is_var(var_token):
            raise NDlogSyntaxError(f"aggregate needs a variable: {var_token!r}")
        stream.expect(">")
        return Aggregate(func=func, var=Var(var_token))
    return _parse_expr(stream)


def _parse_callable(stream: _TokenStream) -> FuncCall:
    name = stream.next()
    stream.expect("(")
    args: list[Expr] = []
    if stream.peek() != ")":
        args.append(_parse_expr(stream))
        while stream.peek() == ",":
            stream.next()
            args.append(_parse_expr(stream))
    stream.expect(")")
    return FuncCall(name=name, args=tuple(args))


def _parse_expr(stream: _TokenStream) -> Expr:
    token = stream.peek()
    if token is None:
        raise NDlogSyntaxError("unexpected end of expression")
    if token.isdigit():
        stream.next()
        return Const(int(token))
    if token.startswith('"'):
        stream.next()
        return Const(token[1:-1])
    if _is_var(token):
        stream.next()
        return Var(token)
    if _is_ident(token):
        if stream.peek(1) == "(":
            return _parse_callable(stream)
        stream.next()
        if token in _LITERALS:
            return Const(_LITERALS[token])
        return Const(token)
    raise NDlogSyntaxError(f"cannot parse expression at {token!r}")


def _is_var(token: str) -> bool:
    return bool(token) and token[0].isupper()


def _is_ident(token: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token))
