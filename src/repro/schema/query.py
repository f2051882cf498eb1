"""The CVL schema-query mini-language (``query_constraints``).

A schema rule (paper Listing 3) selects rows from a schema table with a
parameterized constraint and projects columns::

    query_constraints: "dir = ?"
    query_constraints_value: ["/tmp"]
    query_columns: "*"

Grammar::

    query   := or
    or      := and ('OR' and)*
    and     := clause ('AND' clause)*
    clause  := '(' or ')' | 'NOT' clause | column op operand
    op      := '=' | '!=' | '<' | '<=' | '>' | '>=' | 'LIKE' | 'IN'
    operand := '?' | quoted | number | bareword | '(' operand (',' operand)* ')'

``?`` placeholders bind positionally to ``query_constraints_value``
entries (left to right).  ``LIKE`` uses SQL wildcards (``%``/``_``).
``<``/``>`` compare numerically when both sides parse as numbers,
lexicographically otherwise.  Keywords are case-insensitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.errors import QueryError
from repro.schema.table import Row, SchemaTable

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),])
      | (?P<placeholder>\?)
      | (?P<string>'[^'\\]*(?:\\.[^'\\]*)*'|"[^"\\]*(?:\\.[^"\\]*)*")
      | (?P<word>[^\s(),=<>!']+)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "like", "in"}


@dataclass
class _Token:
    kind: str  # op | punct | placeholder | string | word | keyword
    text: str


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(source):
        match = _TOKEN.match(source, position)
        if not match or match.end() == position:
            if source[position:].strip():
                raise QueryError(f"cannot tokenize {source[position:]!r}")
            break
        position = match.end()
        for kind in ("op", "punct", "placeholder", "string", "word"):
            text = match.group(kind)
            if text is not None:
                if kind == "word" and text[0] in "'\"":
                    raise QueryError(
                        f"unterminated string literal at {text[:20]!r}"
                    )
                if kind == "word" and text.lower() in _KEYWORDS:
                    tokens.append(_Token("keyword", text.lower()))
                elif kind == "string":
                    tokens.append(_Token("string", re.sub(r"\\(.)", r"\1", text[1:-1])))
                elif kind == "op" and text == "<>":
                    tokens.append(_Token("op", "!="))
                else:
                    tokens.append(_Token(kind, text))
                break
    return tokens


# ---- AST --------------------------------------------------------------------


@dataclass
class _Clause:
    column: str
    op: str
    operand: object  # _Placeholder, str, or list for IN

    def evaluate(self, row: Row, bindings: "_Bindings") -> bool:
        try:
            actual = row[self.column]
        except KeyError:
            raise QueryError(
                f"no column {self.column!r}; table has {list(row.columns)}"
            ) from None
        if self.op == "in":
            operands = self.operand if isinstance(self.operand, list) else [self.operand]
            return any(actual == bindings.resolve(op) for op in operands)
        expected = bindings.resolve(self.operand)
        if self.op == "=":
            return actual == expected
        if self.op == "!=":
            return actual != expected
        if self.op == "like":
            return _like(actual, expected)
        return _ordered(actual, expected, self.op)


@dataclass
class _Not:
    child: object

    def evaluate(self, row: Row, bindings: "_Bindings") -> bool:
        return not self.child.evaluate(row, bindings)


@dataclass
class _Bool:
    op: str  # "and" | "or"
    children: list

    def evaluate(self, row: Row, bindings: "_Bindings") -> bool:
        if self.op == "and":
            return all(child.evaluate(row, bindings) for child in self.children)
        return any(child.evaluate(row, bindings) for child in self.children)


class _Placeholder:
    """Marker for ``?``; carries its position in the constraint string."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class _Bindings:
    def __init__(self, values: list[str]):
        self.values = values

    def resolve(self, operand: object) -> str:
        if isinstance(operand, _Placeholder):
            if operand.index >= len(self.values):
                raise QueryError(
                    f"placeholder #{operand.index + 1} has no bound value "
                    f"({len(self.values)} given)"
                )
            return str(self.values[operand.index])
        return str(operand)


def _like(actual: str, pattern: str) -> bool:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, actual) is not None


def _ordered(actual: str, expected: str, op: str) -> bool:
    try:
        left: object = float(actual)
        right: object = float(expected)
    except ValueError:
        left, right = actual, expected
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise QueryError(f"unknown operator {op!r}")


# ---- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], source: str):
        self._tokens = tokens
        self._source = source
        self._position = 0
        self._placeholders = 0

    def parse(self):
        node = self._or()
        if self._position != len(self._tokens):
            raise QueryError(
                f"{self._source!r}: trailing tokens at {self._peek().text!r}"
            )
        return node

    def _peek(self) -> _Token | None:
        return self._tokens[self._position] if self._position < len(self._tokens) else None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QueryError(f"{self._source!r}: unexpected end of query")
        self._position += 1
        return token

    def _accept(self, kind: str, text: str | None = None) -> _Token | None:
        token = self._peek()
        if token and token.kind == kind and (text is None or token.text == text):
            self._position += 1
            return token
        return None

    def _or(self):
        children = [self._and()]
        while self._accept("keyword", "or"):
            children.append(self._and())
        return children[0] if len(children) == 1 else _Bool("or", children)

    def _and(self):
        children = [self._clause()]
        while self._accept("keyword", "and"):
            children.append(self._clause())
        return children[0] if len(children) == 1 else _Bool("and", children)

    def _clause(self):
        if self._accept("keyword", "not"):
            return _Not(self._clause())
        if self._accept("punct", "("):
            node = self._or()
            if not self._accept("punct", ")"):
                raise QueryError(f"{self._source!r}: missing ')'")
            return node
        column_token = self._advance()
        if column_token.kind not in ("word", "string"):
            raise QueryError(
                f"{self._source!r}: expected a column name, got {column_token.text!r}"
            )
        op_token = self._peek()
        if op_token and op_token.kind == "op":
            self._advance()
            op = op_token.text
        elif self._accept("keyword", "like"):
            op = "like"
        elif self._accept("keyword", "in"):
            op = "in"
        else:
            raise QueryError(
                f"{self._source!r}: expected an operator after "
                f"{column_token.text!r}"
            )
        if op == "in":
            operand: object = self._operand_list()
        else:
            operand = self._operand()
        return _Clause(column_token.text, op, operand)

    def _operand(self) -> object:
        token = self._advance()
        if token.kind == "placeholder":
            placeholder = _Placeholder(self._placeholders)
            self._placeholders += 1
            return placeholder
        if token.kind in ("string", "word"):
            return token.text
        raise QueryError(f"{self._source!r}: bad operand {token.text!r}")

    def _operand_list(self) -> list:
        if not self._accept("punct", "("):
            raise QueryError(f"{self._source!r}: IN needs a parenthesized list")
        operands = [self._operand()]
        while self._accept("punct", ","):
            operands.append(self._operand())
        if not self._accept("punct", ")"):
            raise QueryError(f"{self._source!r}: missing ')' after IN list")
        return operands


def parse_query(constraints: str):
    """Parse a constraint string into an AST; empty string matches all rows."""
    constraints = (constraints or "").strip()
    if not constraints:
        return None
    parser = _Parser(_tokenize(constraints), constraints)
    return parser.parse()


class Query:
    """A compiled ``query_constraints`` + ``query_columns`` pair."""

    def __init__(self, constraints: str = "", columns: str | list[str] = "*"):
        self.constraints = constraints
        self._ast = parse_query(constraints)
        if isinstance(columns, str):
            columns = [part.strip() for part in columns.split(",")] if columns != "*" else ["*"]
        self.columns = columns

    def execute(self, table: SchemaTable, values: list[str] | None = None) -> list[tuple[str, ...]]:
        """Rows of ``table`` matching the constraints, projected to the
        requested columns.  ``values`` bind ``?`` placeholders in order."""
        bindings = _Bindings([str(v) for v in (values or [])])
        selected: list[Row] = []
        for row in table:
            if self._ast is None or self._ast.evaluate(row, bindings):
                selected.append(row)
        if self.columns == ["*"]:
            return [row.values for row in selected]
        return [row.project(self.columns) for row in selected]

    def __repr__(self) -> str:
        return f"Query({self.constraints!r}, columns={self.columns})"
