"""The composite-rule expression language (paper Listing 1).

A composite rule aggregates evaluations across entities::

    mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem"
      && sysctl.net.ipv4.ip_forward && nginx.listen

Grammar::

    expr   := or
    or     := and ('||' and)*
    and    := unary ('&&' unary)*
    unary  := '!' unary | '(' expr ')' | term
    term   := reference (('==' | '!=') literal)?
    reference := ENTITY '.' CONFIG
                 ('.CONFIGPATH=[' path ']')?  ('.VALUE')?

Term semantics (paper §3.1: "the rule engine performs a logical
conjunction/disjunction over the per-entity rule evaluations"):

* a **bare reference** (``sysctl.net.ipv4.ip_forward``) is true when the
  named entity's per-entity rule for that config evaluated COMPLIANT; if
  the entity has no such rule, it falls back to *presence* of the config
  key (``nginx.listen`` -- nginx has a listen directive).
* ``.CONFIGPATH=[p]`` scopes the config lookup to tree path ``p``
  (brackets preserved verbatim from the paper's syntax; ``[mysqld]``
  means the ``mysqld`` section).
* ``.VALUE`` with a comparison compares the config's value to a literal.
  An absent config makes *any* comparison false (both ``==`` and ``!=``)
  -- a missing certificate path must not satisfy "!= wrong-path".
* ``.VALUE`` without a comparison is true for a present, non-empty,
  non-"0"/"false"/"no"/"off" value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Protocol

from repro.errors import CompositeExpressionError

_FALSY_VALUES = {"", "0", "false", "no", "off", "disabled"}


# ---- context ----------------------------------------------------------------


class CompositeContext(Protocol):
    """What the evaluator needs from the engine."""

    def rule_verdict(self, entity: str, config: str) -> bool | None:
        """COMPLIANT-ness of the per-entity rule for ``config`` (None if the
        entity has no rule by that config name)."""

    def lookup_value(
        self, entity: str, config: str, config_path: str | None
    ) -> str | None:
        """The configured value of ``config`` for ``entity`` (None if absent)."""


@dataclass
class DictContext:
    """Simple context backed by dicts (used by tests and the evaluator API).

    ``values`` maps ``(entity, config_path or "", config)`` to the value;
    ``verdicts`` maps ``(entity, config)`` to the per-entity rule outcome.
    """

    verdicts: dict[tuple[str, str], bool] = field(default_factory=dict)
    values: dict[tuple[str, str, str], str] = field(default_factory=dict)

    def rule_verdict(self, entity: str, config: str) -> bool | None:
        return self.verdicts.get((entity, config))

    def lookup_value(
        self, entity: str, config: str, config_path: str | None
    ) -> str | None:
        return self.values.get((entity, config_path or "", config))


# ---- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    entity: str
    config: str
    config_path: str | None = None
    want_value: bool = False

    def render(self) -> str:
        text = f"{self.entity}.{self.config}"
        if self.config_path is not None:
            text += f".CONFIGPATH=[{self.config_path}]"
        if self.want_value:
            text += ".VALUE"
        return text

    def truth(self, context: CompositeContext) -> bool:
        if self.want_value:
            value = context.lookup_value(self.entity, self.config, self.config_path)
            return value is not None and value.strip().lower() not in _FALSY_VALUES
        verdict = context.rule_verdict(self.entity, self.config)
        if verdict is not None:
            return verdict
        return (
            context.lookup_value(self.entity, self.config, self.config_path)
            is not None
        )


@dataclass(frozen=True)
class Comparison:
    reference: Reference
    op: str  # "==" | "!="
    literal: str

    def render(self) -> str:
        return f"{self.reference.render()} {self.op} \"{self.literal}\""

    def truth(self, context: CompositeContext) -> bool:
        value = context.lookup_value(
            self.reference.entity, self.reference.config, self.reference.config_path
        )
        if value is None:
            return False
        if self.op == "==":
            return value == self.literal
        return value != self.literal


@dataclass(frozen=True)
class Not:
    child: object

    def render(self) -> str:
        return f"!({self.child.render()})"

    def truth(self, context: CompositeContext) -> bool:
        return not self.child.truth(context)


@dataclass(frozen=True)
class BoolOp:
    op: str  # "&&" | "||"
    children: tuple

    def render(self) -> str:
        joined = f" {self.op} ".join(child.render() for child in self.children)
        return f"({joined})"

    def truth(self, context: CompositeContext) -> bool:
        if self.op == "&&":
            return all(child.truth(context) for child in self.children)
        return any(child.truth(context) for child in self.children)


@dataclass
class CompositeResult:
    """Evaluation outcome plus per-term detail for the output processor."""

    passed: bool
    term_results: list[tuple[str, bool]]

    def failed_terms(self) -> list[str]:
        return [term for term, ok in self.term_results if not ok]


# ---- tokenizer ---------------------------------------------------------------

_OPERATORS = ("&&", "||", "==", "!=", "!", "(", ")")


def _tokenize(expression: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    length = len(expression)
    while i < length:
        char = expression[i]
        if char.isspace():
            i += 1
            continue
        two = expression[i:i + 2]
        if two in ("&&", "||", "==", "!="):
            tokens.append(two)
            i += 2
            continue
        if char in "()!":
            tokens.append(char)
            i += 1
            continue
        if char in "'\"":
            end = expression.find(char, i + 1)
            if end == -1:
                raise CompositeExpressionError(
                    f"{expression!r}: unterminated string"
                )
            tokens.append(f'"{expression[i + 1:end]}"')
            i = end + 1
            continue
        # Reference or bare literal: consume until whitespace or an operator.
        # '=' is allowed inside a reference only as 'CONFIGPATH=[...]'.
        start = i
        while i < length:
            char = expression[i]
            if char.isspace() or char in "()!":
                break
            if expression[i:i + 2] in ("&&", "||", "==", "!="):
                break
            if char == "=":
                if expression[i + 1:i + 2] == "[":
                    closing = expression.find("]", i + 1)
                    if closing == -1:
                        raise CompositeExpressionError(
                            f"{expression!r}: unclosed '[' in CONFIGPATH"
                        )
                    i = closing + 1
                    continue
                break
            i += 1
        if i == start:
            # A bare '=' (or other terminator) with no reference before it
            # would otherwise loop forever producing empty tokens.
            raise CompositeExpressionError(
                f"{expression!r}: unexpected {expression[i]!r} at position {i}"
            )
        tokens.append(expression[start:i])
    return tokens


# ---- parser -------------------------------------------------------------------

_REFERENCE = re.compile(
    r"""^(?P<entity>[A-Za-z_][\w-]*)
        \.
        (?P<rest>.+)$""",
    re.VERBOSE,
)


class _Parser:
    def __init__(self, tokens: list[str], expression: str):
        self._tokens = tokens
        self._expression = expression
        self._position = 0

    def parse(self):
        node = self._or()
        if self._position != len(self._tokens):
            raise CompositeExpressionError(
                f"{self._expression!r}: trailing tokens near "
                f"{self._tokens[self._position]!r}"
            )
        return node

    def _peek(self) -> str | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _accept(self, token: str) -> bool:
        if self._peek() == token:
            self._position += 1
            return True
        return False

    def _or(self):
        children = [self._and()]
        while self._accept("||"):
            children.append(self._and())
        return children[0] if len(children) == 1 else BoolOp("||", tuple(children))

    def _and(self):
        children = [self._unary()]
        while self._accept("&&"):
            children.append(self._unary())
        return children[0] if len(children) == 1 else BoolOp("&&", tuple(children))

    def _unary(self):
        if self._accept("!"):
            return Not(self._unary())
        if self._accept("("):
            node = self._or()
            if not self._accept(")"):
                raise CompositeExpressionError(
                    f"{self._expression!r}: missing ')'"
                )
            return node
        return self._term()

    def _term(self):
        token = self._peek()
        if token is None or token in _OPERATORS:
            raise CompositeExpressionError(
                f"{self._expression!r}: expected a term, got {token!r}"
            )
        self._position += 1
        reference = _parse_reference(token, self._expression)
        operator = self._peek()
        if operator in ("==", "!="):
            self._position += 1
            literal = self._peek()
            if literal is None or literal in _OPERATORS:
                raise CompositeExpressionError(
                    f"{self._expression!r}: {operator} needs a right-hand side"
                )
            self._position += 1
            return Comparison(reference, operator, _unquote(literal))
        return reference


def _unquote(token: str) -> str:
    if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
        return token[1:-1]
    return token


def _parse_reference(token: str, expression: str) -> Reference:
    match = _REFERENCE.match(token)
    if not match:
        raise CompositeExpressionError(
            f"{expression!r}: bad reference {token!r} "
            f"(expected '<entity>.<config>')"
        )
    entity = match.group("entity")
    rest = match.group("rest")
    config_path: str | None = None
    want_value = False
    if rest.endswith(".VALUE"):
        want_value = True
        rest = rest[: -len(".VALUE")]
    marker = ".CONFIGPATH=["
    if marker in rest:
        rest, _sep, bracketed = rest.partition(marker)
        if not bracketed.endswith("]"):
            raise CompositeExpressionError(
                f"{expression!r}: CONFIGPATH missing closing ']' in {token!r}"
            )
        config_path = bracketed[:-1]
    if not rest:
        raise CompositeExpressionError(
            f"{expression!r}: reference {token!r} has no config name"
        )
    return Reference(
        entity=entity, config=rest, config_path=config_path, want_value=want_value
    )


@lru_cache(maxsize=1024)
def parse_composite(expression: str):
    """Parse a composite expression into its AST (cached)."""
    expression = expression.strip()
    if not expression:
        raise CompositeExpressionError("empty composite expression")
    tokens = _tokenize(expression)
    return _Parser(tokens, expression).parse()


def _collect_terms(node, out: list) -> None:
    if isinstance(node, (Reference, Comparison)):
        out.append(node)
    elif isinstance(node, Not):
        _collect_terms(node.child, out)
    elif isinstance(node, BoolOp):
        for child in node.children:
            _collect_terms(child, out)


def referenced_entities(expression: str) -> set[str]:
    """All entity names an expression touches (used for cross-entity
    scheduling)."""
    terms: list = []
    _collect_terms(parse_composite(expression), terms)
    entities = set()
    for term in terms:
        reference = term.reference if isinstance(term, Comparison) else term
        entities.add(reference.entity)
    return entities


def referenced_pairs(expression: str) -> list[tuple[str, str]]:
    """All ``(entity, config)`` pairs an expression touches (the keys
    incremental revalidation watches for recomputed per-entity verdicts),
    without repeats, in order of first appearance."""
    terms: list = []
    _collect_terms(parse_composite(expression), terms)
    pairs: dict[tuple[str, str], None] = {}
    for term in terms:
        reference = term.reference if isinstance(term, Comparison) else term
        pairs[(reference.entity, reference.config)] = None
    return list(pairs)


def evaluate_composite(expression: str, context: CompositeContext) -> CompositeResult:
    """Evaluate ``expression`` and report per-term outcomes."""
    ast = parse_composite(expression)
    terms: list = []
    _collect_terms(ast, terms)
    term_results = [(term.render(), term.truth(context)) for term in terms]
    return CompositeResult(passed=ast.truth(context), term_results=term_results)
