"""Property-based tests for the composite expression language.

Strategy: generate random expression ASTs, render them to the concrete
syntax, re-parse, and check that evaluation agrees with direct AST
evaluation under random contexts -- a full round-trip of the grammar.
"""

from hypothesis import given, strategies as st

from repro.cvl.composite_expr import (
    BoolOp,
    Comparison,
    DictContext,
    Not,
    Reference,
    evaluate_composite,
    parse_composite,
)

_entities = st.sampled_from(["mysql", "nginx", "sysctl", "docker"])
_configs = st.sampled_from(
    ["ssl-ca", "listen", "net.ipv4.ip_forward", "user", "icc"]
)
_paths = st.sampled_from([None, "mysqld", "http/server"])
_literals = st.sampled_from(["on", "off", "/etc/mysql/cacert.pem", "0"])


@st.composite
def _references(draw):
    return Reference(
        entity=draw(_entities),
        config=draw(_configs),
        config_path=draw(_paths),
        want_value=draw(st.booleans()),
    )


@st.composite
def _terms(draw):
    reference = draw(_references())
    if draw(st.booleans()):
        # Comparisons require .VALUE semantics on the lookup side but the
        # renderer/parser treat the reference itself uniformly.
        return Comparison(
            reference=reference,
            op=draw(st.sampled_from(["==", "!="])),
            literal=draw(_literals),
        )
    return reference


def _expressions(depth: int = 2):
    if depth == 0:
        return _terms()
    sub = _expressions(depth - 1)
    return st.one_of(
        _terms(),
        st.builds(Not, sub),
        st.builds(
            lambda a, b, op: BoolOp(op, (a, b)),
            sub,
            sub,
            st.sampled_from(["&&", "||"]),
        ),
    )


@st.composite
def _contexts(draw):
    verdicts = {}
    values = {}
    for entity in ["mysql", "nginx", "sysctl", "docker"]:
        for config in ["ssl-ca", "listen", "net.ipv4.ip_forward", "user", "icc"]:
            if draw(st.booleans()):
                verdicts[(entity, config)] = draw(st.booleans())
            for path in ["", "mysqld", "http/server"]:
                if draw(st.integers(min_value=0, max_value=3)) == 0:
                    values[(entity, path, config)] = draw(_literals)
    return DictContext(verdicts=verdicts, values=values)


class TestRoundTrip:
    @given(ast=_expressions())
    def test_render_parse_roundtrip_structure(self, ast):
        reparsed = parse_composite(ast.render())
        assert reparsed.render() == ast.render()

    @given(ast=_expressions(), context=_contexts())
    def test_render_parse_preserves_truth(self, ast, context):
        rendered = ast.render()
        direct = ast.truth(context)
        via_text = evaluate_composite(rendered, context).passed
        assert direct == via_text

    @given(ast=_expressions(), context=_contexts())
    def test_double_negation(self, ast, context):
        negated_twice = Not(Not(ast))
        assert negated_twice.truth(context) == ast.truth(context)

    @given(a=_terms(), b=_terms(), context=_contexts())
    def test_de_morgan(self, a, b, context):
        left = Not(BoolOp("&&", (a, b))).truth(context)
        right = BoolOp("||", (Not(a), Not(b))).truth(context)
        assert left == right

    @given(ast=_expressions(), context=_contexts())
    def test_term_results_cover_every_leaf(self, ast, context):
        result = evaluate_composite(ast.render(), context)
        leaves = ast.render().count("==") + ast.render().count("!=")
        assert len(result.term_results) >= max(1, leaves)


# ---- the run context's cross-frame merge ------------------------------------


def _eager_merge(placements):
    """The per-entity verdict map as the engine built it eagerly, result
    by result, before verdicts were computed on request."""
    from repro.engine.results import Verdict

    verdicts = {}
    for _entity, results in placements:
        for result in results:
            if result.verdict is Verdict.COMPLIANT:
                verdict = True
            elif result.verdict is Verdict.NONCOMPLIANT:
                verdict = False
            else:
                verdict = None
            key = (result.entity, result.rule.name)
            existing = verdicts.get(key)
            if existing is True:
                continue
            if verdict is True or existing is None:
                verdicts[key] = verdict
    return verdicts


@given(st.lists(
    st.tuples(_entities, st.lists(st.tuples(
        _configs, st.sampled_from(["compliant", "noncompliant",
                                   "not_applicable", "error"])),
        max_size=6)),
    max_size=8))
def test_lazy_rule_verdict_matches_eager_merge(placed):
    """COMPLIANT on some frame wins, else NONCOMPLIANT anywhere, else
    None -- computed on first request and memoized."""
    from repro.cvl.manifest import Manifest
    from repro.cvl.model import Rule
    from repro.engine.engine import _RunContext
    from repro.engine.results import Outcome, RuleResult, Verdict

    context = _RunContext(None)
    placements = []
    for entity, rows in placed:
        results = [RuleResult(rule=Rule(name=config), entity=entity,
                              target="host:h", verdict=Verdict(verdict),
                              outcome=Outcome.MATCHED)
                   for config, verdict in rows]
        context.record(Manifest(entity=entity, cvl_file=f"{entity}.yaml"),
                       None, results)
        placements.append((entity, results))
    expected = _eager_merge(placements)
    for entity in ["mysql", "nginx", "sysctl", "docker"]:
        for config in ["ssl-ca", "listen", "net.ipv4.ip_forward", "user",
                       "icc"]:
            for _repeat in range(2):
                assert context.rule_verdict(entity, config) == expected.get(
                    (entity, config))
