import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    enumerate_step_verdict,
    naive_closure,
    naive_closure_positive,
    random_kb,
    reference_trace,
)
from oracle_forge import kernel
from oracle_forge.kernel import (
    Atom,
    Fact,
    FailureKind,
    KnowledgeBase,
    Rule,
    UnsafeRuleError,
    answer_query,
    forward_chain,
    parse_atom,
    parse_program,
    verify_step,
)


def fact(src: str) -> Fact:
    return Fact(parse_atom(src))


class TestParser:
    def test_single_fact(self):
        kb = parse_program("fact parent(alice, bob).")
        assert len(kb.facts) == 1
        assert not kb.rules

    def test_rule_with_negation(self):
        kb = parse_program("rule q(X) :- p(X, Y), not r(Y).")
        (r,) = kb.rules
        assert r.head.predicate == "q"
        assert r.body_neg[0].predicate == "r"

    def test_unsafe_rule_rejected(self):
        with pytest.raises(UnsafeRuleError):
            parse_program("rule m(X) :- not p(X).")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(kernel.ArityMismatchError):
            parse_program("fact p(a). fact p(a, b).")

    def test_syntax_error_position(self):
        with pytest.raises(kernel.KblSyntaxError) as exc:
            parse_program("fact p(a)\nfact q(b).")
        assert exc.value.line == 2  # missing dot noticed at next token

    def test_atom_with_optional_final_dot(self):
        assert parse_atom("p(a).") == parse_atom(" p(a) ") == Atom("p", ("a",))

    @pytest.mark.parametrize(
        "src, where",
        [
            ("p(a). @@@ garbage", (1, 7, "identifier or punctuation")),
            ("p(a). q(b)", (1, 7, "end of input")),
            ("p(a) q(b)", (1, 6, "end of input")),
            ("p(a)..", (1, 6, "end of input")),
        ],
    )
    def test_atom_followed_by_text_rejected(self, src, where):
        with pytest.raises(kernel.KblSyntaxError) as exc:
            parse_atom(src)
        assert (exc.value.line, exc.value.col, exc.value.expected) == where

    def test_nonground_fact_rejected(self):
        with pytest.raises(kernel.KbError):
            parse_program("fact p(X).")

    def test_zero_arity_and_comments(self):
        kb = parse_program("# a comment\nfact raining.\nrule wet :- raining.")
        assert answer_query(kb, Atom("wet"))

    def test_empty_term_rejected(self):
        with pytest.raises(kernel.KbError, match="empty term name"):
            Atom("p", ("a", ""))

    def test_question_mark_variables(self):
        kb = parse_program("rule q(?x) :- p(?x).")
        assert kb.rules[0].head.variables() == {"?x"}

    @pytest.mark.parametrize(
        "head, pos, neg, text",
        [
            ("p", (), (), "p."),
            ("a(X)", ("d(X)",), (), "a(X) :- d(X)."),
            ("a(X)", ("d(X)",), ("b(X)",), "a(X) :- d(X), not b(X)."),
            ("a", (), ("b",), "a :- not b."),
        ],
    )
    def test_rule_text_and_round_trip(self, head, pos, neg, text):
        # A rule without a body prints as its head, and one with only negated
        # atoms still prints its body.
        rule = Rule(parse_atom(head), tuple(map(parse_atom, pos)), tuple(map(parse_atom, neg)))
        assert str(rule) == text
        kb = KnowledgeBase(rules=(rule,))
        assert kb.pretty() == f"rule {text}\n"
        assert parse_program(kb.pretty()) == kb

    def test_pretty_print_round_trip_fuzz(self):
        rng = random.Random(1234)
        for _ in range(500):
            kb = random_kb(rng, max_facts=10, max_rules=6)
            assert parse_program(kb.pretty()) == kb


# KblSyntaxError (line, col, expected) for malformed sources, taken from the
# character-by-character tokenizer that the compiled token pattern replaced.
PINNED_SYNTAX_ERRORS = [
    ("fact p(?).", (1, 8, "name after '?'")),
    ("rule q(?) :- p(a).", (1, 8, "name after '?'")),
    ("fact p(1a).", (1, 8, "identifier or punctuation")),
    ("fact 9lives.", (1, 6, "identifier or punctuation")),
    ("fact p(²).", (1, 8, "identifier or punctuation")),
    ("fact p(@).", (1, 8, "identifier or punctuation")),
    ("fact p(a) :", (1, 11, "identifier or punctuation")),
    ("fact p(\u00a0a).", (1, 8, "identifier or punctuation")),
    ("fact p(a)", (1, 10, ".")),
    ("fact p(a).\nrule q(X) :- p(X)", (2, 18, ".")),
    ("fact p(a). # c\n  fact q(b) # no dot", (2, 21, ".")),
    ("fact p(a).\r\nfact q(b)\r\n", (3, 1, ".")),
    ("fact p(a).\r\nfact @.", (2, 6, "identifier or punctuation")),
    ("\tfact\tp(a)\t:-\tq.", (1, 12, ".")),
    ("fact p(a).\r\n\trule q(X) :- p(X) ,, r(X).", (2, 21, "predicate name")),
    ("fact p(ß, é²).\n\tfact Éa.", (2, 7, "predicate name (lowercase)")),
    ("fakt p(a).", (1, 1, "'fact' or 'rule'")),
    ("fact p(a).\nrules q(X) :- p(X).", (2, 1, "'fact' or 'rule'")),
]


_word_char = st.characters(categories=("L", "N")).filter(str.isalnum) | st.sampled_from(
    "_ßé²"
)
_rest = st.lists(_word_char, max_size=4).map("".join)
_lower_name = st.builds(
    str.__add__,
    st.characters(categories=("L",)).filter(lambda c: not c.isupper()) | st.just("_"),
    _rest,
).filter(lambda n: n != "not")
_var_name = st.builds(
    str.__add__,
    st.characters(categories=("Lu",)).filter(str.isupper) | st.just("?"),
    _rest,
).filter(lambda n: n != "?")
_trivia = st.lists(
    st.sampled_from([" ", "\t", "\r", "\n", "\r\n"])
    | st.text(st.characters(exclude_characters="\n"), max_size=6).map(
        lambda t: "#" + t + "\n"
    ),
    max_size=3,
).map("".join)


@st.composite
def _rendered_kbs(draw):
    """A random KB (consistent arities, safe rules) and its source as
    (text, token kind) pieces, with trivia pieces (kind None) drawn between
    tokens.  Two names in a row get at least a space between them."""
    preds = draw(st.lists(_lower_name, min_size=1, max_size=4, unique=True))
    arity = {p: draw(st.integers(0, 2)) for p in preds}
    consts = draw(st.lists(_lower_name, min_size=1, max_size=3))
    variables = draw(st.lists(_var_name, min_size=1, max_size=3))

    def atom(pool):
        p = draw(st.sampled_from(preds))
        return Atom(p, tuple(draw(st.sampled_from(pool)) for _ in range(arity[p])))

    facts, rules = [], []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            facts.append(Fact(atom(consts)))
            continue
        body_pos = [atom(variables + consts)]
        bound = sorted({t for a in body_pos for t in a.args}) or consts[:1]
        body_neg = [atom(bound) for _ in range(draw(st.integers(0, 1)))]
        rules.append(Rule(atom(bound), tuple(body_pos), tuple(body_neg)))

    pieces = []

    def token(text, kind):
        gap = draw(_trivia)
        if not gap and pieces and kind != "punct" and pieces[-1][1] in ("ident", "var"):
            gap = " "
        pieces.extend([(gap, None), (text, kind)])

    def render(a):
        token(a.predicate, "ident")
        if a.args or draw(st.booleans()):
            token("(", "punct")
            for i, t in enumerate(a.args):
                if i:
                    token(",", "punct")
                token(t, "var" if t in variables else "ident")
            token(")", "punct")

    clauses = [("fact", f.atom, ()) for f in facts] + [("rule", r.head, r) for r in rules]
    order = draw(st.permutations(clauses))
    for keyword, head, rule in order:
        token(keyword, "ident")
        render(head)
        if rule and (rule.body_pos or rule.body_neg):
            token(":-", "punct")
            body = [(a, False) for a in rule.body_pos] + [(a, True) for a in rule.body_neg]
            for i, (a, negated) in enumerate(body):
                if i:
                    token(",", "punct")
                if negated:
                    token("not", "ident")
                render(a)
        token(".", "punct")
    pieces.append((draw(_trivia), None))
    rendered_rules = tuple(rule for keyword, _, rule in order if keyword == "rule")
    return KnowledgeBase(frozenset(facts), rendered_rules), pieces


# Names, and whether docs/rule_language.md makes each a variable: one whose
# first character is '?' or an uppercase letter.
TERM_NAMES = [
    ("x", False), ("socrates", False), ("_x", False), ("x1", False), ("éa", False),
    ("ǅa", False), ("X", True), ("Xs", True), ("Éa", True), ("?x", True), ("?X", True),
    ("?1", True),
]


class TestTerms:
    @pytest.mark.parametrize("name, variable", TERM_NAMES)
    def test_a_term_is_its_name(self, name, variable):
        # The parser's token kind, groundness and variables follow one rule.
        atom = parse_atom(f"p({name}, a)")
        assert atom.args == (name, "a")
        assert str(atom) == f"p({name}, a)"
        assert atom.is_ground is not variable
        assert atom.variables() == ({name} if variable else set())
        if variable:
            with pytest.raises(kernel.KblSyntaxError, match="predicate name"):
                parse_atom(f"{name}(a)")
            with pytest.raises(kernel.KbError):
                parse_program(f"fact p({name}).")
        else:
            assert parse_atom(f"{name}(a)") == Atom(name, ("a",))
            assert parse_program(f"fact p({name}).").facts == {Fact(Atom("p", (name,)))}


class TestLexer:
    @pytest.mark.parametrize("src, where", PINNED_SYNTAX_ERRORS)
    def test_pinned_error_positions(self, src, where):
        with pytest.raises(kernel.KblSyntaxError) as exc:
            parse_program(src)
        e = exc.value
        assert (e.line, e.col, e.expected) == where
        assert str(e) == f"line {where[0]}, col {where[1]}: expected {where[2]}"

    @settings(max_examples=300, deadline=None)
    @given(_rendered_kbs())
    def test_rendered_kb_parses_back_with_token_positions(self, rendered):
        kb, pieces = rendered
        src = "".join(text for text, _ in pieces)
        assert parse_program(src) == kb
        expected, offset = [], 0
        for text, kind in pieces:
            if kind is not None:
                line = src.count("\n", 0, offset) + 1
                col = offset - (src.rfind("\n", 0, offset) + 1) + 1
                expected.append((kind, text, line, col))
            offset += len(text)
        lines = src.split("\n")
        expected.append(("eof", "", len(lines), len(lines[-1]) + 1))
        parser, tokens = kernel._Parser(src), []
        while True:
            tokens.append(parser.cur)
            if parser.cur[0] == "eof":
                break
            parser._bump()
        assert tokens == expected
        for kind, text, line, col in tokens:  # each position points at its text
            assert lines[line - 1][col - 1:col - 1 + len(text)] == text


class TestForwardChain:
    def test_one_application(self):
        kb = parse_program("fact p(a). rule q(X) :- p(X).")
        assert forward_chain(kb) == {fact("p(a)"), fact("q(a)")}

    def test_no_rules_identity(self):
        kb = parse_program("fact p(a). fact p(b).")
        assert forward_chain(kb) == kb.facts

    def test_negation_as_failure(self):
        kb = parse_program(
            "fact bird(tweety). fact bird(sam). fact penguin(sam).\n"
            "rule flies(X) :- bird(X), not penguin(X)."
        )
        closure = forward_chain(kb)
        assert fact("flies(tweety)") in closure
        assert fact("flies(sam)") not in closure

    def test_nonstratifiable(self):
        with pytest.raises(kernel.NonStratifiable):
            forward_chain(parse_program("fact r(a). rule p(X) :- r(X), not p(X)."))
        # c and e only depend on the cycle through a and b; they are not on it.
        with pytest.raises(kernel.NonStratifiable) as exc:
            forward_chain(parse_program(
                "fact d. rule a :- d, not b. rule b :- a. rule c :- a. rule e :- c."
            ))
        assert exc.value.predicates == ("a", "b")
        assert str(exc.value) == "negation cycle through predicates: a, b"

    def test_matches_naive_closure_on_random_stratified_kbs(self):
        rng = random.Random(42)
        for _ in range(100):
            kb = random_kb(rng)
            assert forward_chain(kb) == naive_closure(kb)

    @pytest.mark.parametrize(
        "src",
        [
            "rule p.",
            "rule p :- not q.",
            "fact q. rule p :- not q.",
            "rule p. rule r :- p.",
            "rule p(a). rule s(X) :- p(X).",
        ],
    )
    def test_bodyless_rules_and_factless_kbs_match_naive_closure(self, src):
        # random_kb always draws a fact and a positive body atom, so the
        # random oracle tests never reach these cases.
        kb = parse_program(src)
        assert forward_chain(kb) == naive_closure(kb)

    def test_trace_comes_in_lexicographic_order(self):
        # Corpus proofs are read off the trace, so its order is part of the
        # output: rules by their text, then body facts in sorted order.
        kb = parse_program(
            "fact e(b, c). fact e(c, d). fact e(a, b).\n"
            "rule t(X, Z) :- e(X, Y), e(Y, Z).\n"
            "rule s(X) :- e(X, Y).\n"
        )
        _, trace = kernel.forward_chain_with_trace(kb)
        assert [str(d.conclusion) for d in trace] == [
            "s(a)", "s(b)", "s(c)", "t(a, c)", "t(b, d)"
        ]

    @staticmethod
    def trace_of(kb):
        _, trace = kernel.forward_chain_with_trace(kb)
        return [
            (str(d.rule), tuple(map(str, d.body_facts)), str(d.conclusion))
            for d in trace
        ]

    def test_trace_matches_reference_on_random_stratified_kbs(self):
        rng = random.Random(2024)
        derivations = 0
        for _ in range(250):
            kb = random_kb(rng)
            trace = self.trace_of(kb)
            assert trace == reference_trace(kb)
            derivations += len(trace)
        assert derivations > 50

    @pytest.mark.parametrize(
        "recursive_rule",
        ["rule t(X, Z) :- t(X, Y), e(Y, Z).", "rule t(X, Z) :- t(X, Y), t(Y, Z)."],
    )
    def test_trace_matches_reference_on_path_closure(self, recursive_rule):
        # The second form puts new facts at both body positions of a rule.
        edges = [f"fact e(c{i}, c{i + 1})." for i in range(20)]
        rules = ["rule t(X, Y) :- e(X, Y).", recursive_rule]
        kb = parse_program("\n".join(edges + rules))
        trace = self.trace_of(kb)
        assert len(trace) == 210
        assert trace == reference_trace(kb)

    def test_matches_fully_naive_closure_without_negation(self):
        rng = random.Random(7)
        for _ in range(100):
            kb = random_kb(rng, negation=False)
            assert forward_chain(kb) == naive_closure_positive(kb)

    def test_order_independence(self):
        rng = random.Random(11)
        for _ in range(30):
            kb = random_kb(rng, max_facts=12, max_rules=6)
            permuted = KnowledgeBase(kb.facts, tuple(reversed(kb.rules)))
            assert forward_chain(kb) == forward_chain(permuted)

    def test_idempotence(self):
        rng = random.Random(13)
        for _ in range(30):
            kb = random_kb(rng, max_facts=12, max_rules=6)
            closure = forward_chain(kb)
            again = forward_chain(KnowledgeBase(closure, kb.rules))
            assert again == closure

    def test_monotonicity_without_negation(self):
        rng = random.Random(17)
        for _ in range(30):
            kb = random_kb(rng, max_facts=10, max_rules=6, negation=False)
            base = forward_chain(kb)
            # add a fresh fact for an existing predicate, preserving arity
            some = sorted(kb.facts)[0]
            extra = Fact(Atom(some.atom.predicate, ("zz",) * len(some.atom.args)))
            grown = forward_chain(KnowledgeBase(kb.facts | {extra}, kb.rules))
            assert base <= grown


class TestVerifyStep:
    def test_classic_syllogism(self):
        rule = parse_program("rule mortal(X) :- man(X).").rules[0]
        verdict = verify_step([fact("man(socrates)")], rule)
        assert verdict.executed
        assert verdict.conclusions == (fact("mortal(socrates)"),)

    def test_executed_is_having_conclusions(self):
        # The verdict stores no flag beside its conclusions to disagree with them.
        assert not kernel.StepVerdict().executed
        assert not kernel.StepVerdict(failure=FailureKind.NO_RULE_FIRING).executed
        assert kernel.StepVerdict((fact("p(a)"),)).executed

    def test_no_rule_firing(self):
        rule = parse_program("rule q(X) :- r(X).").rules[0]
        verdict = verify_step([fact("p(a)")], rule)
        assert not verdict.executed
        assert verdict.failure == FailureKind.NO_RULE_FIRING

    def test_unsafe_rule(self):
        rule = Rule(Atom("q", ("Y",)), (Atom("p", ("X",)),))
        verdict = verify_step([fact("p(a)")], rule)
        assert verdict.failure == FailureKind.UNSAFE_RULE

    def test_arity_mismatch(self):
        rule = parse_program("rule q(X) :- p(X).").rules[0]
        verdict = verify_step([Fact(Atom("p", ("a", "b")))], rule)
        assert verdict.failure == FailureKind.ARITY_MISMATCH

    def test_negation_checked_against_given_facts_only(self):
        rule = parse_program("rule q(X) :- p(X), not r(X).").rules[0]
        assert verify_step([fact("p(a)")], rule).executed
        assert not verify_step([fact("p(a)"), fact("r(a)")], rule).executed

    def test_empty_facts_nonground_head_never_executes(self):
        rule = parse_program("rule q(X) :- p(X).").rules[0]
        assert not verify_step([], rule).executed

    def test_conclusions_sorted_canonically(self):
        rule = parse_program("rule q(X) :- p(X).").rules[0]
        verdict = verify_step([fact("p(b)"), fact("p(a)")], rule)
        assert verdict.conclusions == (fact("q(a)"), fact("q(b)"))

    def test_matches_enumeration_oracle_on_random_pairs(self):
        rng = random.Random(99)
        checked = 0
        while checked < 1000:
            kb = random_kb(rng, max_facts=8, max_rules=3)
            if not kb.rules:
                continue
            rule = rng.choice(kb.rules)
            facts = sorted(kb.facts)[: rng.randint(0, len(kb.facts))]
            verdict = verify_step(facts, rule)
            expected = enumerate_step_verdict(facts, rule)
            assert verdict.executed == bool(expected)
            assert set(verdict.conclusions) == expected
            checked += 1

    def test_soundness_property(self):
        # every conclusion is the rule head under a substitution grounded by
        # the given facts: implied by oracle agreement, spot-check shape here
        rule = parse_program("rule q(X, Y) :- p(X), p(Y).").rules[0]
        verdict = verify_step([fact("p(a)"), fact("p(b)")], rule)
        assert verdict.executed
        assert all(f.atom.predicate == "q" for f in verdict.conclusions)
        assert len(verdict.conclusions) == 4


class TestAnswerQuery:
    def test_membership(self):
        kb = parse_program("fact p(a).")
        assert answer_query(kb, parse_atom("p(a)"))

    def test_closed_world(self):
        kb = parse_program("fact p(a).")
        assert not answer_query(kb, parse_atom("p(b)"))

    def test_agrees_with_oracle_closure(self):
        rng = random.Random(21)
        for _ in range(30):
            kb = random_kb(rng, max_facts=10, max_rules=6)
            closure = naive_closure(kb)
            for f in sorted(closure)[:5]:
                assert answer_query(kb, f.atom)

    def test_nonground_goal_rejected(self):
        with pytest.raises(kernel.KbError):
            answer_query(parse_program("fact p(a)."), Atom("p", ("X",)))
