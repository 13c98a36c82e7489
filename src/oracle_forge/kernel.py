"""Horn-clause knowledge representation and forward-chaining inference.

Implements the symbolic verifier role: a small stratified-datalog engine with
negation-as-failure, a recursive-descent parser for the ``.kbl`` rule
language, and single-step syllogism verification against a closed fact set.

Rule language (see docs/rule_language.md):

    # comment
    fact parent(alice, bob).
    rule grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
    rule lonely(X) :- person(X), not parent(X, Y).   # rejected: Y unsafe

Variables start with an uppercase letter or '?'; everything else is a
constant.  Zero-arity atoms may omit parentheses.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from enum import Enum

RULE_LANGUAGE_VERSION = "1"


class NonStratifiable(Exception):
    """Some predicate depends negatively on itself.  ``predicates`` names the
    predicates of each strongly connected component of the dependency graph
    that holds a negated edge.  They are found when first read, since the
    rule-base generator drops most of these errors unread."""

    def __init__(self, rules):
        super().__init__(rules)
        self.rules = rules

    @functools.cached_property
    def predicates(self) -> tuple[str, ...]:
        reach: dict[str, set[str]] = {}  # predicates reached in one or more steps
        for r in self.rules:
            for a in itertools.chain(r.body_pos, r.body_neg):
                reach.setdefault(a.predicate, set()).add(r.head.predicate)
        for k in reach:  # Warshall's transitive closure
            for targets in reach.values():
                if k in targets:
                    targets |= reach[k]
        on_cycle: set[str] = set()
        for r in self.rules:
            h = r.head.predicate
            if any(a.predicate in reach.get(h, ()) for a in r.body_neg):
                on_cycle.update(p for p in reach[h] if h in reach.get(p, ()))
        return tuple(sorted(on_cycle))

    def __str__(self):
        return "negation cycle through predicates: " + ", ".join(self.predicates)


class KbError(ValueError):
    pass


class ArityMismatchError(KbError):
    def __init__(self, predicate: str, seen: int, expected: int):
        super().__init__(
            f"predicate {predicate} used with arity {seen}, expected {expected}"
        )


class UnsafeRuleError(KbError):
    def __init__(self, rule: "Rule", variables):
        names = ", ".join(sorted(variables))
        super().__init__(f"unsafe rule {rule}: unbound variables {names}")


class KblSyntaxError(KbError):
    def __init__(self, line: int, col: int, expected: str):
        super().__init__(f"line {line}, col {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


def _is_variable(name: str) -> bool:
    """A term is its name, and a name that starts with '?' or an uppercase
    letter is a variable; any other is a constant."""
    return name[0] == "?" or name[0].isupper()


@dataclass(frozen=True, order=True)
class Atom:
    predicate: str
    args: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.predicate:
            raise KbError("empty predicate")
        if "" in self.args:
            raise KbError("empty term name")

    @property
    def is_ground(self) -> bool:
        return not any(map(_is_variable, self.args))

    def variables(self) -> set[str]:
        return set(filter(_is_variable, self.args))

    def substitute(self, theta: dict[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(theta.get(t, t) for t in self.args))

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(self.args)})"


@dataclass(frozen=True, order=True)
class Fact:
    atom: Atom

    def __post_init__(self):
        if not self.atom.is_ground:
            raise KbError(f"fact must be ground: {self.atom}")

    def __str__(self):
        return str(self.atom)


@dataclass(frozen=True)
class Rule:
    head: Atom
    body_pos: tuple[Atom, ...] = ()
    body_neg: tuple[Atom, ...] = ()

    def check_safety(self) -> None:
        bound: set[str] = set()
        for a in self.body_pos:
            bound |= a.variables()
        need = set(self.head.variables())
        for a in self.body_neg:
            need |= a.variables()
        unsafe = need - bound
        if unsafe:
            raise UnsafeRuleError(self, unsafe)

    def __str__(self):
        if not self.body_pos and not self.body_neg:
            return f"{self.head}."
        parts = [str(a) for a in self.body_pos]
        parts += [f"not {a}" for a in self.body_neg]
        return f"{self.head} :- {', '.join(parts)}."


@dataclass(frozen=True)
class KnowledgeBase:
    facts: frozenset[Fact] = frozenset()
    rules: tuple[Rule, ...] = ()

    def __post_init__(self):
        arities: dict[str, int] = {}

        def check(atom: Atom):
            expected = arities.setdefault(atom.predicate, len(atom.args))
            if expected != len(atom.args):
                raise ArityMismatchError(atom.predicate, len(atom.args), expected)

        for f in self.facts:
            check(f.atom)
        for r in self.rules:
            check(r.head)
            for a in itertools.chain(r.body_pos, r.body_neg):
                check(a)
            r.check_safety()

    def pretty(self) -> str:
        lines = [f"fact {f.atom}." for f in sorted(self.facts)]
        lines += [f"rule {r}" for r in self.rules]
        return "\n".join(lines) + ("\n" if lines else "")


class FailureKind(Enum):
    PARSE_FAILURE = "ParseFailure"
    NO_RULE_FIRING = "NoRuleFiring"
    UNSAFE_RULE = "UnsafeRule"
    ARITY_MISMATCH = "ArityMismatch"


@dataclass(frozen=True)
class StepVerdict:
    conclusions: tuple[Fact, ...] = ()
    failure: FailureKind | None = None
    detail: str = field(default="", compare=False)

    @property
    def executed(self) -> bool:
        return bool(self.conclusions)


# --------------------------------------------------------------------------
# Rule-language parser (recursive descent over one compiled token pattern)

# Trivia (blanks and '#' comments), then the token that starts there, if any:
# group 1 is punctuation, group 2 a name ('?' or a word character, then word
# characters).  The token is optional, so a match never backtracks into the
# trivia, and one that reads no token stops at eof or at a character that
# starts none.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*(?:(:-|[(),.])|(\?\w*|\w+))?")


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0  # where the next token's trivia starts
        self.line = 1
        self.line_start = 0  # offset of the first character of self.line
        self._bump()

    def _bump(self):
        """Read the next token into cur: (kind, text, line, col), with kind in
        {ident, var, punct, eof}."""
        src = self.src
        m = _TOKEN_RE.match(src, self.pos)
        punct, name = m.groups()
        start = m.end() - len(punct or name or "")
        # Only trivia holds newlines.
        newlines = src.count("\n", self.pos, start)
        if newlines:
            self.line += newlines
            self.line_start = src.rindex("\n", self.pos, start) + 1
        line, col = self.line, start - self.line_start + 1
        self.pos = m.end()
        if punct:
            self.cur = ("punct", punct, line, col)
        elif name == "?":
            raise KblSyntaxError(line, col, "name after '?'")
        elif name and (name[0] in "?_" or name[0].isalpha()):
            self.cur = ("var" if _is_variable(name) else "ident", name, line, col)
        elif start == len(src):
            self.cur = ("eof", "", line, col)
        else:  # a name that starts with a digit, or no token at all
            raise KblSyntaxError(line, col, "identifier or punctuation")

    def _expect(self, kind: str, text: str | None = None) -> str:
        k, t, line, col = self.cur
        if k != kind or (text is not None and t != text):
            raise KblSyntaxError(line, col, text or kind)
        self._bump()
        return t

    def parse_term(self) -> str:
        k, t, line, col = self.cur
        if k not in ("ident", "var"):
            raise KblSyntaxError(line, col, "term")
        self._bump()
        return t

    def parse_atom(self) -> Atom:
        k, t, line, col = self.cur
        if k not in ("ident", "var"):
            raise KblSyntaxError(line, col, "predicate name")
        if k == "var":
            raise KblSyntaxError(line, col, "predicate name (lowercase)")
        self._bump()
        args: list[str] = []
        if self.cur[:2] == ("punct", "("):
            self._bump()
            if self.cur[:2] != ("punct", ")"):
                args.append(self.parse_term())
                while self.cur[:2] == ("punct", ","):
                    self._bump()
                    args.append(self.parse_term())
            self._expect("punct", ")")
        return Atom(t, tuple(args))

    def parse_clauses(self) -> tuple[frozenset[Fact], tuple[Rule, ...]]:
        facts: list[Fact] = []
        rules: list[Rule] = []
        while True:
            k, t, line, col = self.cur
            if k == "eof":
                break
            if k != "ident" or t not in ("fact", "rule"):
                raise KblSyntaxError(line, col, "'fact' or 'rule'")
            self._bump()
            if t == "fact":
                atom = self.parse_atom()
                if not atom.is_ground:
                    raise KblSyntaxError(line, col, "ground atom in fact")
                self._expect("punct", ".")
                facts.append(Fact(atom))
            else:
                head = self.parse_atom()
                body_pos: list[Atom] = []
                body_neg: list[Atom] = []
                if self.cur[:2] == ("punct", ":-"):
                    self._bump()
                    while True:
                        negated = False
                        if self.cur[0] == "ident" and self.cur[1] == "not":
                            negated = True
                            self._bump()
                        atom = self.parse_atom()
                        (body_neg if negated else body_pos).append(atom)
                        if self.cur[:2] == ("punct", ","):
                            self._bump()
                            continue
                        break
                self._expect("punct", ".")
                rules.append(Rule(head, tuple(body_pos), tuple(body_neg)))
        return frozenset(facts), tuple(rules)


def parse_clauses(src: str) -> tuple[frozenset[Fact], tuple[Rule, ...]]:
    """Parse ``.kbl`` source into its facts and rules, checking syntax only.

    Raises KblSyntaxError with line/column; arity and safety are left to
    KnowledgeBase.
    """
    return _Parser(src).parse_clauses()


def parse_program(src: str) -> KnowledgeBase:
    """Parse ``.kbl`` source into a KnowledgeBase.

    Raises KblSyntaxError with line/column, ArityMismatchError, or
    UnsafeRuleError.
    """
    return KnowledgeBase(*parse_clauses(src))


def parse_atom(src: str) -> Atom:
    """Parse one atom, optionally followed by ``.``, and nothing else."""
    p = _Parser(src)
    atom = p.parse_atom()
    if p.cur[:2] == ("punct", "."):
        p._bump()
    if p.cur[0] != "eof":
        raise KblSyntaxError(p.cur[2], p.cur[3], "end of input")
    return atom


# --------------------------------------------------------------------------
# Matching and forward chaining


def _index(facts) -> dict[str, dict[tuple[str, ...], Fact]]:
    """The facts by predicate, then by arguments, each predicate's entries
    inserted in argument order.  For the ground atoms of one predicate that
    is the dataclass order, so match (and hence trace) order is independent
    of hash randomization."""
    index: dict[str, dict] = {}
    for f in sorted(facts, key=lambda f: f.atom.args):
        index.setdefault(f.atom.predicate, {})[f.atom.args] = f
    return index


def _join(rule: Rule, sources, known):
    """Yield (head, body facts) for each grounding of rule's positive body, in
    lexicographic order, whose negated atoms are absent from known.  Body
    atom i is matched in the index sources[i]: by one lookup when theta binds
    all its arguments, else against its predicate's facts in order.  No
    predicate, arity or groundness check is needed: index groups by
    predicate, KnowledgeBase fixes arities, and rule safety grounds heads."""

    def extend(i: int, theta: dict, body: tuple[Fact, ...]):
        if i == len(rule.body_pos):
            if not any(na.substitute(theta) in known for na in rule.body_neg):
                yield rule.head.substitute(theta), body
            return
        pattern = rule.body_pos[i]
        group = sources[i].get(pattern.predicate, {})
        matches = group.values()
        if len(group) > 1:
            key = tuple(theta.get(t, t) for t in pattern.args)
            if not any(map(_is_variable, key)):
                matches = (group[key],) if key in group else ()
        for fact in matches:
            bound = dict(theta)
            for p, c in zip(pattern.args, fact.atom.args):
                if _is_variable(p):
                    p = bound.setdefault(p, c)
                if p != c:
                    break
            else:
                yield from extend(i + 1, bound, body + (fact,))

    yield from extend(0, {}, ())


def _delta_join(rule: Rule, old, delta, full, known):
    """The groundings of rule that use a fact of the index delta, in
    lexicographic order: one join per body position i whose predicate delta
    holds, with the atoms before i matched in old, the atom at i in delta
    and the atoms after it in full (Bancilhon & Ramakrishnan, SIGMOD 1986).
    Each grounding comes from the position of its first delta fact only."""
    n = len(rule.body_pos)
    joins = [
        _join(rule, [old] * i + [delta] + [full] * (n - i - 1), known)
        for i, pattern in enumerate(rule.body_pos)
        if pattern.predicate in delta
    ]
    if len(joins) == 1:
        return joins[0]
    return sorted(itertools.chain(*joins), key=lambda grounding: grounding[1])


def _stratify(kb: KnowledgeBase) -> dict[str, int]:
    """The least stratum of each predicate: a rule's head is at least as high
    as each positive body predicate and above each negated one.  Raises
    NonStratifiable when a negation cycle leaves no such numbering."""
    edges = [
        (r.head.predicate, a.predicate, step)
        for r in kb.rules
        for body, step in ((r.body_pos, 0), (r.body_neg, 1))
        for a in body
    ]
    stratum = {f.atom.predicate: 0 for f in kb.facts}
    stratum.update((r.head.predicate, 0) for r in kb.rules)
    stratum.update((b, 0) for _, b, _ in edges)
    # Bellman-Ford relaxation from 0 (positive edge >=, negative edge >)
    # stays at or below the least strata.  Those count the negated atoms on
    # some simple path, so a value above the number of negated atoms proves
    # a negation cycle; without one the relaxation settles.
    top = sum(len(r.body_neg) for r in kb.rules)
    changed = True
    while changed:
        changed = False
        for h, b, step in edges:
            if stratum[h] < stratum[b] + step:
                stratum[h] = stratum[b] + step
                if stratum[h] > top:
                    raise NonStratifiable(kb.rules)
                changed = True
    return stratum


@dataclass(frozen=True)
class Derivation:
    """One rule application recorded during forward chaining."""

    rule: Rule
    body_facts: tuple[Fact, ...]
    conclusion: Fact


def forward_chain_with_trace(kb: KnowledgeBase) -> tuple[frozenset[Fact], tuple[Derivation, ...]]:
    """Least fixpoint plus the derivation trace, semi-naive per stratum: the
    first round of a stratum joins every rule with all facts, so body-less
    rules fire there; later rounds join each rule only with the facts
    derived in the round before, through _delta_join.  New facts go into
    fresh copies of their predicates' index groups, so the index of the
    round before stays intact for body positions that match older facts.
    Rounds end: each but a stratum's last adds one of finitely many atoms."""
    stratum = _stratify(kb)
    rules = sorted(kb.rules, key=str)
    known = {f.atom for f in kb.facts}
    full = _index(kb.facts)
    trace: list[Derivation] = []
    for s in range(max(stratum.values(), default=0) + 1):
        layer_rules = [r for r in rules if stratum[r.head.predicate] == s]
        old = delta = None
        while delta is None or delta:
            new: dict[Atom, Fact] = {}
            for r in layer_rules:
                if delta is None:
                    groundings = _join(r, [full] * len(r.body_pos), known)
                else:
                    groundings = _delta_join(r, old, delta, full, known)
                for head, body in groundings:
                    if head not in known and head not in new:
                        new[head] = fact = Fact(head)
                        trace.append(Derivation(r, body, fact))
            known.update(new)
            old, delta, full = full, _index(new.values()), dict(full)
            for p, group in delta.items():
                full[p] = dict(sorted({**old.get(p, {}), **group}.items()))
    return frozenset(kb.facts).union(d.conclusion for d in trace), tuple(trace)


def forward_chain(kb: KnowledgeBase) -> frozenset[Fact]:
    """All derivable facts (originals included): the least fixpoint."""
    closure, _ = forward_chain_with_trace(kb)
    return closure


def answer_query(kb: KnowledgeBase, goal: Atom) -> bool:
    """Closed-world truth of a ground goal; Fact raises KbError for a goal
    that is not ground, before any chaining."""
    return Fact(goal) in forward_chain(kb)


def verify_step(facts: list[Fact] | tuple[Fact, ...], rule: Rule) -> StepVerdict:
    """Check one syllogistic step: the cited premises alone must satisfy the
    rule body (closed-world negation over those premises) and derive at least
    one ground conclusion.  Arity and safety are KnowledgeBase's checks."""
    fact_set = frozenset(facts)
    try:
        KnowledgeBase(fact_set, (rule,))
    except ArityMismatchError as exc:
        return StepVerdict(failure=FailureKind.ARITY_MISMATCH, detail=str(exc))
    except UnsafeRuleError as exc:
        return StepVerdict(failure=FailureKind.UNSAFE_RULE, detail=str(exc))
    sources = [_index(fact_set)] * len(rule.body_pos)
    known = {f.atom for f in fact_set}
    heads = {Fact(head) for head, _ in _join(rule, sources, known)}
    if not heads:
        return StepVerdict(failure=FailureKind.NO_RULE_FIRING)
    return StepVerdict(tuple(sorted(heads)))


def render_conclusions(verdict: StepVerdict) -> str:
    """Canonical text for engine conclusions, injected into steps."""
    return "; ".join(str(f) for f in verdict.conclusions)
