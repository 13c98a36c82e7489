"""Shared hypothesis strategies, independent brute-force oracles, and the
gold responses and planted corpora that test the stage-1 filter.

The oracles here (naive ground closure, all-substitution step enumeration)
are deliberately written without reference to the engine internals; they are
the second route the engine is checked against.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass

import hypothesis.strategies as st

from oracle_forge import template
from oracle_forge.corpus import TaskInstance, gold_step
from oracle_forge.gateway import TRANSLATION_ERROR
from oracle_forge.kernel import Atom, Fact, KnowledgeBase, Rule

# --------------------------------------------------------------------------
# Template strategies

_TRICKY = [
    "<RULE>",
    "</FACTS>",
    "\\",
    "a\\<b",
    "FINAL ANSWER: cheat",
    "<QUERY>nested</QUERY>",
    "line1\nline2",
    "- dash prefix",
    "trailing backslash\\",
]

_plain_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)

field_text = st.one_of(_plain_text, st.sampled_from(_TRICKY))

nonempty_field = field_text.filter(lambda s: bool(s.strip()))

_answer_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    min_size=1,
    max_size=20,
).filter(lambda s: s == s.strip() and bool(s))

revision_results = st.one_of(
    st.just(template.RETAINED_TOKEN),
    field_text.map(lambda text: f"{template.REVISED_PREFIX} {text}"),
)


@st.composite
def reasoning_steps(draw):
    return template.ReasoningStep(
        query=draw(nonempty_field),
        facts=tuple(draw(st.lists(nonempty_field, min_size=1, max_size=4))),
        rule=draw(nonempty_field),
        revision=draw(field_text),
        revision_result=draw(revision_results),
        reasoning_result=draw(nonempty_field),
    )


@st.composite
def structured_responses(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    steps = tuple(draw(reasoning_steps()) for _ in range(n))
    final = draw(st.one_of(st.just(""), _answer_text))
    return template.StructuredResponse(steps=steps, final_answer=final)


# Escape pieces: the characters the escape table reads, and every tag.
ESCAPE_PIECES = ["\\", "<", ">", "/", "\n", "a", "n", " "] + [
    f"<{slash}{tag}>" for tag in template.TAG_ORDER for slash in ("", "/")
]
# Pieces a mutation inserts: tags, backslashes, blank fact entries, blanks.
_MUTATION_PIECES = ESCAPE_PIECES + ["\\\\", "- \n", "\n- \n", "\t", "\n\n", "FINAL ANSWER: "]
# Bodies a mutation puts after an opening tag: blanks, blank fact entries,
# lone backslashes and half-written REVISION_RESULT forms.
_MUTATION_BODIES = [
    "", " ", "\t", "\n", "\\", "\\ ", "\n- \n", "\n- a\n- \n", "\n-  \n- b\n", "\n- \t\n",
    "REVISED:", "REVISED: ", " RETAINED",
]


@st.composite
def mutated_responses(draw):
    """A serialized response after one to four edits: insert a piece, delete
    a few characters, or replace the body after an opening tag (up to the
    next ``<``)."""
    raw = template.serialize_response(draw(structured_responses()))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["insert", "delete", "body"]))
        i = draw(st.integers(0, len(raw)))
        if edit == "insert":
            raw = raw[:i] + draw(st.sampled_from(_MUTATION_PIECES)) + raw[i:]
        elif edit == "delete":
            raw = raw[:i] + raw[i + draw(st.integers(1, 8)):]
        else:
            tags = [m.end() for m in re.finditer(r"<[A-Z_]+>", raw)]
            if tags:
                start = draw(st.sampled_from(tags))
                end = raw.find("<", start)
                body = draw(st.sampled_from(_MUTATION_BODIES))
                raw = raw[:start] + body + raw[end if end >= 0 else len(raw):]
    return raw


# --------------------------------------------------------------------------
# Reference template parser: a tag-by-tag scan that finds each closing tag
# with str.find and skips a hit after an odd run of backslashes.  The
# compiled step grammar in ``template`` is checked against it.


def _find_unescaped(text: str, needle: str, start: int) -> int:
    """Index of the first occurrence of needle preceded by an even number of
    backslashes, or -1."""
    pos = start
    while True:
        idx = text.find(needle, pos)
        if idx < 0:
            return -1
        n_bs = 0
        j = idx - 1
        while j >= 0 and text[j] == "\\":
            n_bs += 1
            j -= 1
        if n_bs % 2 == 0:
            return idx
        pos = idx + 1


def _reference_step(raw: str, pos: int, step_index: int):
    fields = []
    for k, tag in enumerate(template.TAG_ORDER):
        m = template._OPEN_TAG_RE.match(raw, pos)
        seen = m[1]
        if seen != tag:
            if seen is None or template.TAG_ORDER.index(seen) > k:
                raise template.ParseError(f"missing <{tag}> in step {step_index}")
            raise template.ParseError(
                f"<{seen}> appears where <{tag}> was expected in step {step_index}"
            )
        close = f"</{tag}>"
        end = _find_unescaped(raw, close, m.end())
        if end < 0:
            raise template.ParseError(f"unclosed <{tag}> block")
        body = raw[m.end():end]
        pos = end + len(close)
        if tag == "FACTS":
            fields.append(template._parse_facts_body(body))
        else:
            fields.append(template._unescape(body))
    return template.ReasoningStep(*fields), pos


def reference_parse(raw: str, require_final_answer: bool = False):
    """``template.parse_response`` written as a scan of one tag at a time:
    the same steps, or the same error message."""
    steps = []
    final_answer = ""
    pos = 0
    while True:
        m = template._OPEN_TAG_RE.match(raw, pos)
        if m[1] == "QUERY":
            step, pos = _reference_step(raw, pos, len(steps))
            steps.append(step)
            continue
        if m[1] is not None:
            raise template.ParseError(f"missing <QUERY> in step {len(steps)}")
        pos = m.end()
        if pos == len(raw):
            break
        if not raw.startswith(template.FINAL_ANSWER_PREFIX, pos):
            raise template.ParseError(
                f"unexpected content at offset {pos}: {raw[pos:pos + 30]!r}"
            )
        m = template._FINAL_RE.match(raw, pos)
        final_answer = m.group("answer").strip()
        if not final_answer:
            raise template.ParseError("response has no FINAL ANSWER line")
        if raw[m.end():].lstrip(" \t\r\n"):
            raise template.ParseError("content after FINAL ANSWER line")
        break
    if not steps:
        raise template.ParseError("missing <QUERY> in step 0")
    if require_final_answer and not final_answer:
        raise template.ParseError("response has no FINAL ANSWER line")
    return template.StructuredResponse(steps=tuple(steps), final_answer=final_answer)


def parse_outcome(parse, raw):
    """The response a parser returns, or its error's type and message."""
    try:
        return parse(raw)
    except template.ParseError as exc:
        return type(exc), str(exc)


# --------------------------------------------------------------------------
# Random stratified knowledge bases

PREDS = [f"p{i}" for i in range(8)]
CONSTS = list("abcde")
VARS = list("XYZ")


def is_variable(term: str) -> bool:
    """The rule of docs/rule_language.md, written out here so that the
    oracles below do not lean on the engine's own test: a term whose name
    starts with '?' or an uppercase letter is a variable."""
    return term.startswith("?") or term[:1].isupper()


def is_ground(atom: Atom) -> bool:
    return not any(is_variable(t) for t in atom.args)


def random_kb(
    rng: random.Random,
    max_facts: int = 30,
    max_rules: int = 10,
    negation: bool = True,
) -> KnowledgeBase:
    """Random KB, stratified by construction: every rule's body predicates
    have index <= the head's, negated ones strictly less.  So that rules
    fire and chain, facts hold only for the three lowest predicates, rules
    are drawn in head order, a body reads mostly the highest predicates that
    hold facts or head an earlier rule, a term is mostly a variable, and a
    second body atom joins the first on its last variable."""
    arity = {p: rng.choice((1, 2)) for p in PREDS}

    def term(variables):
        if variables and rng.random() < 0.8:
            return rng.choice(variables)
        return rng.choice(CONSTS)

    facts = set()
    for _ in range(rng.randint(1, max_facts)):
        p = rng.choice(PREDS[:3])
        facts.add(Fact(Atom(p, tuple(rng.choice(CONSTS) for _ in range(arity[p])))))

    live = {f.atom.predicate for f in facts}
    rules = []
    for h_idx in sorted(rng.randint(0, len(PREDS) - 1) for _ in range(rng.randint(0, max_rules))):
        choices = [p for p in PREDS[: h_idx + 1] if p in live] or PREDS[: h_idx + 1]
        body_pos = []
        bound: list[str] = []
        for _ in range(rng.randint(1, 2)):
            p = choices[max(rng.randrange(len(choices)), rng.randrange(len(choices)))]
            args = bound[-1:] or [rng.choice(VARS)]
            args += [term(VARS) for _ in range(arity[p] - 1)]
            bound += [t for t in args if is_variable(t)]
            body_pos.append(Atom(p, tuple(args)))
        head = Atom(PREDS[h_idx], tuple(term(bound) for _ in range(arity[PREDS[h_idx]])))
        body_neg = []
        if negation and h_idx > 0 and rng.random() < 0.4:
            p = PREDS[rng.randint(0, h_idx - 1)]
            body_neg.append(Atom(p, tuple(term(bound) for _ in range(arity[p]))))
        rules.append(Rule(head, tuple(body_pos), tuple(body_neg)))
        live.add(head.predicate)
    rng.shuffle(rules)  # the engine must not depend on rules coming in head order
    return KnowledgeBase(frozenset(facts), tuple(rules))


# --------------------------------------------------------------------------
# Brute-force oracles


def _all_constants(kb: KnowledgeBase):
    consts = set()
    for f in kb.facts:
        consts.update(t for t in f.atom.args)
    for r in kb.rules:
        for a in itertools.chain((r.head,), r.body_pos, r.body_neg):
            consts.update(t for t in a.args if not is_variable(t))
    return sorted(consts)


def _ground_rule_instances(rule: Rule, consts):
    variables = sorted(
        set(
            t
            for a in itertools.chain((rule.head,), rule.body_pos, rule.body_neg)
            for t in a.args
            if is_variable(t)
        )
    )
    if not variables:
        yield rule.head, rule.body_pos, rule.body_neg
        return
    for combo in itertools.product(consts, repeat=len(variables)):
        theta = dict(zip(variables, combo))
        yield (
            rule.head.substitute(theta),
            tuple(a.substitute(theta) for a in rule.body_pos),
            tuple(a.substitute(theta) for a in rule.body_neg),
        )


def naive_closure(kb: KnowledgeBase) -> frozenset[Fact]:
    """Brute-force stratified closure: process predicates in index order
    (valid for KBs from random_kb, whose negation points down the order),
    repeating all ground instantiations until nothing changes."""
    consts = _all_constants(kb)
    facts = {f.atom for f in kb.facts}

    def head_index(rule):
        name = rule.head.predicate
        return int(name[1:]) if name[1:].isdigit() else 0

    for s in range(len(PREDS)):
        layer = [r for r in kb.rules if head_index(r) == s]
        changed = True
        while changed:
            changed = False
            for r in layer:
                for head, pos, neg in _ground_rule_instances(r, consts):
                    if not is_ground(head):
                        continue
                    if all(a in facts for a in pos) and not any(
                        a in facts for a in neg
                    ):
                        if head not in facts:
                            facts.add(head)
                            changed = True
    return frozenset(Fact(a) for a in facts)


def naive_closure_positive(kb: KnowledgeBase) -> frozenset[Fact]:
    """Fully naive closure for negation-free KBs (no stratification needed)."""
    assert all(not r.body_neg for r in kb.rules)
    consts = _all_constants(kb)
    facts = {f.atom for f in kb.facts}
    changed = True
    while changed:
        changed = False
        for r in kb.rules:
            for head, pos, _neg in _ground_rule_instances(r, consts):
                if is_ground(head) and all(a in facts for a in pos):
                    if head not in facts:
                        facts.add(head)
                        changed = True
    return frozenset(Fact(a) for a in facts)


def enumerate_step_verdict(facts, rule: Rule):
    """All-substitution oracle for single-step verification: heads derivable
    from exactly the given facts, closed-world negation over them."""
    fact_atoms = {f.atom for f in facts}
    consts = sorted(
        set(t for a in fact_atoms for t in a.args)
        | {
            t
            for a in itertools.chain((rule.head,), rule.body_pos, rule.body_neg)
            for t in a.args
            if not is_variable(t)
        }
    )
    heads = set()
    for head, pos, neg in _ground_rule_instances(rule, consts):
        if not is_ground(head):
            continue
        if all(a in fact_atoms for a in pos) and not any(a in fact_atoms for a in neg):
            heads.add(Fact(head))
    return heads


def _unify(patterns, atoms):
    """The substitution that maps each pattern onto its atom, or None."""
    theta: dict[str, str] = {}
    for pattern, atom in zip(patterns, atoms):
        for p, c in zip(pattern.args, atom.args):
            if is_variable(p):
                if theta.setdefault(p, c) != c:
                    return None
            elif p != c:
                return None
    return theta


def reference_trace(kb: KnowledgeBase):
    """The semi-naive derivation trace by brute force, as (rule text, body
    facts, conclusion) strings.  Strata are the least ones, found by
    relaxation; within a stratum, rules go in the order of their text, and
    each round tries the groundings of a rule in the order of
    itertools.product over the sorted facts for each body atom.  A grounding
    is kept when it uses a fact derived in the round before (any fact, in a
    stratum's first round) and its head is new.  Only for stratifiable KBs."""
    stratum = {f.atom.predicate: 0 for f in kb.facts}
    for r in kb.rules:
        for a in itertools.chain((r.head,), r.body_pos, r.body_neg):
            stratum[a.predicate] = 0
    changed = True
    while changed:
        changed = False
        for r in kb.rules:
            for body, step in ((r.body_pos, 0), (r.body_neg, 1)):
                for a in body:
                    if stratum[r.head.predicate] < stratum[a.predicate] + step:
                        stratum[r.head.predicate] = stratum[a.predicate] + step
                        changed = True

    known = {f.atom for f in kb.facts}
    trace = []
    for s in range(max(stratum.values(), default=0) + 1):
        rules = sorted((r for r in kb.rules if stratum[r.head.predicate] == s), key=str)
        delta = None
        while delta is None or delta:
            facts = sorted(known)
            new: set[Atom] = set()
            for r in rules:
                choices = [
                    [a for a in facts if a.predicate == p.predicate] for p in r.body_pos
                ]
                for body in itertools.product(*choices):
                    theta = _unify(r.body_pos, body)
                    if theta is None or any(
                        a.substitute(theta) in known for a in r.body_neg
                    ):
                        continue
                    head = r.head.substitute(theta)
                    if head in known or head in new:
                        continue
                    if delta is None or not delta.isdisjoint(body):
                        new.add(head)
                        trace.append((str(r), tuple(map(str, body)), str(head)))
            known |= new
            delta = new
    return trace


# --------------------------------------------------------------------------
# Reference audit record: a beam node's audit fields as a dict, in sorted key
# order.  ``json.dumps`` of it is the line that ``datafactory`` renders.


def reference_record(node, task_id: str) -> dict:
    executed = bool(node.verdict and node.verdict.executed)
    failure_class = None
    failure_kind = None
    if node.step is not None and not executed:
        failure_class = node.translation.error_kind or TRANSLATION_ERROR
        failure_kind = node.verdict.failure.value
    return {
        "answer": node.answer,
        "depth": node.depth,
        "executed": executed,
        "failure_class": failure_class,
        "failure_kind": failure_kind,
        "has_step": node.step is not None,
        "id": node.id,
        "parent": node.parent,
        "selected": node.selected,
        "task_id": task_id,
        "terminal": node.terminal,
        "total": node.score.total,
        "w1": node.score.w1,
        "w2": node.score.w2,
        "w3": node.score.w3,
    }


# --------------------------------------------------------------------------
# Gold responses and planted stage-1 corpora


def gold_response(task: TaskInstance) -> template.StructuredResponse:
    steps = tuple(gold_step(task, i) for i in range(len(task.ground_truth_proof)))
    return template.StructuredResponse(steps=steps, final_answer=task.gold_answer)


PLANT_CLEAN = "clean"
PLANT_MALFORMED = "malformed"
PLANT_WRONG_ANSWER = "wrong_answer"


@dataclass(frozen=True)
class PlantedSample:
    task: TaskInstance
    raw: str
    label: str


def planted_stage1_corpus(
    tasks,
    malformed_frac: float = 0.4,
    wrong_frac: float = 0.2,
    seed: int = 0,
) -> list[PlantedSample]:
    """Gold responses with a known fraction of planted defects, for testing
    the stage-1 filter."""
    tasks = list(tasks)
    rng = random.Random(("planted", seed).__repr__())
    n = len(tasks)
    n_malformed = round(n * malformed_frac)
    n_wrong = round(n * wrong_frac)
    labels = (
        [PLANT_MALFORMED] * n_malformed
        + [PLANT_WRONG_ANSWER] * n_wrong
        + [PLANT_CLEAN] * (n - n_malformed - n_wrong)
    )
    rng.shuffle(labels)
    out = []
    for task, label in zip(tasks, labels):
        raw = template.serialize_response(gold_response(task))
        if label == PLANT_MALFORMED:
            raw = raw.replace("<RULE>", "", 1)
        elif label == PLANT_WRONG_ANSWER:
            flipped = "false" if task.gold_answer == "true" else "true"
            raw = raw.replace(
                f"{template.FINAL_ANSWER_PREFIX} {task.gold_answer}",
                f"{template.FINAL_ANSWER_PREFIX} {flipped}",
            )
        out.append(PlantedSample(task, raw, label))
    return out


# --------------------------------------------------------------------------
# Golden stage-2 runs

GOLDEN_CORPORA = {
    "chain": {"kind": "chain", "hops": 4},
    "rulebase": {"kind": "rulebase", "n_facts": 12, "n_rules": 8, "negation": True},
}


def golden_config(tmp_path, kind, count=40):
    """The path of the config file of the golden stage-2 run of ``kind``: the
    scripted-noisy config of perfbench/run.py:corpus_config at seed 3, whose
    benchmark corpus is 400 tasks."""
    config = {
        "backend": "scripted-noisy",
        "seed": 3,
        "workers": 2,
        "prompts_dir": None,
        "corruption": {"p_bad_rule": 0.3, "p_bad_fact": 0.1},
        "corpus": dict(GOLDEN_CORPORA[kind], count=count),
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)
