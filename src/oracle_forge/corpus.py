"""Deterministic synthetic reasoning tasks with ground-truth proofs.

Two generators:

- ``gen_chain_task``: linear implication chains over fictional ontologies
  ("every wumpus is a yumpus"), one subject constant, plus distractor rules
  that never fire.
- ``gen_rulebase_task``: small random stratified rule bases whose query truth
  is computed by the forward chainer, with the proof extracted from the
  derivation trace.

Every task carries an exact NL <-> symbolic pairing table, which makes the
scripted translator infallible unless deliberately corrupted, and a
ground-truth proof replayable through the step verifier.

Generated tasks share their terms and sentences (hash-consing): the
``functools.cache`` helpers ``_unary_atom``, ``_unary_fact`` and ``_fact_nl``
build each unary atom, ground fact and fact sentence once per process, and
every task holds that one object.  The vocabulary bounds them: 112 words
times 8 names (and ``X``, for ``_unary_atom``) entries each.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cache, cached_property

from . import kernel, template
from .kernel import Atom, Derivation, Fact, KnowledgeBase, Rule


class RetryExhausted(RuntimeError):
    pass


@dataclass
class TaskInstance:
    id: str
    question: str
    context: str
    gold_answer: str
    ground_truth_proof: tuple[Derivation, ...]
    nl_pairing: dict[str, Fact | Rule]
    kb: KnowledgeBase | None = None

    @property
    def prompt(self) -> str:
        """The task as the model sees it: the context, then the question."""
        return f"{self.context}\n\n{self.question}"

    @cached_property
    def _nl_by_symbol(self) -> dict[Fact | Rule, str]:
        return {sym: nl for nl, sym in self.nl_pairing.items()}

    def nl_of(self, sym: Fact | Rule) -> str:
        return self._nl_by_symbol[sym]


# --------------------------------------------------------------------------
# Fictional vocabulary

_ONSETS = ["w", "y", "z", "d", "r", "t", "v", "g", "f", "n", "l", "b", "sh", "br"]
_NUCLEI = ["um", "or", "im", "el", "am", "ol", "ur", "ax"]
_NAMES = ["max", "alex", "sam", "fae", "rex", "wren", "polly", "stella"]


def _nonsense_words(rng: random.Random, count: int) -> list[str]:
    size = len(_ONSETS) * len(_NUCLEI)
    if count > size:
        raise ValueError(f"a task needs {count} distinct words, but the word list holds {size}")
    words: list[str] = []
    seen = set()
    while len(words) < count:
        w = rng.choice(_ONSETS) + rng.choice(_NUCLEI) + "pus"
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


@cache
def _unary_atom(predicate: str, term: str) -> Atom:
    return Atom(predicate, (term,))


@cache
def _unary_fact(predicate: str, name: str) -> Fact:
    return Fact(_unary_atom(predicate, name))


@cache
def _fact_nl(atom: Atom) -> str:
    return f"{atom.args[0].capitalize()} is a {atom.predicate}."


def _rule_nl(rule: Rule) -> str:
    body = [f"a {a.predicate}" for a in rule.body_pos]
    body += [f"not a {a.predicate}" for a in rule.body_neg]
    if len(rule.body_pos) == 1 and not rule.body_neg:
        return f"Every {rule.body_pos[0].predicate} is a {rule.head.predicate}."
    return (
        "Anything that is "
        + " and ".join(body)
        + f" is a {rule.head.predicate}."
    )


# --------------------------------------------------------------------------
# Chain tasks (linear ontologies)


def gen_chain_task(hops: int, distractors: int = 2, seed: int = 0) -> TaskInstance:
    """A unique hops-length implication chain from a subject constant; the
    query holds for an even seed.  ``CorpusSpec`` keeps both sizes >= 1."""
    rng = random.Random(("chain", hops, distractors, seed).__repr__())
    words = _nonsense_words(rng, hops + 1 + 2 * distractors)
    chain = words[: hops + 1]
    subject = rng.choice(_NAMES)

    chain_facts = [_unary_fact(p, subject) for p in chain]
    rules = [
        Rule(_unary_atom(chain[i + 1], "X"), (_unary_atom(chain[i], "X"),))
        for i in range(hops)
    ]
    distractor_rules = []
    for i in range(distractors):
        src = words[hops + 1 + 2 * i]
        dst = words[hops + 2 + 2 * i]
        distractor_rules.append(Rule(_unary_atom(dst, "X"), (_unary_atom(src, "X"),)))
    kb = KnowledgeBase(frozenset(chain_facts[:1]), tuple(rules + distractor_rules))

    gold_true = seed % 2 == 0
    if gold_true:
        query = chain_facts[hops].atom
    else:
        query = _unary_atom(distractor_rules[0].head.predicate, subject)
    proof = tuple(
        Derivation(rules[i], (chain_facts[i],), chain_facts[i + 1]) for i in range(hops)
    )
    return _task(f"chain-{hops}h-{seed}", kb, chain_facts, query, gold_true, proof)


# --------------------------------------------------------------------------
# Rulebase tasks (random stratified KBs)

MAX_RULEBASE_FACTS = 30
MAX_RULEBASE_RULES = 12
_GEN_RETRIES = 100


def gen_rulebase_task(
    n_facts: int = 6,
    n_rules: int = 5,
    negation: bool = False,
    seed: int = 0,
) -> TaskInstance:
    """A random stratified rule base, sized within ``CorpusSpec``'s bounds, whose
    query truth forward chaining decides; proof steps come from its trace."""
    rng = random.Random(("rulebase", n_facts, n_rules, negation, seed).__repr__())
    for attempt in range(_GEN_RETRIES):
        task = _try_rulebase(rng, n_facts, n_rules, negation, seed)
        if task is not None:
            return task
    raise RetryExhausted(
        f"no satisfiable rulebase after {_GEN_RETRIES} attempts (seed {seed})"
    )


def _try_rulebase(rng, n_facts, n_rules, negation, seed) -> TaskInstance | None:
    # Names are drawn before any term is built, since most rule bases fail
    # to stratify.  random.sample picks by index, so sampling cell indices
    # draws what sampling the ground atoms themselves would.
    preds = _nonsense_words(rng, rng.randint(5, 8))
    names = rng.sample(_NAMES, rng.randint(3, 5))
    n_cells = len(preds) * len(names)
    fact_cells = rng.sample(range(n_cells), min(n_facts, n_cells))

    drawn: dict[tuple, None] = {}  # (head, body_pos, body_neg) names, in order
    for _ in range(n_rules * 3):
        if len(drawn) >= n_rules:
            break
        head = rng.choice(preds)
        body_preds = rng.sample(preds, rng.randint(1, 2))
        body_pos = tuple(p for p in body_preds if p != head)
        if not body_pos:
            continue
        body_neg = ()
        if negation and rng.random() < 0.4:
            neg_choices = [p for p in preds if p != head and p not in body_preds]
            if neg_choices:
                body_neg = (rng.choice(neg_choices),)
        drawn.setdefault((head, body_pos, body_neg))
    if len(drawn) < n_rules:
        return None

    unary = {p: _unary_atom(p, "X") for p in preds}
    rules = [
        Rule(unary[h], tuple(map(unary.get, pos)), tuple(map(unary.get, neg)))
        for h, pos, neg in drawn
    ]
    grid = [_unary_fact(p, c) for p in preds for c in names]
    facts = frozenset(grid[i] for i in fact_cells)
    try:
        kb = KnowledgeBase(facts, tuple(rules))
        closure, trace = kernel.forward_chain_with_trace(kb)
    except kernel.NonStratifiable:
        return None
    if not trace:
        return None

    gold_true = seed % 2 == 0
    derived = sorted(d.conclusion.atom for d in trace)
    underivable = sorted(f.atom for f in grid if f not in closure)
    if gold_true:
        query = rng.choice(derived)
        proof = _proof_for(query, trace)
    else:
        if not underivable:
            return None
        query = rng.choice(underivable)
        # Replay still exercises the engine: use the trace of the last
        # derived atom in sort order as the demonstrative proof.
        proof = _proof_for(derived[-1], trace)
    return _task(f"rulebase-{n_facts}f{n_rules}r-{seed}", kb, grid, query, gold_true, proof)


def _task(task_id, kb, paired_facts, query, gold_true, proof) -> TaskInstance:
    """The task over ``kb`` asking whether ``query`` holds: its pairing holds
    ``paired_facts``, then the KB's rules; its context states the KB's sorted
    facts, then its rules."""
    rule_nl = [_rule_nl(r) for r in kb.rules]
    pairing: dict[str, Fact | Rule] = {_fact_nl(f.atom): f for f in paired_facts}
    pairing.update(zip(rule_nl, kb.rules))
    context = " ".join([_fact_nl(f.atom) for f in sorted(kb.facts)] + rule_nl)
    return TaskInstance(
        id=task_id,
        question=f"Is it true that {_fact_nl(query)[:-1].lower()}?",
        context=context,
        gold_answer="true" if gold_true else "false",
        ground_truth_proof=proof,
        nl_pairing=pairing,
        kb=kb,
    )


def _proof_for(goal: Atom, trace) -> tuple[Derivation, ...]:
    """The entries of ``trace`` that ``goal`` depends on, in trace order.  A
    trace concludes each atom at most once and never a KB fact, so an atom
    without an entry is a KB fact and ends its branch."""
    index = {d.conclusion.atom: i for i, d in enumerate(trace)}
    needed: set[int] = set()
    todo = [goal]
    while todo:
        i = index.get(todo.pop())
        if i is not None and i not in needed:
            needed.add(i)
            todo.extend(f.atom for f in trace[i].body_facts)
    return tuple(trace[i] for i in sorted(needed))


# --------------------------------------------------------------------------
# Gold steps


def gold_step(task: TaskInstance, index: int) -> template.ReasoningStep:
    """The ground-truth reasoning step at position ``index``."""
    ps = task.ground_truth_proof[index]
    conclusion_nl = task.nl_of(ps.conclusion)
    return template.ReasoningStep(
        query=f"Can we establish that {conclusion_nl[:-1].lower()}?",
        facts=tuple(task.nl_of(f) for f in ps.body_facts),
        rule=task.nl_of(ps.rule),
        revision="The selected facts and rule are sufficient for this step.",
        revision_result=template.RETAINED_TOKEN,
        reasoning_result=kernel.render_conclusions(kernel.StepVerdict((ps.conclusion,))),
    )


@dataclass(frozen=True)
class CorruptionModel:
    """Independent per-candidate defect probabilities for the noisy backend."""

    p_bad_rule: float = 0.0
    p_bad_fact: float = 0.0
    p_format_break: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("p_bad_rule", "p_bad_fact", "p_format_break"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"corruption.{name} must be in [0, 1], got {p!r}")

    def expected_engine_success_rate(self) -> float:
        """Closed-form success probability for candidates that reach the
        engine (format breaks are discarded before verification)."""
        return (1.0 - self.p_bad_rule) * (1.0 - self.p_bad_fact)


# --------------------------------------------------------------------------
# JSONL export / import (stable CI fixtures)


def _src(sym: Fact | Rule) -> str:
    """A symbol as a task file writes it: an atom, or ``rule`` and the rule."""
    return str(sym.atom) if isinstance(sym, Fact) else f"rule {sym}"


def _parse_rule(src: str) -> Rule:
    kb = kernel.parse_program(src)
    if len(kb.rules) != 1:
        raise kernel.KbError(f"expected exactly 1 rule, got {len(kb.rules)}: {src!r}")
    if kb.facts:
        raise kernel.KbError(f"expected no fact, got {len(kb.facts)}: {src!r}")
    return kb.rules[0]


def task_to_dict(task: TaskInstance) -> dict:
    return {
        "id": task.id,
        "question": task.question,
        "context": task.context,
        "gold_answer": task.gold_answer,
        "proof": [
            {
                "facts": [str(f.atom) for f in ps.body_facts],
                "rule": _src(ps.rule),
                "conclusion": str(ps.conclusion.atom),
            }
            for ps in task.ground_truth_proof
        ],
        "nl_pairing": {
            nl: {
                "kind": "fact" if isinstance(sym, Fact) else "rule",
                "src": _src(sym),
            }
            for nl, sym in sorted(task.nl_pairing.items())
        },
        "kb": task.kb.pretty() if task.kb is not None else None,
    }


def task_from_dict(d: dict) -> TaskInstance:
    for key in ("id", "question", "context", "gold_answer"):
        if not isinstance(d[key], str):
            raise TypeError(f"{key} is not a string: {d[key]!r}")
    answer = d["gold_answer"].strip()
    if not answer or "\n" in answer:  # a response states it on one FINAL ANSWER line
        raise ValueError(f"gold_answer is not one non-blank line: {d['gold_answer']!r}")

    def load_sym(entry):
        if entry["kind"] == "fact":
            return Fact(kernel.parse_atom(entry["src"]))
        if entry["kind"] == "rule":
            return _parse_rule(entry["src"])
        raise ValueError(f"unknown symbol kind: {entry['kind']!r}")

    proof = tuple(
        Derivation(
            rule=_parse_rule(ps["rule"]),
            body_facts=tuple(Fact(kernel.parse_atom(s)) for s in ps["facts"]),
            conclusion=Fact(kernel.parse_atom(ps["conclusion"])),
        )
        for ps in d["proof"]
    )
    task = TaskInstance(
        id=d["id"],
        question=d["question"],
        context=d["context"],
        gold_answer=d["gold_answer"],
        ground_truth_proof=proof,
        nl_pairing={nl: load_sym(e) for nl, e in d["nl_pairing"].items()},
        kb=kernel.parse_program(d["kb"]) if d.get("kb") else None,
    )
    # Gold steps state each proof symbol by its sentence, and a step field
    # is never blank.
    for nl, sym in task.nl_pairing.items():
        if not nl.strip():
            raise ValueError(f"blank sentence for {_src(sym)}")
    for ps in proof:
        for sym in (*ps.body_facts, ps.rule, ps.conclusion):
            if sym not in task._nl_by_symbol:
                raise ValueError(f"no sentence for {_src(sym)}")
    for i in range(len(proof)):  # a step that cites no fact has a blank field
        gold_step(task, i)
    return task


def load_tasks(path) -> list[TaskInstance]:
    """The tasks of a JSONL file, one per non-blank line.  A line that does
    not hold a task, holds one with a blank sentence, a gold answer that is
    not one non-blank line, a proof symbol without a sentence or a proof step
    without a fact, holds one whose id an earlier line took, or is not UTF-8,
    raises ValueError naming the file and the line."""
    tasks: dict[str, TaskInstance] = {}
    with open(path, "rb") as fh:  # json.loads decodes each line itself
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                task = task_from_dict(json.loads(line))
            except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
                raise ValueError(
                    f"{path}, line {lineno}: {type(exc).__name__}: {exc}"
                ) from exc
            if task.id in tasks:
                raise ValueError(f"{path}, line {lineno}: repeated task id: {task.id}")
            tasks[task.id] = task
    return list(tasks.values())


def stable_digest(*parts) -> int:
    """Process-independent integer digest for seeding sub-RNGs."""
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")
