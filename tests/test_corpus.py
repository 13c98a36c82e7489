import collections
import hashlib
import itertools
import json
import os
import random

import pytest
from conftest import (
    PLANT_CLEAN,
    PLANT_MALFORMED,
    PLANT_WRONG_ANSWER,
    gold_response,
    parse_outcome,
    planted_stage1_corpus,
    random_kb,
)

from oracle_forge import cli, corpus, kernel, template
from oracle_forge.config import CorpusSpec, PipelineConfig
from oracle_forge.corpus import (
    CorruptionModel,
    gen_chain_task,
    gen_rulebase_task,
    load_tasks,
    task_to_dict,
)
from oracle_forge.datafactory import save_tasks
from oracle_forge.kernel import Atom, Fact, Rule, answer_query, parse_atom, verify_step


def strict_parse(raw):
    return template.parse_response(raw, require_final_answer=True)


def replay_proof(task):
    for ps in task.ground_truth_proof:
        verdict = verify_step(ps.body_facts, ps.rule)
        assert verdict.executed
        assert ps.conclusion in verdict.conclusions


class TestChainTask:
    def test_single_hop(self):
        task = gen_chain_task(1, seed=0)
        assert len(task.ground_truth_proof) == 1

    def test_deterministic(self):
        a = gen_chain_task(3, 2, seed=5)
        b = gen_chain_task(3, 2, seed=5)
        assert a.question == b.question
        assert a.ground_truth_proof == b.ground_truth_proof
        assert a.nl_pairing == b.nl_pairing

    def test_gold_answer_balanced_by_seed_parity(self):
        assert gen_chain_task(2, seed=0).gold_answer == "true"
        assert gen_chain_task(2, seed=1).gold_answer == "false"

    @pytest.mark.parametrize("seed", range(8))
    def test_proof_replays_and_decides_gold(self, seed):
        task = gen_chain_task(1 + seed % 4, seed=seed)
        replay_proof(task)
        # the queried atom's closed-world truth equals the gold answer
        query_nl = task.question.removeprefix("Is it true that ").rstrip("?")
        subject, pred = query_nl.split(" is a ")
        goal = parse_atom(f"{pred}({subject})")
        assert answer_query(task.kb, goal) == (task.gold_answer == "true")

    def test_pairing_covers_proof(self):
        task = gen_chain_task(4, 3, seed=2)
        for ps in task.ground_truth_proof:
            for f in ps.body_facts:
                assert task.nl_of(f) in task.nl_pairing
            assert task.nl_of(ps.rule) in task.nl_pairing

    def test_largest_chain_uses_the_whole_word_list(self):
        # hops + 1 + 2 * distractors = 112 = 14 onsets * 8 nuclei; one more
        # word is a ValueError (tests/test_cli.py runs that case under a timeout).
        task = gen_chain_task(1, distractors=55, seed=0)
        assert len({a.predicate for r in task.kb.rules for a in (r.head, *r.body_pos)}) == 112

    # sha256 of the task_to_dict JSON lines for hops 1-4 over seeds 0-24.
    TASKS_PIN = "c10105254aff9c9dcbf748185204a45a0d87fe496f0e22bb76ef1c56fc5f3927"

    def test_tasks_are_pinned(self):
        digest = hashlib.sha256()
        for hops in range(1, 5):
            for seed in range(25):
                line = json.dumps(task_to_dict(gen_chain_task(hops, seed=seed)), sort_keys=True)
                digest.update((line + "\n").encode("utf-8"))
        assert digest.hexdigest() == self.TASKS_PIN


class TestRulebaseTask:
    @pytest.mark.parametrize("seed", range(10))
    def test_proof_replays(self, seed):
        task = gen_rulebase_task(8, 5, negation=seed % 2 == 0, seed=seed)
        replay_proof(task)

    @pytest.mark.parametrize("seed", range(6))
    def test_gold_matches_engine(self, seed):
        task = gen_rulebase_task(10, 6, seed=seed)
        query_nl = task.question.removeprefix("Is it true that ").rstrip("?")
        subject, pred = query_nl.split(" is a ")
        goal = parse_atom(f"{pred}({subject})")
        assert answer_query(task.kb, goal) == (task.gold_answer == "true")

    def test_deterministic(self):
        a = gen_rulebase_task(8, 5, seed=3)
        b = gen_rulebase_task(8, 5, seed=3)
        assert a.kb == b.kb
        assert a.question == b.question

    # The number of (head, body_pos, body_neg) shapes over each count of
    # predicates that the generator draws.
    SHAPE_COUNTS = {5: 260, 6: 630, 7: 1302, 8: 2408}

    @pytest.mark.parametrize("n_preds", sorted(SHAPE_COUNTS))
    def test_rule_text_tells_every_drawable_shape_apart(self, n_preds):
        # Every shape that _try_rulebase can draw, negation on: a head, one or
        # two body predicates in draw order less the head, and at most one
        # negated predicate outside both.  Distinct text for distinct shapes
        # means no two rules of a task share a pairing entry.
        preds = corpus._nonsense_words(random.Random(n_preds), n_preds)
        shapes = set()
        for head in preds:
            for drawn in itertools.chain(
                itertools.permutations(preds, 1), itertools.permutations(preds, 2)
            ):
                body_pos = tuple(p for p in drawn if p != head)
                negated = [p for p in preds if p != head and p not in drawn]
                if body_pos:
                    shapes.update((head, body_pos, neg) for neg in [()] + [(p,) for p in negated])
        assert len(shapes) == self.SHAPE_COUNTS[n_preds]

        def unary(p):
            return Atom(p, ("X",))

        texts = {
            corpus._rule_nl(Rule(unary(head), tuple(map(unary, pos)), tuple(map(unary, neg))))
            for head, pos, neg in shapes
        }
        assert len(texts) == len(shapes)

    # For (n_facts, n_rules, negation), over seeds 0-24: the sha256 of the
    # task_to_dict JSON lines (a seed whose attempts run out contributes its
    # RetryExhausted message instead), and the number of
    # forward_chain_with_trace calls the generator made.
    GENERATOR_PINS = {
        (1, 1, False): ("f0a4944d439e5c9fb981def5f1f67131ba0baba797d2faa054e9db0a5515d280", 341),
        (6, 5, False): ("6d003d9364d409a7e95df3106d417d93ee24762bd5d35916bf56b96d3275a79f", 27),
        (12, 8, True): ("0122417f82866553c3428c6f52c849a214c7059ae235e8c028be1818245b7306", 148),
        (30, 12, True): ("f87239d751f352e70505fa947d7f939571e3dc4681d6ce8c5cb22ee4cf70cf35", 1997),
    }

    @pytest.mark.parametrize("n_facts, n_rules, negation", sorted(GENERATOR_PINS))
    def test_tasks_and_engine_calls_are_pinned(
        self, monkeypatch, n_facts, n_rules, negation
    ):
        calls = 0
        chain = kernel.forward_chain_with_trace

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return chain(*args, **kwargs)

        monkeypatch.setattr(kernel, "forward_chain_with_trace", counting)
        digest = hashlib.sha256()
        for seed in range(25):
            try:
                task = gen_rulebase_task(n_facts, n_rules, negation, seed=seed)
                line = json.dumps(task_to_dict(task), sort_keys=True)
            except corpus.RetryExhausted as exc:
                line = str(exc)
            digest.update((line + "\n").encode("utf-8"))
        pin = self.GENERATOR_PINS[n_facts, n_rules, negation]
        assert (digest.hexdigest(), calls) == pin


class TestProofFor:
    def test_reads_the_goals_dependencies_off_the_trace(self):
        # _proof_for relies on the trace concluding each atom at most once and
        # never a KB fact; the expected proof is a brute-force fixpoint over
        # the atoms the goal depends on, filtered in trace order.
        rng = random.Random(13)
        lengths = []
        for _ in range(150):
            # Many rules, so that proofs run several steps deep.
            kb = random_kb(rng, max_facts=15, max_rules=60, negation=True)
            _, trace = kernel.forward_chain_with_trace(kb)
            conclusions = [d.conclusion for d in trace]
            assert len(set(conclusions)) == len(conclusions)
            assert not kb.facts.intersection(conclusions)
            for goal in [f.atom for f in conclusions] + [f.atom for f in kb.facts]:
                deps, changed = {goal}, True
                while changed:
                    changed = False
                    for d in trace:
                        if d.conclusion.atom in deps:
                            body = {f.atom for f in d.body_facts}
                            changed |= not body <= deps
                            deps |= body
                expected = tuple(d for d in trace if d.conclusion.atom in deps)
                assert corpus._proof_for(goal, trace) == expected
                lengths.append(len(expected))
        assert max(lengths) >= 5 and 0 in lengths


class TestSharing:
    """Generated tasks share their facts and fact sentences: each distinct one
    is a single object, whatever task holds it."""

    @pytest.mark.parametrize(
        "spec",
        [
            CorpusSpec(kind="chain", count=40, hops=4),
            CorpusSpec(kind="rulebase", count=40, n_facts=12, n_rules=8, negation=True),
        ],
        ids=["chain", "rulebase"],
    )
    def test_equal_facts_and_sentences_are_one_object(self, spec):
        facts: dict[Fact, Fact] = {}
        sentences: dict[str, str] = {}
        tasks_holding: collections.Counter[Fact] = collections.Counter()
        for task in cli.build_tasks(PipelineConfig(corpus=spec)):
            paired = [(nl, f) for nl, f in task.nl_pairing.items() if isinstance(f, Fact)]
            held = [*task.kb.facts, *(f for _, f in paired)]
            for f in held:
                assert facts.setdefault(f, f) is f, f
            for nl, _ in paired:
                assert sentences.setdefault(nl, nl) is nl, nl
            tasks_holding.update(set(held))
        assert max(tasks_holding.values()) > 1  # some fact is in two tasks
        # 112 words times 8 names; _unary_atom may also hold each word with X.
        assert corpus._unary_fact.cache_info().currsize <= 112 * 8
        assert corpus._fact_nl.cache_info().currsize <= 112 * 8
        assert corpus._unary_atom.cache_info().currsize <= 112 * 9


class TestGoldResponse:
    def test_conforms_and_answers(self):
        task = gen_chain_task(3, seed=0)
        raw = template.serialize_response(gold_response(task))
        assert parse_outcome(strict_parse, raw) == gold_response(task)
        assert strict_parse(raw).final_answer == task.gold_answer


class TestCorruptionModel:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            CorruptionModel(p_bad_rule=1.5)

    def test_expected_success_rate(self):
        m = CorruptionModel(p_bad_rule=0.3, p_bad_fact=0.2)
        assert m.expected_engine_success_rate() == pytest.approx(0.7 * 0.8)
        assert CorruptionModel().expected_engine_success_rate() == 1.0


class TestPlantedCorpus:
    def test_fractions_and_labels(self):
        tasks = [gen_chain_task(2, seed=i) for i in range(50)]
        samples = planted_stage1_corpus(tasks, 0.4, 0.2, seed=1)
        labels = [s.label for s in samples]
        assert labels.count(PLANT_MALFORMED) == 20
        assert labels.count(PLANT_WRONG_ANSWER) == 10
        assert labels.count(PLANT_CLEAN) == 20
        for s in samples:
            conforms = isinstance(parse_outcome(strict_parse, s.raw), template.StructuredResponse)
            if s.label == PLANT_MALFORMED:
                assert not conforms
            else:
                assert conforms


class TestTaskSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        tasks = [gen_chain_task(2, seed=i) for i in range(3)]
        tasks.append(gen_rulebase_task(8, 5, seed=4))
        path = tmp_path / "tasks.jsonl"
        save_tasks(tasks, path)
        # One sorted-key JSON object per line, and no temporary file left.
        expected = "".join(json.dumps(task_to_dict(t), sort_keys=True) + "\n" for t in tasks)
        assert path.read_bytes() == expected.encode("utf-8")
        assert os.listdir(tmp_path) == ["tasks.jsonl"]
        loaded = load_tasks(path)
        assert len(loaded) == len(tasks)
        for orig, back in zip(tasks, loaded):
            assert back.id == orig.id
            assert back.gold_answer == orig.gold_answer
            assert back.ground_truth_proof == orig.ground_truth_proof
            assert back.nl_pairing == orig.nl_pairing
            assert back.kb == orig.kb
