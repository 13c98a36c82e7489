import json
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from oracle_forge import kernel, template
from oracle_forge.beam import (
    BeamConfig,
    BeamNode,
    ScoreBreakdown,
    backtrack_pairs,
    expand_node,
    run_beam,
    score_candidate,
    select_frontier,
)
from oracle_forge.corpus import CorruptionModel, gen_chain_task, gen_rulebase_task, gold_step
from oracle_forge.gateway import (
    EvalVerdict,
    GenerationContext,
    HttpBackend,
    HttpSpec,
    ScriptedNoisyBackend,
    ScriptedOracleBackend,
)
from oracle_forge.kernel import Fact, StepVerdict, parse_atom, verify_step
from oracle_forge.template import normalize_answer


class TestScoring:
    def test_engine_success_plus_feasible(self):
        s = score_candidate(True, EvalVerdict(True, True), BeamConfig())
        assert (s.w1, s.w2, s.w3, s.total) == (3, 0, 5, 8)

    def test_engine_fail_precision_and_feasible(self):
        s = score_candidate(False, EvalVerdict(True, True), BeamConfig())
        assert (s.w1, s.w2, s.w3, s.total) == (0, 2, 5, 7)

    def test_all_fail(self):
        s = score_candidate(False, EvalVerdict(False, False), BeamConfig())
        assert s.total == 0

    def test_w1_never_paired_with_w2(self):
        for executed in (True, False):
            for p in (True, False):
                for f in (True, False):
                    s = score_candidate(executed, EvalVerdict(p, f), BeamConfig())
                    assert s.w1 == 0 or s.w2 == 0


class TestBeamConfig:
    def test_defaults_match_reported_constants(self):
        cfg = BeamConfig()
        assert (cfg.width, cfg.top_k) == (9, 3)
        assert cfg.fanout == 3
        assert (cfg.score_w1, cfg.score_w2, cfg.score_w3) == (3, 2, 5)
        assert cfg.temperature == 1.0

    def test_k_must_divide_w(self):
        with pytest.raises(ValueError):
            BeamConfig(width=9, top_k=4)
        with pytest.raises(ValueError):
            BeamConfig(width=3, top_k=5)


def node(i, total):
    return BeamNode(id=i, parent=0, steps=(_dummy_step(0),), score=ScoreBreakdown(0, 0, total))


def _dummy_step(index):
    from oracle_forge.template import RETAINED_TOKEN, ReasoningStep

    return ReasoningStep(
        query=f"q{index}",
        facts=(f"f{index}",),
        rule=f"r{index}",
        revision="",
        revision_result=RETAINED_TOKEN,
        reasoning_result=f"c{index}",
    )


class TestSelectFrontier:
    def test_top_scores_win(self):
        nodes = [node(i, t) for i, t in enumerate([8, 7, 7, 5, 0, 2])]
        picked = select_frontier(nodes, 3)
        assert [n.score.total for n in picked] == [8, 7, 7]

    def test_ties_broken_by_generation_order(self):
        nodes = [node(i, 5) for i in range(6)]
        picked = select_frontier(nodes, 3)
        assert [n.id for n in picked] == [0, 1, 2]

    def test_fewer_than_k(self):
        nodes = [node(0, 1)]
        assert select_frontier(nodes, 3) == nodes

    def test_matches_full_sort_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            nodes = [node(i, rng.randint(0, 8)) for i in range(rng.randint(1, 20))]
            k = rng.randint(1, 10)
            expected = sorted(nodes, key=lambda n: (-n.score.total, n.id))[:k]
            assert select_frontier(nodes, k) == expected


class TestRunBeam:
    def test_oracle_recovers_ground_truth_path(self):
        task = gen_chain_task(3, seed=0)
        result = run_beam(task, BeamConfig(), ScriptedOracleBackend(task))
        assert len(result.sft_paths) >= 1
        from oracle_forge.corpus import gold_step

        path = result.sft_paths[0]
        assert len(path.steps) == 3
        for i, step in enumerate(path.steps):
            gold = gold_step(task, i)
            assert step.facts == gold.facts and step.rule == gold.rule

    def test_total_corruption_yields_no_paths(self):
        task = gen_chain_task(3, seed=0)
        backend = ScriptedNoisyBackend(
            task, CorruptionModel(p_format_break=1.0, seed=1)
        )
        result = run_beam(task, BeamConfig(), backend)
        assert result.sft_paths == []

    def test_tree_respects_width_constraints(self):
        task = gen_chain_task(4, seed=2)
        backend = ScriptedNoisyBackend(task, CorruptionModel(p_bad_rule=0.4, seed=3))
        cfg = BeamConfig()
        result = run_beam(task, cfg, backend)
        per_depth = Counter(n.depth for n in result.nodes if n.step is not None)
        assert all(v <= cfg.width for v in per_depth.values())
        selected_per_depth = Counter(n.depth for n in result.nodes if n.selected)
        assert all(v <= cfg.top_k for v in selected_per_depth.values())
        children_per_parent = Counter(
            n.parent for n in result.nodes if n.parent is not None
        )
        assert all(v <= cfg.fanout for v in children_per_parent.values())

    def test_replay_determinism(self):
        task = gen_chain_task(4, seed=7)
        cfg = BeamConfig(seed=7)

        def run():
            backend = ScriptedNoisyBackend(
                task, CorruptionModel(p_bad_rule=0.3, seed=7)
            )
            return run_beam(task, cfg, backend)

        a, b = run(), run()
        assert [n.score for n in a.nodes] == [n.score for n in b.nodes]
        assert a.sft_paths == b.sft_paths
        assert a.pairs == b.pairs

    def test_argmax_invariance_under_score_scaling(self):
        task = gen_chain_task(4, seed=9)

        def selected_ids(scale):
            cfg = BeamConfig(
                score_w1=3 * scale, score_w2=2 * scale, score_w3=5 * scale
            )
            backend = ScriptedNoisyBackend(
                task, CorruptionModel(p_bad_rule=0.4, seed=5)
            )
            result = run_beam(task, cfg, backend)
            return [n.id for n in result.nodes if n.selected]

        assert selected_ids(1) == selected_ids(4)

    def test_engine_success_injects_canonical_conclusions(self):
        task = gen_chain_task(2, seed=0)
        result = run_beam(task, BeamConfig(), ScriptedOracleBackend(task))
        from oracle_forge.kernel import render_conclusions

        for n in result.nodes:
            if n.verdict is not None and n.verdict.executed:
                assert n.step.reasoning_result == render_conclusions(n.verdict)

    def test_score_totals_in_allowed_set(self):
        cfg = BeamConfig()
        allowed = {0, cfg.score_w2, cfg.score_w3,
                   cfg.score_w2 + cfg.score_w3, cfg.score_w1 + cfg.score_w3}
        for seed in range(4):
            task = gen_chain_task(4, seed=seed)
            backend = ScriptedNoisyBackend(
                task, CorruptionModel(p_bad_rule=0.5, p_bad_fact=0.2, seed=seed)
            )
            result = run_beam(task, cfg, backend)
            totals = {n.score.total for n in result.nodes if n.step is not None}
            assert totals <= allowed

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 6),
        st.booleans(),
        st.integers(0, 10**6),
        st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_node_ids_are_list_positions(self, top_k, fanout, depth, rulebase, seed, p_bad):
        task = gen_rulebase_task(8, 5, seed=seed) if rulebase else gen_chain_task(3, seed=seed)
        backend = ScriptedNoisyBackend(
            task, CorruptionModel(p_bad_rule=p_bad, p_bad_fact=p_bad / 3, seed=seed)
        )
        cfg = BeamConfig(width=top_k * fanout, top_k=top_k, max_depth=depth, seed=seed)
        result = run_beam(task, cfg, backend)
        assert [n.id for n in result.nodes] == list(range(len(result.nodes)))
        assert all(n.parent < n.id for n in result.nodes[1:])
        nodes = result.nodes
        assert all(n.steps == nodes[n.parent].steps + (n.step,) for n in nodes[1:])
        for leaf in result.sft_paths:
            assert nodes[leaf.id] is leaf and leaf.terminal
            assert normalize_answer(leaf.answer) == normalize_answer(task.gold_answer)
        for pair in result.pairs:
            chosen, rejected = pair.chosen, pair.rejected
            assert nodes[chosen.id] is chosen and nodes[rejected.id] is rejected
            assert chosen.parent == rejected.parent and chosen.id != rejected.id

    def test_rulebase_tasks_also_complete(self):
        task = gen_rulebase_task(8, 5, seed=0)
        result = run_beam(task, BeamConfig(), ScriptedOracleBackend(task))
        assert len(result.sft_paths) >= 1
        assert result.sft_paths[0].answer == task.gold_answer


class TestVerdictMemo:
    """The engine checks each distinct (facts, rule) translation once per
    task, and every node still carries the verdict a fresh check gives."""

    @pytest.mark.parametrize("rulebase", [False, True])
    def test_one_check_per_distinct_translation(self, monkeypatch, rulebase):
        checked = []

        def counting_verify_step(facts, rule):
            checked.append((facts, rule))
            return verify_step(facts, rule)

        monkeypatch.setattr(kernel, "verify_step", counting_verify_step)
        reused = 0
        for seed in range(4):
            task = gen_rulebase_task(12, 8, True, seed) if rulebase else gen_chain_task(4, seed=seed)
            backend = ScriptedNoisyBackend(
                task, CorruptionModel(p_bad_rule=0.3, p_bad_fact=0.1, seed=seed)
            )
            checked.clear()
            result = run_beam(task, BeamConfig(seed=seed), backend)
            translated = [n for n in result.nodes[1:] if n.translation.ok]
            keys = {(n.translation.facts, n.translation.rule) for n in translated}
            assert len(checked) == len(set(checked)) and set(checked) == keys
            reused += len(translated) - len(keys)
            for n in translated:
                fresh = verify_step(n.translation.facts, n.translation.rule)
                assert (n.verdict, n.verdict.detail) == (fresh, fresh.detail)
        assert reused > 0


class TestPrecisionSkip:
    """The precision judge is asked only when the engine rejected the step:
    that is the only case in which score_candidate reads it."""

    @pytest.mark.parametrize("executes", [True, False])
    @pytest.mark.parametrize("precision", ["YES", "NO"])
    @pytest.mark.parametrize("feasibility", ["YES", "NO"])
    def test_requests_and_scores(self, executes, precision, feasibility):
        task = gen_chain_task(2, seed=0)
        step = gold_step(task, 0)
        if executes:
            facts = [task.nl_pairing[nl] for nl in step.facts]
            translation = "".join(f"fact {f.atom}.\n" for f in facts)
            translation += f"rule {task.nl_pairing[step.rule]}\n"
        else:
            translation = "fact p(a).\nrule q(X) :- r(X)."
        replies = {
            "g": template.serialize_step(step),
            "t": translation,
            "p": precision,
            "f": feasibility,
        }
        asked = []

        def transport(url, payload, headers, timeout):
            prompt_name = payload["messages"][0]["content"].split("\n\n", 1)[0]
            asked.append(prompt_name)
            choice = {"message": {"content": replies[prompt_name]}}
            return 200, json.dumps({"choices": [choice] * payload["n"]})

        backend = HttpBackend(
            HttpSpec(endpoint="http://example.test/v1/chat/completions", model="test-model"),
            prompts={"generation": "g", "translation": "t", "precision": "p", "feasibility": "f"},
            transport=transport,
            sleep=lambda _t: None,
        )
        cfg = BeamConfig()
        root = BeamNode(id=0, parent=None, steps=(), score=ScoreBreakdown(0, 0, 0))
        (child,) = expand_node(root, GenerationContext(question="q"), 1, backend, cfg, 1, {})
        assert child.verdict.executed is executes
        assert asked[0] == "g"
        assert asked[1:] == (["t", "f"] if executes else ["t", "p", "f"])
        # Oracle: the score with both judgments asked, as the transport answers them.
        both = EvalVerdict(precision == "YES", feasibility == "YES")
        assert child.score == score_candidate(executes, both, cfg)

    def test_scripted_backends_skip_precision_when_executed(self):
        task = gen_chain_task(2, seed=0)
        step, ctx = gold_step(task, 0), GenerationContext(question=task.question)
        for backend in (
            ScriptedOracleBackend(task),
            ScriptedNoisyBackend(task, CorruptionModel(seed=1)),
        ):
            assert backend.evaluate(step, ctx, True) == EvalVerdict(None, True)
            assert backend.evaluate(step, ctx, False) == EvalVerdict(True, True)


class TestBacktrackPairs:
    def _tree_with_siblings(self, chosen_executed=True):
        root = BeamNode(id=0, parent=None, steps=(), score=ScoreBreakdown(0, 0, 0))
        good = BeamNode(
            id=1, parent=0, steps=(_dummy_step(0),),
            score=ScoreBreakdown(3, 0, 5),
            verdict=StepVerdict(
                conclusions=(Fact(parse_atom("c(a)")),) if chosen_executed else (),
                failure=None if chosen_executed else __import__(
                    "oracle_forge.kernel", fromlist=["FailureKind"]
                ).FailureKind.NO_RULE_FIRING,
            ),
            answer="true",
        )
        bads = [
            BeamNode(
                id=i, parent=0, steps=(_dummy_step(0),),
                score=ScoreBreakdown(0, 0, 0),
                verdict=StepVerdict(
                    failure=__import__(
                        "oracle_forge.kernel", fromlist=["FailureKind"]
                    ).FailureKind.NO_RULE_FIRING,
                ),
            )
            for i in (2, 3, 4)
        ]
        nodes = [root, good] + bads
        return nodes, [good]

    def test_validated_node_pairs_with_invalid_siblings(self):
        nodes, leaves = self._tree_with_siblings()
        pairs = backtrack_pairs(nodes, leaves, "Q?", max_pairs_per_node=2)
        assert len(pairs) == 2  # capped at 2, earliest siblings first
        assert all(p.chosen is nodes[1] for p in pairs)
        assert [p.rejected for p in pairs] == nodes[2:4]

    def test_no_pairs_when_siblings_valid(self):
        nodes, leaves = self._tree_with_siblings()
        for n in nodes[2:]:
            n.verdict = StepVerdict(conclusions=(Fact(parse_atom("c(a)")),))
        pairs = backtrack_pairs(nodes, leaves, "Q?")
        assert pairs == []

    def test_prompt_is_the_task_prompt_then_the_prior_steps_as_a_response(self):
        # Steps are one blank line apart, as in SFT responses and generation
        # prompts.
        most_prior = 0
        for seed in range(6):
            task = gen_chain_task(4, seed=seed)
            backend = ScriptedNoisyBackend(task, CorruptionModel(p_bad_rule=0.4, seed=seed))
            result = run_beam(task, BeamConfig(), backend)
            for pair in result.pairs:
                prior, node = [], result.nodes[pair.chosen.parent]
                while node.parent is not None:
                    prior.insert(0, node.step)
                    node = result.nodes[node.parent]
                expected = task.prompt
                if prior:
                    response = template.StructuredResponse(tuple(prior))
                    expected += "\n\n" + template.serialize_response(response)
                assert pair.prompt == expected
                most_prior = max(most_prior, len(prior))
        assert most_prior >= 2

    def test_matches_exhaustive_scan_under_cap(self):
        # randomized trees: same-parent (valid-on-path, invalid-sibling) scan
        rng = random.Random(31)
        for trial in range(30):
            task = gen_chain_task(3, seed=trial)
            backend = ScriptedNoisyBackend(
                task, CorruptionModel(p_bad_rule=0.5, seed=trial)
            )
            cap = rng.randint(1, 3)
            result = run_beam(
                task, BeamConfig(max_pairs_per_node=cap), backend
            )
            expected = set()
            on_path = set()
            for n in result.sft_paths:
                while n.parent is not None:
                    on_path.add(n.id)
                    n = result.nodes[n.parent]
            for nid in sorted(on_path):
                n = result.nodes[nid]
                if not (n.verdict and n.verdict.executed):
                    continue
                sibs = sorted(
                    m.id
                    for m in result.nodes
                    if m.parent == n.parent
                    and m.id != n.id
                    and m.step is not None
                    and not (m.verdict and m.verdict.executed)
                )
                for sid in sibs[:cap]:
                    expected.add((n.id, sid))
            got = {(p.chosen.id, p.rejected.id) for p in result.pairs}
            assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 10**6),
        st.sampled_from([0.3, 0.5, 0.7]),
    )
    def test_pairs_come_in_path_order(self, top_k, fanout, cap, rulebase, seed, p_bad):
        # DPO records keep the order of result.pairs, so it is checked as a
        # list: leaves in harvest order, each leaf's chain from the root
        # down, each executed node's failed siblings in id order up to the
        # cap, and a pair only where it first occurs.
        task = gen_rulebase_task(8, 5, seed=seed) if rulebase else gen_chain_task(4, seed=seed)
        backend = ScriptedNoisyBackend(
            task, CorruptionModel(p_bad_rule=p_bad, p_bad_fact=p_bad / 3, seed=seed)
        )
        cfg = BeamConfig(width=top_k * fanout, top_k=top_k, seed=seed, max_pairs_per_node=cap)
        result = run_beam(task, cfg, backend)
        by_id = {n.id: n for n in result.nodes}

        def executed(n):
            return n.verdict is not None and n.verdict.executed

        expected = []
        for leaf in result.sft_paths:
            chain = [leaf]
            while chain[0].parent is not None:
                chain.insert(0, by_id[chain[0].parent])
            for n in chain[1:]:
                if not executed(n):
                    continue
                failed = sorted(
                    m.id for m in result.nodes
                    if m.parent == n.parent and m.id != n.id and not executed(m)
                )
                for sid in failed[:cap]:
                    if (n.id, sid) not in expected:
                        expected.append((n.id, sid))
        assert [(p.chosen.id, p.rejected.id) for p in result.pairs] == expected
