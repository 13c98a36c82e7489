"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE n <name>: PASS/FAIL`` and enforces its own
runtime budget.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import random
import time

from conftest import (
    PLANT_CLEAN,
    PLANT_MALFORMED,
    PLANT_WRONG_ANSWER,
    enumerate_step_verdict,
    gold_response,
    naive_closure,
    planted_stage1_corpus,
    random_kb,
    reference_record,
)

from oracle_forge import cli, template
from oracle_forge.beam import BeamConfig, BeamNode, ScoreBreakdown, run_beam
from oracle_forge.corpus import CorruptionModel, gen_chain_task, gold_step
from oracle_forge.datafactory import (
    FORMAT_VIOLATION,
    STAGE1,
    WRONG_ANSWER,
    emit_datasets,
)
from oracle_forge.gateway import (
    GENERATION_ERROR,
    TRANSLATION_ERROR,
    ScriptedNoisyBackend,
    ScriptedOracleBackend,
)
from oracle_forge.kernel import FailureKind, StepVerdict, forward_chain, verify_step

class Gate:
    """Collects checks for one criterion and prints a single verdict line."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.started = time.perf_counter()
        self.failures = []

    def check(self, ok, detail=""):
        if not ok:
            self.failures.append(detail)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        if elapsed > self.budget_s:
            self.failures.append(f"runtime {elapsed:.1f}s > budget {self.budget_s}s")
        verdict = "PASS" if not self.failures else "FAIL"
        print(
            f"ACCEPTANCE {self.number} {self.name}: {verdict} ({elapsed:.1f}s)"
            + ("" if not self.failures else f" -- {self.failures[:3]}")
        )
        assert not self.failures, self.failures

def test_01_engine_equivalence():
    gate = Gate(1, "engine equivalence on 200 random KBs", budget_s=30)
    rng = random.Random(101)
    for i in range(200):
        kb = random_kb(rng, max_facts=30, max_rules=10, negation=True)
        got = forward_chain(kb)
        want = naive_closure(kb)
        gate.check(got == want, f"kb {i}: closure mismatch")
    gate.finish()

def test_02_step_verification_equivalence():
    gate = Gate(2, "verify_step equivalence on 1000 pairs", budget_s=10)
    rng = random.Random(202)
    checked = 0
    while checked < 1000:
        kb = random_kb(rng, max_facts=12, max_rules=4, negation=True)
        if not kb.rules:
            continue
        facts = sorted(kb.facts)[: rng.randint(0, len(kb.facts))]
        rule = rng.choice(kb.rules)
        verdict = verify_step(facts, rule)
        heads = enumerate_step_verdict(facts, rule)
        if verdict.executed:
            gate.check(
                set(verdict.conclusions) == heads
                and list(verdict.conclusions) == sorted(verdict.conclusions),
                f"pair {checked}: conclusions mismatch",
            )
        else:
            gate.check(not heads, f"pair {checked}: oracle fired but engine failed")
        checked += 1
    gate.finish()

def test_03_beam_constants():
    gate = Gate(3, "beam constants and score totals", budget_s=5)
    cfg = BeamConfig()
    gate.check(cfg.width == 9 and cfg.top_k == 3 and cfg.fanout == 3, "defaults")
    gate.check((cfg.score_w1, cfg.score_w2, cfg.score_w3) == (3, 2, 5), "weights")
    allowed = {0, 2, 5, 7, 8}
    for seed in range(6):
        task = gen_chain_task(4, seed=seed)
        backend = ScriptedNoisyBackend(
            task, CorruptionModel(p_bad_rule=0.4, p_bad_fact=0.1, seed=seed)
        )
        result = run_beam(task, cfg, backend)
        by_depth, selected, children = {}, {}, {}
        for n in result.nodes:
            if n.step is not None:
                by_depth[n.depth] = by_depth.get(n.depth, 0) + 1
                children[n.parent] = children.get(n.parent, 0) + 1
                gate.check(n.score.total in allowed, f"total {n.score.total}")
            if n.selected:
                selected[n.depth] = selected.get(n.depth, 0) + 1
        gate.check(all(v <= 9 for v in by_depth.values()), "frontier > 9")
        gate.check(all(v <= 3 for v in selected.values()), "expansions/depth > 3")
        gate.check(all(v <= 3 for v in children.values()), "children > 3")
    gate.finish()

def test_04_oracle_pipeline_completeness(tmp_path):
    gate = Gate(4, "oracle stage2 completeness on 100 chain tasks", budget_s=60)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "corpus: {kind: chain, count: 100, hops: 5}\nseed: 11\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    code = cli.main(
        ["stage2", "--config", str(cfg_path), "--out", str(out), "--seed", "11"]
    )
    gate.check(code == 0, f"exit code {code}")
    rows = [
        json.loads(line)
        for line in (out / "sft.jsonl").read_text(encoding="utf-8").splitlines()
    ]

    cfg = cli._load_cfg(
        type("A", (), {"config": str(cfg_path), "seed": 11, "backend": None, "out": None})
    )
    tasks = {t.id: t for t in cli.build_tasks(cfg)}
    gate.check(
        {r["task_id"] for r in rows} == set(tasks), "not every task yielded a path"
    )
    for r in rows:
        task = tasks[r["task_id"]]
        backend = ScriptedOracleBackend(task)
        resp = template.parse_response(r["response"], require_final_answer=True)
        for step in resp.steps:
            t = backend.translate(step)
            gate.check(t.ok, f"{task.id}: translation failed")
            if t.ok:
                v = verify_step(t.facts, t.rule)
                gate.check(v.executed, f"{task.id}: step did not execute on replay")
    gate.finish()

def test_05_noisy_success_rate():
    gate = Gate(5, "noisy success rate vs closed-form expectation", budget_s=120)
    rates = []
    for p in (0.1, 0.3, 0.5):
        model = CorruptionModel(p_bad_rule=p, seed=17)
        expected = model.expected_engine_success_rate()
        executed = total = 0
        task_seed = 0
        while total < 2000:
            task = gen_chain_task(4, seed=int(p * 1000) * 10007 + task_seed)
            backend = ScriptedNoisyBackend(task, model)
            result = run_beam(task, BeamConfig(), backend)
            for n in result.nodes:
                if n.step is None:
                    continue
                total += 1
                if n.verdict and n.verdict.executed:
                    executed += 1
            task_seed += 1
        measured = executed / total
        rates.append(measured)
        gate.check(
            abs(measured - expected) <= 0.03,
            f"p={p}: measured {measured:.3f} vs expected {expected:.3f} "
            f"over {total} steps",
        )
    gate.check(rates[0] > rates[1] > rates[2], f"not monotone: {rates}")
    gate.finish()

def test_06_preference_pair_soundness():
    gate = Gate(6, "DPO pair soundness and completeness", budget_s=60)
    n_pairs = 0
    for seed in range(40):
        task = gen_chain_task(3, seed=seed)
        backend = ScriptedNoisyBackend(
            task, CorruptionModel(p_bad_rule=0.5, seed=seed)
        )
        cfg = BeamConfig(max_pairs_per_node=2)
        result = run_beam(task, cfg, backend)
        nodes = {n.id: n for n in result.nodes}
        on_path = set()
        for n in result.sft_paths:
            while n.parent is not None:
                on_path.add(n.id)
                n = nodes[n.parent]
        for pair in result.pairs:
            n_pairs += 1
            c, r = nodes[pair.chosen.id], nodes[pair.rejected.id]
            gate.check(c is pair.chosen and r is pair.rejected, "pair nodes not in the tree")
            gate.check(c.parent == r.parent, "parent mismatch")
            gate.check(c.verdict and c.verdict.executed, "chosen not executed")
            gate.check(not (r.verdict and r.verdict.executed), "rejected executed")
            gate.check(c.id in on_path, "chosen not on a correct path")
        # exhaustive scan: no eligible pair missed under the per-node cap
        expected = set()
        for nid in sorted(on_path):
            n = nodes[nid]
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
            expected.update((n.id, s) for s in sibs[: cfg.max_pairs_per_node])
        got = {(p.chosen.id, p.rejected.id) for p in result.pairs}
        gate.check(got == expected, f"seed {seed}: scan mismatch")
    gate.check(n_pairs > 0, "no pairs produced at all")
    gate.finish()

def test_07_stage1_filter_exactness(tmp_path):
    gate = Gate(7, "stage-1 filter matches planted labels", budget_s=30)
    tasks = [gen_chain_task(1 + i % 4, seed=i) for i in range(100)]
    samples = planted_stage1_corpus(
        tasks, malformed_frac=0.4, wrong_frac=0.2, seed=23
    )
    by_label = {PLANT_CLEAN: [], PLANT_MALFORMED: [], PLANT_WRONG_ANSWER: []}
    for s in samples:
        by_label[s.label].append(s)
    gate.check(len(by_label[PLANT_MALFORMED]) == 40, "malformed plant count")
    gate.check(len(by_label[PLANT_WRONG_ANSWER]) == 20, "wrong-answer plant count")
    emit_datasets(((s.task, s.raw) for s in samples), tmp_path, seed=23, stage=STAGE1)
    kept, rejected = (
        [json.loads(line) for line in (tmp_path / name).read_text().splitlines()]
        for name in ("sft.jsonl", "rejections.jsonl")
    )
    clean_ids = sorted(s.task.id for s in by_label[PLANT_CLEAN])
    gate.check(sorted(r["task_id"] for r in kept) == clean_ids, "kept set mismatch")
    labels = {}
    for r in rejected:
        labels.setdefault(r["label"], []).append(r["task_id"])
    gate.check(
        sorted(labels.get(FORMAT_VIOLATION, []))
        == sorted(s.task.id for s in by_label[PLANT_MALFORMED]),
        "FormatViolation labels mismatch",
    )
    gate.check(
        sorted(labels.get(WRONG_ANSWER, []))
        == sorted(s.task.id for s in by_label[PLANT_WRONG_ANSWER]),
        "WrongAnswer labels mismatch",
    )
    gate.finish()

def test_08_replay_determinism(tmp_path):
    gate = Gate(8, "cmd_stage2 replay is byte-identical", budget_s=60)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "backend: scripted-noisy\n"
        "corruption: {p_bad_rule: 0.3, p_bad_fact: 0.1}\n"
        "corpus: {kind: chain, count: 25, hops: 4}\n",
        encoding="utf-8",
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            ["stage2", "--config", str(cfg_path), "--out", str(out), "--seed", "13"]
        )
        gate.check(code == 0, f"exit code {code}")
        outs.append(out)
    for fname in ("sft.jsonl", "dpo.jsonl", "audit.jsonl", "manifest.json"):
        gate.check(
            (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(),
            f"{fname} differs between replays",
        )
    gate.finish()

def test_09_template_round_trip():
    gate = Gate(9, "template round trip and tag-deletion detection", budget_s=60)
    from hypothesis import HealthCheck, given, settings

    from conftest import parse_outcome, structured_responses

    failures = []

    @settings(
        max_examples=1000,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(structured_responses())
    def round_trip(resp):
        raw = template.serialize_response(resp)
        if template.parse_response(raw) != resp:
            failures.append("round trip broke")

    round_trip()
    gate.check(not failures, "fuzzed round trip failed")
    task = gen_chain_task(3, seed=0)
    raw = template.serialize_response(gold_response(task))

    def strict(text):
        return parse_outcome(lambda r: template.parse_response(r, require_final_answer=True), text)

    gate.check(strict(raw) == gold_response(task), "gold not strict")
    for tag in ("QUERY", "FACTS", "RULE", "REVISION", "REVISION_RESULT",
                "REASONING_RESULT"):
        mutated = raw.replace(f"<{tag}>", "", 1)
        gate.check(
            not isinstance(strict(mutated), template.StructuredResponse),
            f"deleting <{tag}> not detected",
        )
    gate.finish()

def test_10_failure_taxonomy_determinism():
    gate = Gate(10, "fault-injection failure taxonomy", budget_s=30)
    import dataclasses

    n = 0
    seed = 0
    while n < 100:
        task = gen_chain_task(3, seed=seed)
        seed += 1
        backend = ScriptedOracleBackend(task)
        noisy = ScriptedNoisyBackend(task, CorruptionModel(seed=0))
        for i in range(len(task.ground_truth_proof)):
            gold = gold_step(task, i)
            if n % 2 == 0:
                # unknown-premise defect: should classify GenerationError
                bad = dataclasses.replace(
                    gold, facts=gold.facts[:-1] + ("An unstated gibberish premise.",)
                )
                want = GENERATION_ERROR
            else:
                # wrong-rule defect: translates but never fires
                choices = noisy._non_firing_rule_nls(gold)
                if not choices:
                    continue
                bad = dataclasses.replace(gold, rule=choices[0])
                want = TRANSLATION_ERROR
            t = backend.translate(bad)
            if t.ok:
                verdict = verify_step(t.facts, t.rule)
            else:
                verdict = StepVerdict(failure=FailureKind.PARSE_FAILURE)
            gate.check(not verdict.executed, f"injected defect {n} still executed")
            node = BeamNode(id=1, parent=0, steps=(bad,), score=ScoreBreakdown(0, 0, 0),
                            verdict=verdict, translation=t)
            got = reference_record(node, task.id)["failure_class"]
            gate.check(got == want, f"defect {n}: classified {got}, wanted {want}")
            n += 1
    gate.finish()
