import functools
import itertools
import json
import os
import re
import string
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import (
    PLANT_CLEAN,
    PLANT_MALFORMED,
    PLANT_WRONG_ANSWER,
    gold_response,
    planted_stage1_corpus,
    reference_record,
)
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oracle_forge import datafactory, template
from oracle_forge.beam import BeamConfig, BeamNode, ScoreBreakdown, expand_node, run_beam
from oracle_forge.cli import build_tasks
from oracle_forge.config import CorpusSpec, PipelineConfig
from oracle_forge.corpus import (
    MAX_RULEBASE_FACTS,
    MAX_RULEBASE_RULES,
    CorruptionModel,
    RetryExhausted,
    gen_chain_task,
    gold_step,
)
from oracle_forge.datafactory import (
    FORMAT_VIOLATION,
    STAGE1,
    MalformedAudit,
    WRONG_ANSWER,
    compute_stats,
    config_hash,
    emit_datasets,
    format_stats_tables,
    normalize_answer,
    read_audit,
    stage1_lines,
)
from oracle_forge.gateway import (
    GENERATION_ERROR,
    TRANSLATION_ERROR,
    GenerationContext,
    HttpBackend,
    HttpSpec,
    ScriptedNoisyBackend,
    ScriptedOracleBackend,
    TranslationResult,
)
from oracle_forge.kernel import (
    RULE_LANGUAGE_VERSION,
    Fact,
    FailureKind,
    StepVerdict,
    parse_atom,
    verify_step,
)
from oracle_forge.template import serialize_response


# Every character that str.isspace and the regex class \s accept.
_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (" True.", "true"),
            ("YES", "true"),
            ("no!", "false"),
            ("FALSE", "false"),
            ("  the   cat  sat ", "the cat sat"),
            ("Maybe?", "maybe"),
            ("true", "true"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_answer(raw) == expected

    @given(st.text(alphabet=string.printable, max_size=60))
    @settings(max_examples=300)
    def test_idempotent(self, raw):
        once = normalize_answer(raw)
        assert normalize_answer(once) == once

    # Whitespace, the terminal punctuation, the boolean words' letters, and
    # letters that case-folding changes, some into more than one character.
    @given(st.text(
        alphabet=st.sampled_from(_WHITESPACE + ".!?;:" + "yesnoYESNO" + "ßİΣσςﬁ"), max_size=40
    ))
    @settings(max_examples=500)
    def test_matches_its_regex_definition(self, raw):
        # The definition, whose search for the trailing run is quadratic in
        # the length of a run that something else follows.
        text = re.sub(r"[\s.!?;:]+$", "", raw.strip().casefold())
        text = re.sub(r"\s+", " ", text)
        expected = {"yes": "true", "no": "false"}.get(text, text)
        assert normalize_answer(raw) == expected

    def test_long_punctuation_run_takes_linear_time(self):
        raw = "!" * 200_000 + "x"
        start = time.perf_counter()
        assert normalize_answer(raw) == raw
        assert normalize_answer(raw[::-1]) == "x"
        assert time.perf_counter() - start < 1.0


def stage1_records(samples):
    """The records stage1_lines writes for ``samples``: the kept ones, then
    the rejected ones."""
    records = {"sft.jsonl": [], "rejections.jsonl": []}
    for sample in samples:
        for name, lines in stage1_lines(sample).items():
            records[name].extend(json.loads(line) for line in lines)
    return records["sft.jsonl"], records["rejections.jsonl"]


class TestStage1Filter:
    def test_clean_sample_kept(self):
        task = gen_chain_task(2, seed=0)
        raw = serialize_response(gold_response(task))
        kept, rejected = stage1_records([(task, raw)])
        assert len(kept) == 1 and rejected == []
        assert kept[0]["stage"] == "stage1"

    def test_malformed_sample_rejected(self):
        task = gen_chain_task(2, seed=0)
        raw = serialize_response(gold_response(task)).replace("<RULE>", "", 1)
        kept, rejected = stage1_records([(task, raw)])
        assert kept == [] and rejected[0]["label"] == FORMAT_VIOLATION

    def test_wrong_answer_rejected(self):
        task = gen_chain_task(2, seed=0)
        raw = serialize_response(gold_response(task))
        kept, rejected = stage1_records(
            [(replace(task, gold_answer="not-the-answer"), raw)]
        )
        assert kept == [] and rejected[0]["label"] == WRONG_ANSWER

    def test_planted_corpus_labels_are_exact(self):
        tasks = [gen_chain_task(2 + i % 3, seed=i) for i in range(50)]
        samples = planted_stage1_corpus(tasks, 0.4, 0.2, seed=11)
        kept, rejected = stage1_records([(s.task, s.raw) for s in samples])
        by_label = {PLANT_CLEAN: 0, PLANT_MALFORMED: 0, PLANT_WRONG_ANSWER: 0}
        for s in samples:
            by_label[s.label] += 1
        assert len(kept) == by_label[PLANT_CLEAN]
        got = {FORMAT_VIOLATION: 0, WRONG_ANSWER: 0}
        for r in rejected:
            got[r["label"]] += 1
        assert got[FORMAT_VIOLATION] == by_label[PLANT_MALFORMED]
        assert got[WRONG_ANSWER] == by_label[PLANT_WRONG_ANSWER]


class TestFailureClass:
    @pytest.mark.parametrize(
        "case, want",
        [
            ("no-pairing", (GENERATION_ERROR, "ParseFailure")),
            ("kbl-defect", (TRANSLATION_ERROR, "ParseFailure")),
            ("engine-failure", (TRANSLATION_ERROR, "NoRuleFiring")),
        ],
        ids=["no-pairing", "kbl-defect", "engine-failure"],
    )
    def test_node_to_audit_class(self, case, want):
        # A failed translation names the class; an engine failure after a
        # translation that succeeded is a TranslationError.
        task = gen_chain_task(2, seed=0)
        step = gold_step(task, 0)
        if case == "no-pairing":
            step = replace(step, rule="Nonsense sentence.")
            translation = ScriptedOracleBackend(task).translate(step)
        elif case == "kbl-defect":
            reply = json.dumps({"choices": [{"message": {"content": "this is not kbl"}}]})
            backend = HttpBackend(
                HttpSpec(endpoint="http://example.test/v1/chat/completions", model="m"),
                transport=lambda url, payload, headers, timeout: (200, reply),
            )
            translation = backend.translate(step)
        else:
            translation = ScriptedOracleBackend(task).translate(step)
            assert translation.ok
        if translation.ok:
            # The premises left out, the rule fires nothing.
            verdict = verify_step((), translation.rule)
        else:
            verdict = StepVerdict(failure=FailureKind.PARSE_FAILURE)
        node = BeamNode(id=1, parent=0, steps=(step,), score=ScoreBreakdown(0, 0, 0),
                        verdict=verdict, translation=translation)
        record = reference_record(node, task.id)
        assert (record["failure_class"], record["failure_kind"]) == want


# Text that json.dumps must escape: quotes, backslashes, control and
# non-ASCII characters, and anything else.
_audit_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600"]),
    st.characters(),
), max_size=12)


@st.composite
def audit_nodes(draw):
    """A beam node of any shape the audit records: the root, an executed
    step, or a failed one of every failure class and kind."""
    shape = draw(st.sampled_from(["root", "executed", "failed"]))
    ints = st.integers(min_value=0, max_value=10**6)
    kwargs = {}
    if shape == "executed":
        kwargs["verdict"] = StepVerdict(conclusions=(Fact(parse_atom("p(a)")),))
        kwargs["translation"] = TranslationResult()
    elif shape == "failed":
        kwargs["verdict"] = StepVerdict(failure=draw(st.sampled_from(FailureKind)))
        kinds = st.sampled_from([None, GENERATION_ERROR, TRANSLATION_ERROR])
        kwargs["translation"] = TranslationResult(error_kind=draw(kinds))
    depth = 0 if shape == "root" else draw(st.integers(min_value=1, max_value=4))
    return BeamNode(
        id=draw(ints),
        parent=None if shape == "root" else draw(st.none() | ints),
        steps=(gold_step(gen_chain_task(2, seed=0), 0),) * depth,
        score=ScoreBreakdown(draw(ints), draw(ints), draw(ints)),
        answer=draw(st.none() | _audit_text),
        selected=draw(st.booleans()),
        **kwargs,
    )


class TestAuditLines:
    @settings(max_examples=300, deadline=None)
    @given(_audit_text, st.lists(audit_nodes(), max_size=4))
    def test_a_line_is_json_dumps_of_the_reference_record(self, task_id, nodes):
        want = [json.dumps(reference_record(node, task_id)) for node in nodes]
        assert list(datafactory._audit_lines(task_id, nodes)) == want


def _results(n_tasks=5, p_bad_rule=0.3, seed=0):
    out = []
    for i in range(n_tasks):
        task = gen_chain_task(3, seed=seed * 100 + i)
        backend = ScriptedNoisyBackend(
            task, CorruptionModel(p_bad_rule=p_bad_rule, seed=seed)
        )
        out.append(run_beam(task, BeamConfig(), backend))
    return out


class TestAuditAndStats:
    def test_stats_arithmetic(self, tmp_path):
        results = _results()
        emit_datasets(results, tmp_path, seed=0, config={})
        stats = compute_stats(read_audit(tmp_path / "audit.jsonl"))
        executed = failed = 0
        for r in results:
            for n in r.nodes:
                if n.step is None:
                    continue
                if n.verdict and n.verdict.executed:
                    executed += 1
                else:
                    failed += 1
        assert stats["steps_total"] == executed + failed
        assert stats["steps_executed"] == executed
        assert stats["failures_generation"] + stats["failures_translation"] == failed
        assert stats["success_rate"] == pytest.approx(executed / (executed + failed))

    def test_known_counts(self):
        recs = []
        for i in range(10):
            executed = i < 7
            recs.append(
                {
                    "id": i,
                    "task_id": "t",
                    "has_step": True,
                    "executed": executed,
                    "failure_class": None if executed else GENERATION_ERROR,
                }
            )
        stats = compute_stats(recs)
        assert stats["success_rate"] == pytest.approx(0.70)
        assert stats["failures_generation"] == 3

    def test_table_has_one_row_per_family(self):
        # A generated id loses its trailing seed; any other id stays whole.
        ids = ["chain-3h-1", "chain-3h-22", "chain-13h-1", "rulebase-12f8r-4", "file-task-7"]
        recs = [
            {"id": i, "task_id": task_id, "has_step": True, "executed": executed,
             "failure_class": None if executed else TRANSLATION_ERROR}
            for i, (task_id, executed) in enumerate(
                itertools.product(ids, (True, True, False))
            )
        ]
        stats = compute_stats(recs)
        assert sorted(stats["per_task_breakdown"]) == sorted(ids)
        rows = format_stats_tables(stats).splitlines()[2:7]
        assert [row.split() for row in rows] == [
            ["chain-13h", "3", "2", "0.667"],
            ["chain-3h", "6", "4", "0.667"],
            ["file-task-7", "3", "2", "0.667"],
            ["rulebase-12f8r", "3", "2", "0.667"],
            ["TOTAL", "15", "10", "0.667"],
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["chain", "rulebase"]),
        count=st.integers(1, 4),
        hops=st.integers(1, 30),
        distractors=st.integers(1, 40),  # at most 30 + 1 + 80 of the 112 words
        n_facts=st.integers(1, MAX_RULEBASE_FACTS),
        n_rules=st.integers(1, MAX_RULEBASE_RULES),
        negation=st.booleans(),
        seed=st.integers(-10**7, 10**7),
        file_id=st.from_regex(r"[a-z]+-[0-9]+", fullmatch=True),
    )
    def test_table_files_each_generated_id_under_its_family(
        self, kind, count, hops, distractors, n_facts, n_rules, negation, seed, file_id
    ):
        # A negative run seed gives negative task seeds, "chain-1h--3000009".
        spec = CorpusSpec(kind, count, hops, distractors, n_facts, n_rules, negation)
        try:
            tasks = build_tasks(PipelineConfig(seed=seed, corpus=spec))
        except RetryExhausted:
            reject()
        expected = {file_id: 1}
        for i, task in enumerate(tasks):
            family = f"chain-{1 + i % hops}h" if kind == "chain" else f"rulebase-{n_facts}f{n_rules}r"
            assert task.id == f"{family}-{seed * 1_000_003 + i}"
            expected[family] = expected.get(family, 0) + 1
        recs = [
            {"id": 1, "task_id": task_id, "has_step": True, "executed": True,
             "failure_class": None}
            for task_id in [t.id for t in tasks] + [file_id]
        ]
        lines = format_stats_tables(compute_stats(recs)).splitlines()
        rows = [line.split() for line in lines[2:lines.index("") - 1]]
        assert {row[0]: int(row[1]) for row in rows} == expected
        assert len(rows) == len(expected)

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"id": 0}\nnot json\n', "line 1: task_id must be str, got None"),
            (
                b'{"id": 1, "task_id": "t", "has_step": true}\n',
                "line 1: executed must be bool, got None",
            ),
            (
                b'{"id": 1, "task_id": "x", "has_step": true, "executed": true}\n'
                b'{"id": 2, "task_id": 5, "has_step": true, "executed": true}\n',
                "line 2: task_id must be str, got 5",
            ),
            (
                b'{"id": 1, "task_id": "t", "has_step": true, "executed": "no"}\n',
                "line 1: executed must be bool, got 'no'",
            ),
            (
                b'{"id": true, "task_id": "t", "has_step": false, "executed": false}\n',
                "line 1: id must be int, got True",
            ),
            (
                b'{"id": 1, "task_id": "t", "has_step": true, "executed": false,'
                b' "failure_class": "Oops"}\n',
                "line 1: unknown failure_class: 'Oops'",
            ),
            (b'{"id": 1, "task_id": "t\xff"}\n', "line 1: 'utf-8' codec can't decode"),
            (
                b'{"id": 0, "task_id": "t", "has_step": true, "executed": false,'
                b' "failure_class": null}\n',
                "line 1: failed step without failure_class",
            ),
            (
                b'{"id": 0, "task_id": "t", "has_step": true, "executed": true,'
                b' "failure_class": "GenerationError"}\n',
                "line 1: executed step with failure_class",
            ),
            (b"[" * 100_000 + b"\n", "line 1: maximum recursion depth exceeded"),
        ],
        ids=[
            "no-task-id", "no-executed", "int-task-id", "string-executed", "bool-id",
            "unknown-failure-class", "not-utf8", "unclassified-failure", "classified-success",
            "nested-too-deeply",
        ],
    )
    def test_malformed_line_raises(self, tmp_path, content, reason):
        path = tmp_path / "audit.jsonl"
        path.write_bytes(content)
        with pytest.raises(MalformedAudit, match=f"^{re.escape(reason)}"):
            read_audit(path)

    @pytest.mark.parametrize(
        "translation,kind",
        [
            ("rule q(Y) :- p(X).", "UnsafeRule"),
            ("fact p(a, b).\nrule q(X) :- p(X).", "ArityMismatch"),
        ],
    )
    def test_engine_failure_kinds_reach_the_audit(self, translation, kind):
        # Translation only parses; the engine names the defect.
        step_text = template.serialize_step(gold_step(gen_chain_task(2, seed=0), 0))
        replies = {"g": step_text, "t": translation, "p": "NO", "f": "NO"}

        def transport(url, payload, headers, timeout):
            prompt_name = payload["messages"][0]["content"].split("\n\n", 1)[0]
            choice = {"message": {"content": replies[prompt_name]}}
            return 200, json.dumps({"choices": [choice] * payload["n"]})

        backend = HttpBackend(
            HttpSpec(endpoint="http://example.test/v1/chat/completions", model="test-model"),
            prompts={"generation": "g", "translation": "t", "precision": "p", "feasibility": "f"},
            transport=transport,
            sleep=lambda _t: None,
        )
        root = BeamNode(id=0, parent=None, steps=(), score=ScoreBreakdown(0, 0, 0))
        (child,) = expand_node(
            root, GenerationContext(question="q"), 1, backend, BeamConfig(), 1, {}
        )
        record = reference_record(child, "t")
        assert (record["failure_kind"], record["failure_class"]) == (kind, TRANSLATION_ERROR)

    def test_the_audit_schema_names_each_class_and_kind(self):
        doc = (Path(__file__).parent.parent / "docs" / "audit_schema.md").read_text()
        for name in [*datafactory._FAILURES, *(kind.value for kind in FailureKind)]:
            assert f"`{name}`" in doc, name

    def test_tables_render(self, tmp_path):
        emit_datasets(_results(2), tmp_path, seed=0, config={})
        text = format_stats_tables(compute_stats(read_audit(tmp_path / "audit.jsonl")))
        assert "success rate" in text
        assert "Generation Error" in text
        assert "Translation Error" in text


class TestEmitDatasets:
    def test_counts_and_files(self, tmp_path):
        results = _results(4, p_bad_rule=0.0)
        manifest = emit_datasets(results, tmp_path, seed=0, config={"x": 1})
        assert manifest["counts"]["tasks"] == 4
        assert manifest["counts"]["sft"] >= 4
        for name in ("sft.jsonl", "dpo.jsonl", "audit.jsonl", "manifest.json"):
            assert (tmp_path / name).exists()
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_datasets(_results(3, seed=4), a, seed=4, config={"k": 9})
        emit_datasets(_results(3, seed=4), b, seed=4, config={"k": 9})
        for name in ("sft.jsonl", "dpo.jsonl", "audit.jsonl", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_results(self, tmp_path):
        manifest = emit_datasets([], tmp_path, seed=0)
        assert manifest["counts"] == {"sft": 0, "dpo": 0, "tasks": 0}
        assert (tmp_path / "sft.jsonl").read_text() == ""

    def test_caps_respected(self, tmp_path):
        results = _results(4, p_bad_rule=0.0)
        manifest = emit_datasets(results, tmp_path, seed=0, max_sft=2, max_dpo=0)
        assert manifest["counts"]["sft"] == 2
        assert manifest["counts"]["dpo"] == 0
        assert manifest["partial"] is True

    def test_failed_rerun_leaves_previous_outputs(self, tmp_path, monkeypatch):
        names = ("sft.jsonl", "dpo.jsonl", "audit.jsonl", "manifest.json")
        emit_datasets(_results(3, seed=4), tmp_path, seed=4)
        before = {name: (tmp_path / name).read_bytes() for name in names}
        calls = itertools.count()

        audit_lines = datafactory._audit_lines

        def failing_audit_lines(task_id, nodes):
            for line in audit_lines(task_id, nodes):
                if next(calls) == 5:
                    raise RuntimeError("emission failed")
                yield line

        monkeypatch.setattr(datafactory, "_audit_lines", failing_audit_lines)
        with pytest.raises(RuntimeError):
            emit_datasets(_results(3, seed=5), tmp_path, seed=5)
        assert {name: (tmp_path / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_sft_responses_repass_stage1_filter(self, tmp_path):
        results = _results(4, p_bad_rule=0.2, seed=6)
        emit_datasets(results, tmp_path, seed=6)
        tasks = {r.task.id: r.task for r in results}
        rows = [
            json.loads(line)
            for line in (tmp_path / "sft.jsonl").read_text().splitlines()
        ]
        assert rows
        samples = [(tasks[r["task_id"]], r["response"]) for r in rows]
        kept, rejected = stage1_records(samples)
        assert len(kept) == len(rows) and rejected == []
        assert [k["prompt"] for k in kept] == [r["prompt"] for r in rows]

    def test_dpo_invariants(self, tmp_path):
        results = _results(6, p_bad_rule=0.4, seed=9)
        emit_datasets(results, tmp_path, seed=9)
        rows = [
            json.loads(line)
            for line in (tmp_path / "dpo.jsonl").read_text().splitlines()
        ]
        for r in rows:
            assert r["chosen"] != r["rejected"]
            assert r["prompt"]

    def test_pair_whose_sides_render_the_same_is_dropped(self):
        # The translation prompt holds a step's own REASONING_RESULT, so two
        # candidates that differ only there can translate apart.  The one the
        # engine executes gets the engine's conclusions as its result, which
        # the other one, rejected, may have written itself.
        task = gen_chain_task(2, seed=0)
        gold = gold_step(task, 0)
        ps = task.ground_truth_proof[0]
        kbl = "".join(f"fact {f.atom}.\n" for f in ps.body_facts) + f"rule {ps.rule}"
        guessed = replace(gold, reasoning_result="a guess")
        generated = [
            template.serialize_step(gold),
            template.serialize_step(guessed) + f"FINAL ANSWER: {task.gold_answer}\n",
        ]

        def transport(url, payload, headers, timeout):
            prompt = payload["messages"][0]["content"]
            name = prompt.split("\n\n", 1)[0]
            if name == "g":
                contents = generated
            elif name == "t":
                contents = [kbl if "a guess" in prompt else "not a clause"]
            else:
                contents = ["NO"]
            return 200, json.dumps({"choices": [{"message": {"content": c}} for c in contents]})

        backend = HttpBackend(
            HttpSpec(endpoint="http://example.test/v1/chat/completions", model="test-model"),
            prompts={"generation": "g", "translation": "t", "precision": "p", "feasibility": "f"},
            transport=transport,
            sleep=lambda _t: None,
        )
        result = run_beam(task, BeamConfig(width=2, top_k=1, max_depth=1), backend)
        (pair,) = result.pairs
        assert (pair.chosen.verdict.executed, pair.rejected.verdict.executed) == (True, False)
        assert pair.chosen.step == pair.rejected.step == gold
        assert datafactory.dpo_records_from_result(result) == []

    def test_paths_that_render_the_same_make_one_sft_record(self):
        task = gen_chain_task(2, seed=0)
        result = run_beam(task, BeamConfig(), ScriptedNoisyBackend(task, CorruptionModel()))
        responses = {sft_response(p) for p in result.sft_paths}
        assert (len(result.sft_paths), len(responses)) == (9, 1)
        (record,) = datafactory.sft_records_from_result(result)
        assert record == {"prompt": task.prompt, "response": sft_response(result.sft_paths[0]),
                          "task_id": task.id, "stage": "stage2"}

    def test_distinct_sft_responses_come_in_harvest_order(self):
        # Nine harvested paths whose responses alternate between two texts,
        # the first seen on paths 0 and 1.
        task = gen_chain_task(3, seed=702)
        backend = ScriptedNoisyBackend(task, CorruptionModel(p_bad_rule=0.4, seed=7))
        result = run_beam(task, BeamConfig(), backend)
        responses = [sft_response(p) for p in result.sft_paths]
        first, second = responses[:2]
        assert len(responses) == 9 and first != second and set(responses) == {first, second}
        records = datafactory.sft_records_from_result(result)
        assert [rec["response"] for rec in records] == [first, second]

    def test_config_hash_stable_and_order_free(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert len(config_hash({})) == 16


@functools.lru_cache(maxsize=None)
def result_pool():
    """The beam results of eight chain tasks of 1 to 3 hops, in ascending id
    order; under the noisy backend most hold DPO pairs."""
    results = []
    for i in range(8):
        task = gen_chain_task(1 + i % 3, seed=700 + i)
        backend = ScriptedNoisyBackend(task, CorruptionModel(p_bad_rule=0.4, seed=7))
        results.append(run_beam(task, BeamConfig(), backend))
    return tuple(sorted(results, key=lambda r: r.task.id))


def file_bytes(texts):
    """The bytes of each file of ``texts``, its lines without their newlines."""
    return {
        name: "".join(line + "\n" for line in lines).encode("utf-8")
        for name, lines in texts.items()
    }


def sft_response(path):
    """The response text of a harvested path."""
    return template.serialize_response(template.StructuredResponse(path.steps, path.answer))


def oracle_sft(result):
    """The SFT records of one result: one per distinct response of its
    harvested paths, in harvest order."""
    task = result.task
    responses = dict.fromkeys(map(sft_response, result.sft_paths))
    return [
        {"prompt": task.prompt, "response": r, "task_id": task.id, "stage": "stage2"}
        for r in responses
    ]


def oracle_dpo(result):
    """The DPO records of one result: one per pair whose sides render apart."""
    records = []
    for pair in result.pairs:
        chosen, rejected = (template.serialize_step(n.step) for n in (pair.chosen, pair.rejected))
        if chosen != rejected:
            records.append({"prompt": pair.prompt, "chosen": chosen, "rejected": rejected,
                            "task_id": result.task.id})
    return records


def oracle_emit(results, seed, max_sft, max_dpo, lost_tasks):
    """The manifest and file bytes of emit_datasets as it was when it took a
    list: sort the results by task id, build every record, then slice."""
    results = sorted(results, key=lambda r: r.task.id)
    all_sft = [rec for r in results for rec in oracle_sft(r)]
    all_dpo = [rec for r in results for rec in oracle_dpo(r)]
    sft, dpo = all_sft[:max_sft], all_dpo[:max_dpo]
    manifest = {
        "counts": {"sft": len(sft), "dpo": len(dpo), "tasks": len(results)},
        "seed": seed,
        "config_hash": config_hash({}),
        "rule_language_version": RULE_LANGUAGE_VERSION,
        "files": ["sft.jsonl", "dpo.jsonl", "audit.jsonl"],
        "partial": lost_tasks > 0 or len(sft) < len(all_sft) or len(dpo) < len(all_dpo),
    }
    audit = [
        json.dumps(reference_record(node, r.task.id), sort_keys=True)
        for r in results for node in r.nodes
    ]
    texts = {
        "sft.jsonl": [json.dumps(rec) for rec in sft],
        "dpo.jsonl": [json.dumps(rec) for rec in dpo],
        "audit.jsonl": audit,
        "manifest.json": [json.dumps(manifest, sort_keys=True, indent=2)],
    }
    return manifest, file_bytes(texts)


def oracle_emit_stage1(samples, seed, max_sft, lost_tasks):
    """The manifest and file bytes of stage 1 as it was before it streamed:
    filter every sample into two lists, then slice the kept ones."""
    kept, rejected = [], []
    for task, raw in samples:
        try:
            resp = template.parse_response(raw, require_final_answer=True)
        except template.ParseError:
            rejected.append({"task_id": task.id, "label": FORMAT_VIOLATION, "detail": ""})
            continue
        if normalize_answer(resp.final_answer) != normalize_answer(task.gold_answer):
            rejected.append(
                {"task_id": task.id, "label": WRONG_ANSWER, "detail": resp.final_answer}
            )
            continue
        kept.append({"prompt": task.prompt, "response": raw, "task_id": task.id, "stage": STAGE1})
    sft = kept[:max_sft]
    manifest = {
        "counts": {"kept": len(sft), "rejected": len(rejected)},
        "seed": seed,
        "config_hash": config_hash({}),
        "stage": STAGE1,
        "partial": lost_tasks > 0 or len(sft) < len(kept),
    }
    texts = {
        "sft.jsonl": [json.dumps(rec) for rec in sft],
        "rejections.jsonl": [json.dumps(rec) for rec in rejected],
        "manifest.json": [json.dumps(manifest, sort_keys=True, indent=2)],
    }
    return manifest, file_bytes(texts)


@functools.lru_cache(maxsize=None)
def stage1_tasks():
    """Sixteen chain tasks of 1 to 4 hops, for planted stage-1 corpora."""
    return tuple(gen_chain_task(1 + i % 4, seed=900 + i) for i in range(16))


def read_dir(path) -> dict[str, bytes]:
    return {name: (Path(path) / name).read_bytes() for name in sorted(os.listdir(path))}


class TestStreamedEmission:
    caps = st.one_of(st.none(), st.just(0), st.integers(1, 12))

    def test_pool_has_records_to_cut(self):
        pool = result_pool()
        assert len({r.task.id for r in pool}) == len(pool)
        assert sum(len(oracle_sft(r)) for r in pool) > 12
        assert sum(len(oracle_dpo(r)) for r in pool) > 12

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.sets(st.integers(0, 7)),
        max_sft=caps,
        max_dpo=caps,
        lost=st.integers(0, 2),
    )
    def test_matches_an_oracle_that_sorts_and_slices(self, picks, max_sft, max_dpo, lost):
        results = [result_pool()[i] for i in sorted(picks)]
        with tempfile.TemporaryDirectory() as out:
            manifest = emit_datasets(
                iter(results), out, seed=1, max_sft=max_sft, max_dpo=max_dpo,
                lost_tasks=["lost"] * lost,
            )
            written = read_dir(out)
        want_manifest, want_files = oracle_emit(results, 1, max_sft, max_dpo, lost)
        assert manifest == want_manifest
        assert written == want_files

    @settings(max_examples=60, deadline=None)
    @given(
        malformed=st.floats(0, 1),
        wrong=st.floats(0, 1),
        corpus_seed=st.integers(0, 2**32),
        max_sft=caps,
        lost=st.integers(0, 2),
    )
    def test_stage1_matches_an_oracle_that_filters_then_slices(
        self, malformed, wrong, corpus_seed, max_sft, lost
    ):
        planted = planted_stage1_corpus(
            stage1_tasks(), malformed, wrong * (1 - malformed), seed=corpus_seed
        )
        samples = [(p.task, p.raw) for p in planted]
        with tempfile.TemporaryDirectory() as out:
            manifest = emit_datasets(
                iter(samples), out, seed=2, max_sft=max_sft, lost_tasks=["lost"] * lost,
                stage=STAGE1,
            )
            written = read_dir(out)
        want_manifest, want_files = oracle_emit_stage1(samples, 2, max_sft, lost)
        assert manifest == want_manifest
        assert written == want_files

    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 7), min_size=2, max_size=6).filter(
            lambda p: any(a >= b for a, b in zip(p, p[1:]))
        )
    )
    def test_id_out_of_order_or_repeated_raises_and_keeps_previous_outputs(self, picks):
        pool = result_pool()
        with tempfile.TemporaryDirectory() as out:
            emit_datasets(pool[:3], out, seed=0)
            before = read_dir(out)
            with pytest.raises(ValueError, match="ids must ascend"):
                emit_datasets((pool[i] for i in picks), out, seed=1)
            assert read_dir(out) == before
