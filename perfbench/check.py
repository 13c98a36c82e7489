"""Output checks and replay digests for one stage-2 output directory.

``digests`` hashes the four output files.  ``quick_check`` verifies that the
manifest counts match the files.  ``deep_check`` re-verifies every record
through the engine:

- every SFT response parses strictly and its final answer equals the task's
  gold answer;
- every SFT response is a harvested path of the audit: its steps, in order,
  are the nodes leading to a terminal node that carries the gold answer, and
  each step re-translates (NL pairing) and gets from ``kernel.verify_step``
  the verdict the audit recorded for its node.  Records follow the audit's
  order of harvested terminals; a path repeated word for word is written
  once, so some terminals have no record;
- every DPO ``chosen`` step executes and every ``rejected`` step does not;
- ``datafactory.compute_stats`` reads the audit, which covers every task.

The scored beam keeps steps that the engine rejected when nothing better is
on the frontier, and harvests any terminal path with the gold answer, so an
SFT path may hold such a step.  The check requires the engine's verdict on
every step to replay as audited, and ``deep_check`` counts the records that
hold a rejected step; acceptance gate 4 requires every step to execute only
under the scripted-oracle backend, where every candidate is a gold step.

Identical digests imply identical check results, so a run whose
invocations all produced the same digests needs ``deep_check`` only once.
"""

from __future__ import annotations

import hashlib
import json
import os

OUTPUT_FILES = ("sft.jsonl", "dpo.jsonl", "audit.jsonl", "manifest.json")


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def quick_check(out_dir: str, n_tasks: int) -> list[str]:
    """Problems with the manifest against the files; empty when consistent."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        counts = json.load(fh)["counts"]
    problems = []
    for key, name in (("sft", "sft.jsonl"), ("dpo", "dpo.jsonl")):
        lines = _line_count(os.path.join(out_dir, name))
        if counts[key] != lines:
            problems.append(f"manifest {key}={counts[key]} but {name} has {lines} lines")
    if counts["tasks"] != n_tasks:
        problems.append(f"manifest tasks={counts['tasks']}, expected {n_tasks}")
    return problems


def _harvest_chains(records: list[dict], gold_by_task: dict) -> dict[str, list[tuple]]:
    """Per task, in node order: for each terminal node whose answer is the
    gold answer, the audited ``executed`` flags of the steps leading to it."""
    nodes: dict[str, dict[int, dict]] = {}
    for rec in records:
        nodes.setdefault(rec["task_id"], {})[rec["id"]] = rec
    chains: dict[str, list[tuple]] = {}
    for task_id, by_id in nodes.items():
        for node_id in sorted(by_id):
            leaf = by_id[node_id]
            if not leaf["terminal"] or leaf["answer"] != gold_by_task.get(task_id):
                continue
            flags = []
            cur = leaf
            while cur["parent"] is not None:
                flags.append(bool(cur["executed"]))
                cur = by_id[cur["parent"]]
            chains.setdefault(task_id, []).append(tuple(reversed(flags)))
    return chains


def deep_check(out_dir: str, tasks_by_id: dict) -> tuple[set[str], dict[str, list[str]], dict]:
    """(ids of tasks with a record that fails a check, failing task ids by
    check name in record order, SFT counts: records and records holding a
    step the engine rejected)."""
    from oracle_forge import datafactory, gateway, kernel, template

    failures: dict[str, list[str]] = {}

    def fail(check, task_id):
        failures.setdefault(check, []).append(task_id)

    def executes(step, task) -> bool:
        translation = gateway.ScriptedOracleBackend(task).translate(step)
        return translation.ok and kernel.verify_step(translation.facts, translation.rule).executed

    norm = datafactory.normalize_answer
    audit_path = os.path.join(out_dir, "audit.jsonl")
    try:
        audit = datafactory.read_audit(audit_path)
        datafactory.compute_stats(audit)
    except datafactory.MalformedAudit:
        audit = []
        failures["audit unreadable by compute_stats"] = sorted(tasks_by_id)
    for task_id in sorted(set(tasks_by_id) - {rec["task_id"] for rec in audit}):
        fail("task missing from the audit", task_id)
    chains = _harvest_chains(audit, {t: norm(task.gold_answer) for t, task in tasks_by_id.items()})
    next_chain: dict[str, int] = {}

    sft = {"records": 0, "with_rejected_step": 0}
    for row in _rows(os.path.join(out_dir, "sft.jsonl")):
        sft["records"] += 1
        task = tasks_by_id.get(row["task_id"])
        if task is None:
            fail("sft record of an unknown task", row["task_id"])
            continue
        try:
            resp = template.parse_response(row["response"], require_final_answer=True)
            for step in resp.steps:
                step.validate()
        except ValueError:
            fail("sft response does not parse strictly", task.id)
            continue
        if norm(resp.final_answer) != norm(task.gold_answer):
            fail("sft final answer differs from the gold answer", task.id)
        verdicts = tuple(executes(step, task) for step in resp.steps)
        sft["with_rejected_step"] += not all(verdicts)
        # The record's path is the next harvested terminal, skipping those
        # whose path repeats an earlier one word for word.
        candidates = chains.get(task.id, [])
        i = next_chain.get(task.id, 0)
        while i < len(candidates) and candidates[i] != verdicts:
            i += 1
        if i == len(candidates):
            fail("sft response is no harvested path, or a step's engine verdict "
                 "differs from the audit", task.id)
        next_chain[task.id] = i + 1

    for row in _rows(os.path.join(out_dir, "dpo.jsonl")):
        task = tasks_by_id.get(row["task_id"])
        if task is None:
            fail("dpo record of an unknown task", row["task_id"])
            continue
        try:
            chosen = template.parse_response(row["chosen"]).steps[0]
            rejected = template.parse_response(row["rejected"]).steps[0]
        except ValueError:
            fail("dpo step does not parse", task.id)
            continue
        if not executes(chosen, task):
            fail("dpo chosen step does not execute", task.id)
        if executes(rejected, task):
            fail("dpo rejected step executes", task.id)

    bad = {t for ids in failures.values() for t in ids}
    return bad, failures, sft
