"""Stage-1 filtering, SFT/DPO emission, run statistics, failure taxonomy.

A failed step's audit class is the one its translation names, or
``TRANSLATION_ERROR`` when the engine fails a translated step; ``_FAILURES``
gives each class its run count and its row in the failure taxonomy.

Emitted files (all UTF-8, LF, fixed key order, no timestamps in records).
A line of a record file holds one JSON object, its keys in this order:

- ``sft.jsonl``:  {"prompt", "response", "task_id", "stage"}
- ``dpo.jsonl``:  {"prompt", "chosen", "rejected", "task_id"}
- ``audit.jsonl``: one beam node per line (schema in docs/audit_schema.md)
- ``rejections.jsonl`` (stage 1 only): {"task_id", "label", "detail"}, the
  detail a WrongAnswer's final answer and "" for a FormatViolation
- ``manifest.json``: counts, seed, config hash, rule-language version (stage
  2) or stage name (stage 1), and ``partial``: true when ``max_sft`` or
  ``max_dpo`` cut records.

Both stages, and ``save_tasks``, write through ``write_outputs``: every file
goes to a temporary name in the output directory first and is renamed into
place only once all are written, ``manifest.json`` last.  Each file is
replaced atomically, but the set is not: a run that fails before the renames
leaves the previous run's files as they were, and one that fails between two
renames can leave new files next to old ones, under the old manifest.  Both
stages stream: each task's outcome is written as it arrives, then dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re

from . import kernel, template
from .beam import BeamResult
from .corpus import task_to_dict
from .gateway import GENERATION_ERROR, TRANSLATION_ERROR
from .template import normalize_answer

FORMAT_VIOLATION = "FormatViolation"
WRONG_ANSWER = "WrongAnswer"

STAGE1 = "stage1"
STAGE2 = "stage2"


class MalformedAudit(ValueError):
    pass


def stage1_lines(sample) -> dict[str, list[str]]:
    """The line of one (task, raw response) pair: an SFT record in sft.jsonl
    if the response strictly conforms to the template and answers the task
    correctly, else a FormatViolation or WrongAnswer rejection."""
    task, raw = sample
    # A parsed step checks its own fields when it is built, so one parse
    # decides conformance.
    try:
        resp = template.parse_response(raw, require_final_answer=True)
    except template.ParseError:
        reject = {"task_id": task.id, "label": FORMAT_VIOLATION, "detail": ""}
        return {"rejections.jsonl": [json.dumps(reject)]}
    if normalize_answer(resp.final_answer) != normalize_answer(task.gold_answer):
        reject = {"task_id": task.id, "label": WRONG_ANSWER, "detail": resp.final_answer}
        return {"rejections.jsonl": [json.dumps(reject)]}
    record = {"prompt": task.prompt, "response": raw, "task_id": task.id, "stage": STAGE1}
    return {"sft.jsonl": [json.dumps(record)]}


# --------------------------------------------------------------------------
# Audit file


_JSON_BOOL = {False: "false", True: "true"}


def _audit_lines(task_id: str, nodes):
    """One audit line per node: its record's keys in sorted order, laid out
    as ``json.dumps`` writes a dict (", " and ": ", ASCII only).  Strings go
    through ``json.dumps``; ints, booleans and null are written as literals."""
    task = json.dumps(task_id)
    for node in nodes:
        verdict = node.verdict
        executed = bool(verdict and verdict.executed)
        failure_class = failure_kind = "null"
        if node.steps and not executed:
            failure_class = json.dumps(node.translation.error_kind or TRANSLATION_ERROR)
            failure_kind = json.dumps(verdict.failure.value)
        answer = node.answer
        score = node.score
        yield (
            f'{{"answer": {"null" if answer is None else json.dumps(answer)}, '
            f'"depth": {len(node.steps)}, "executed": {_JSON_BOOL[executed]}, '
            f'"failure_class": {failure_class}, "failure_kind": {failure_kind}, '
            f'"has_step": {_JSON_BOOL[bool(node.steps)]}, "id": {node.id}, '
            f'"parent": {"null" if node.parent is None else node.parent}, '
            f'"selected": {_JSON_BOOL[node.selected]}, "task_id": {task}, '
            f'"terminal": {_JSON_BOOL[answer is not None]}, "total": {score.total}, '
            f'"w1": {score.w1}, "w2": {score.w2}, "w3": {score.w3}}}'
        )


_AUDIT_TYPES = {"id": int, "task_id": str, "has_step": bool, "executed": bool}
# Each failure class: the run count that its failed steps add to, and its row
# in the failure taxonomy.
_FAILURES = {
    GENERATION_ERROR: ("failures_generation", "Generation Error"),
    TRANSLATION_ERROR: ("failures_translation", "Translation Error"),
}
_STAT_COUNTS = ("steps_total", "steps_executed", *(key for key, _ in _FAILURES.values()))


def read_audit(path) -> list[dict]:
    """The records of an audit file; MalformedAudit names the first line that
    is not UTF-8 JSON, holds a field that stats reads with the wrong type, or
    is a failed step without a failure class or an executed one with one."""
    records = []
    with open(path, "rb") as fh:  # json.loads decodes each line itself
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # or nested too deeply
                raise MalformedAudit(f"line {lineno}: {exc}") from exc
            if not isinstance(rec, dict):
                raise MalformedAudit(f"line {lineno}: not an audit record")
            for key, tp in _AUDIT_TYPES.items():
                if type(rec.get(key)) is not tp:
                    raise MalformedAudit(
                        f"line {lineno}: {key} must be {tp.__name__}, got {rec.get(key)!r}"
                    )
            if rec.get("failure_class") not in (None, *_FAILURES):
                raise MalformedAudit(
                    f"line {lineno}: unknown failure_class: {rec['failure_class']!r}"
                )
            if rec["has_step"] and not rec["executed"] and rec.get("failure_class") is None:
                raise MalformedAudit(f"line {lineno}: failed step without failure_class")
            if rec["executed"] and rec.get("failure_class") is not None:
                raise MalformedAudit(f"line {lineno}: executed step with failure_class")
            records.append(rec)
    return records


def compute_stats(records: list[dict]) -> dict:
    """The run statistics of the records ``read_audit`` returns, as ``stats
    --json`` prints them: each step counts once, in its task's row of
    ``per_task_breakdown``, and the run totals sum the rows."""
    rows: dict[str, dict[str, int]] = {}
    for rec in records:
        if not rec["has_step"]:
            continue
        outcome = "steps_executed" if rec["executed"] else _FAILURES[rec["failure_class"]][0]
        per = rows.setdefault(rec["task_id"], dict.fromkeys(_STAT_COUNTS, 0))
        per["steps_total"] += 1
        per[outcome] += 1
    stats = {key: sum(per[key] for per in rows.values()) for key in _STAT_COUNTS}
    total = stats["steps_total"]
    stats["success_rate"] = stats["steps_executed"] / total if total else 0.0
    stats["per_task_breakdown"] = rows
    return stats


# A generated task's id is its family, then "-<seed>", a seed that may be
# negative ("chain-1h--3000009"); any other id is its own family.
_FAMILY_RE = re.compile(r"(chain-\d+h|rulebase-\d+f\d+r)--?\d+")


def format_stats_tables(stats: dict) -> str:
    """Success-rate and error-taxonomy tables of ``compute_stats``' result,
    one row per task family and one per failure class."""
    families: dict[str, dict[str, int]] = {}
    for task_id, per in stats["per_task_breakdown"].items():
        m = _FAMILY_RE.fullmatch(task_id)
        row = families.setdefault(m[1] if m else task_id, dict.fromkeys(_STAT_COUNTS, 0))
        for key in _STAT_COUNTS:
            row[key] += per[key]
    lines = ["success rate of engine-executed steps"]
    lines.append(f"{'family':40s} {'steps':>7s} {'executed':>9s} {'rate':>7s}")
    for family, per in sorted(families.items()):
        rate = per["steps_executed"] / per["steps_total"] if per["steps_total"] else 0.0
        lines.append(
            f"{family:40s} {per['steps_total']:7d} {per['steps_executed']:9d} {rate:7.3f}"
        )
    lines.append(
        f"{'TOTAL':40s} {stats['steps_total']:7d} {stats['steps_executed']:9d} "
        f"{stats['success_rate']:7.3f}"
    )
    lines.append("")
    lines.append("failure taxonomy (engine failures only)")
    n_fail = stats["steps_total"] - stats["steps_executed"]
    for key, label in _FAILURES.values():
        pct = 100.0 * stats[key] / n_fail if n_fail else 0.0
        lines.append(f"{label:20s} {stats[key]:7d} {pct:6.1f}%")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Dataset emission


def sft_records_from_result(result: BeamResult) -> list[dict]:
    """One SFT record per distinct response of the harvested paths, in
    harvest order."""
    task = result.task
    records = []
    seen: set[str] = set()
    for path in result.sft_paths:
        response = template.serialize_response(
            template.StructuredResponse(steps=path.steps, final_answer=path.answer)
        )
        if response in seen:
            continue
        seen.add(response)
        records.append({"prompt": task.prompt, "response": response, "task_id": task.id,
                        "stage": STAGE2})
    return records


def dpo_records_from_result(result: BeamResult) -> list[dict]:
    """One DPO record per pair whose two sides render apart."""
    records = []
    for pair in result.pairs:
        chosen = template.serialize_step(pair.chosen.step)
        rejected = template.serialize_step(pair.rejected.step)
        if chosen == rejected:
            continue
        records.append({"prompt": pair.prompt, "chosen": chosen, "rejected": rejected,
                        "task_id": result.task.id})
    return records


def config_hash(config_obj) -> str:
    blob = json.dumps(config_obj, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def write_outputs(out_dir, names, lines) -> None:
    """Stream ``lines``, pairs of a name in ``names`` and a line without its
    newline, into the files ``names`` in ``out_dir``.  The files are open at
    once under temporary names in ``out_dir``, and renamed into place in the
    order of ``names``, a manifest last, once the stream ends.  Each rename
    replaces one file atomically.  A failure before the renames leaves the old
    files; a failure between two renames can leave a mix of new and old files,
    with the old manifest."""
    os.makedirs(out_dir, exist_ok=True)
    tmps = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in names}
    try:
        with contextlib.ExitStack() as stack:
            files = {name: stack.enter_context(open(tmp, "w", encoding="utf-8", newline="\n"))
                     for name, tmp in tmps.items()}
            for name, line in lines:
                files[name].write(line + "\n")
        for name, tmp in tmps.items():
            os.replace(tmp, os.path.join(out_dir, name))
    finally:
        for tmp in tmps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def save_tasks(tasks, path) -> None:
    """Write ``tasks`` to ``path`` as JSONL, which ``corpus.load_tasks`` reads."""
    out_dir, name = os.path.split(os.path.abspath(path))
    lines = ((name, json.dumps(task_to_dict(t), sort_keys=True)) for t in tasks)
    write_outputs(out_dir, [name], lines)


def stage2_lines(result: BeamResult) -> dict[str, list[str]]:
    """The lines of one BeamResult: its SFT and DPO records, and its nodes."""
    return {
        "sft.jsonl": [json.dumps(rec) for rec in sft_records_from_result(result)],
        "dpo.jsonl": [json.dumps(rec) for rec in dpo_records_from_result(result)],
        "audit.jsonl": list(_audit_lines(result.task.id, result.nodes)),
    }


# Per stage: its renderer, its files in rename order, each with the count its
# lines add to (None: not counted), and the manifest's fixed fields.
_STAGES = {
    STAGE1: (stage1_lines, {"sft.jsonl": "kept", "rejections.jsonl": "rejected"},
             {"stage": STAGE1}),
    STAGE2: (stage2_lines, {"sft.jsonl": "sft", "dpo.jsonl": "dpo", "audit.jsonl": None},
             {"rule_language_version": kernel.RULE_LANGUAGE_VERSION,
              "files": ["sft.jsonl", "dpo.jsonl", "audit.jsonl"]}),
}


def emit_datasets(outcomes, out_dir, seed: int, config: dict | None = None,
                  max_sft: int | None = None, max_dpo: int | None = None,
                  lost_tasks=(), stage: str = STAGE2) -> dict:
    """Write one stage's files and manifest.json from ``outcomes``, one per
    task, each rendered as it arrives and then dropped.  Lines past
    ``max_sft`` in sft.jsonl or ``max_dpo`` in dpo.jsonl are cut, which makes
    the output partial, as do ``lost_tasks``, read once ``outcomes`` is
    exhausted.  The stages differ in four ways:

    1. Their renderers, files and counts: stage 1 renders (task, raw response)
       pairs into sft.jsonl and rejections.jsonl, counted as ``kept`` and
       ``rejected``; stage 2 renders BeamResults into sft.jsonl, dpo.jsonl
       and audit.jsonl, counting the first two as ``sft`` and ``dpo``.
    2. The manifest's fixed fields: ``stage`` in stage 1, and
       ``rule_language_version`` and ``files`` in stage 2.
    3. Only stage 2 counts ``tasks``.
    4. Only stage 2 requires task ids to ascend (else ValueError); stage 1
       keeps its corpus order."""
    render, counted, fixed = _STAGES[stage]
    caps = {"sft.jsonl": max_sft, "dpo.jsonl": max_dpo}
    counts = {key: 0 for key in counted.values() if key}
    if stage == STAGE2:
        counts["tasks"] = 0
    manifest = {
        "counts": counts,
        "seed": seed,
        "config_hash": config_hash(config or {}),
        **fixed,
        "partial": False,
    }

    def lines():
        last = None
        for outcome in outcomes:
            if stage == STAGE2:
                task_id = outcome.task.id
                if last is not None and task_id <= last:
                    raise ValueError(f"task {task_id!r} after {last!r}: ids must ascend")
                last = task_id
                counts["tasks"] += 1
            for name, rendered in render(outcome).items():
                key, cap = counted[name], caps.get(name)
                kept = rendered if cap is None else rendered[: cap - counts[key]]
                if key:
                    counts[key] += len(kept)
                manifest["partial"] |= len(kept) < len(rendered)
                yield from ((name, line) for line in kept)
        manifest["partial"] |= bool(lost_tasks)
        yield "manifest.json", json.dumps(manifest, sort_keys=True, indent=2)

    write_outputs(out_dir, [*counted, "manifest.json"], lines())
    return manifest
