"""Operator entry point wiring the two-stage pipeline.

Subcommands:

- ``stage1``: few-shot response generation + strict template/answer filter
- ``stage2``: engine-guided beam search -> sft.jsonl, dpo.jsonl, audit, manifest
- ``stats``: success-rate and failure-taxonomy tables from an audit dump
- ``verify-step``: debug one symbolic step (facts file + rule file)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import deque
from dataclasses import replace
from itertools import islice

from . import corpus, datafactory, gateway, kernel
from .beam import run_beam
from .config import BACKENDS, ConfigError, PipelineConfig, load_config

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def build_tasks(cfg: PipelineConfig) -> list[corpus.TaskInstance]:
    spec = cfg.corpus
    if spec.kind == "file":
        return corpus.load_tasks(spec.path)
    tasks = []
    for i in range(spec.count):
        seed = cfg.seed * 1_000_003 + i
        if spec.kind == "chain":
            tasks.append(corpus.gen_chain_task(1 + i % spec.hops, spec.distractors, seed))
        else:
            tasks.append(
                corpus.gen_rulebase_task(spec.n_facts, spec.n_rules, spec.negation, seed)
            )
    return tasks


def _prepare_run(cfg: PipelineConfig) -> list[corpus.TaskInstance] | None:
    """build_tasks, then the output directory, or None after a one-line error
    on stderr: a rule base that exhausts its retries, a corpus file that
    cannot be read or holds a line that is not a task, or an output directory
    that cannot be made.  The directory is made before any task runs, so a
    bad one costs no work, and only after the corpus is built, so a bad
    corpus leaves none behind."""
    try:
        tasks = build_tasks(cfg)
        os.makedirs(cfg.out_dir, exist_ok=True)
    except (corpus.RetryExhausted, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return tasks


def make_task_backend(cfg: PipelineConfig, task, prompts):
    if cfg.backend == "http":
        return gateway.HttpBackend(cfg.http, prompts)
    if cfg.backend == "scripted-noisy":
        return gateway.ScriptedNoisyBackend(task, cfg.corruption)
    return gateway.ScriptedOracleBackend(task)


def _in_threads(fn, items, workers: int):
    """Yield fn(item) for each of the iterator ``items``, in order, from
    ``workers`` threads, which run at most ``workers`` items ahead.  The pool
    is imported here, so a run without threads loads neither
    ``concurrent.futures`` nor the ``logging`` it imports."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        ahead = deque(pool.submit(fn, item) for item in islice(items, workers))
        while ahead:
            outcome = ahead.popleft().result()
            ahead.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield outcome
    finally:
        pool.shutdown(cancel_futures=True)


def _run_per_task(cfg: PipelineConfig, tasks, fn, lost: list):
    """Yield fn(task) for each task, in task order: serially for the CPU-bound
    scripted backends, and from ``cfg.workers`` threads (0: one per core) for
    the http backend, whose tasks wait on the network.  A consumer that drops
    each result before it takes the next holds at most workers + 1; closing
    the generator, or a task that raises, cancels the tasks still queued.  A
    task whose backend stays unavailable is left out, appended to ``lost``,
    and counted on stderr after the last task."""

    def attempt(task):
        try:
            return fn(task)
        except gateway.BackendUnavailable as exc:
            return exc

    if cfg.backend == "http":
        outcomes = _in_threads(attempt, iter(tasks), cfg.workers or os.cpu_count() or 1)
    else:
        outcomes = map(attempt, tasks)
    for outcome in outcomes:
        if isinstance(outcome, gateway.BackendUnavailable):
            lost.append(outcome)
        else:
            yield outcome
    if lost:
        print(
            f"error: {len(lost)}/{len(tasks)} tasks lost to an unavailable "
            f"backend; first: {lost[0]}",
            file=sys.stderr,
        )


def cmd_stage1(cfg: PipelineConfig, prompts: dict[str, str]) -> int:
    tasks = _prepare_run(cfg)
    if tasks is None:
        return EXIT_FAILURE

    def one(task):
        backend = make_task_backend(cfg, task, prompts)
        ctx = gateway.GenerationContext(
            question=task.prompt,
            few_shot_asset=prompts.get("few_shot", ""),
            temperature=cfg.beam.temperature,
            seed=cfg.seed,
        )
        return task, backend.generate_response(ctx)

    lost: list = []
    with contextlib.closing(_run_per_task(cfg, tasks, one, lost)) as samples:
        manifest = datafactory.emit_datasets(
            samples, cfg.out_dir, seed=cfg.seed, config=cfg.hashable_dict(),
            max_sft=cfg.max_sft, lost_tasks=lost, stage=datafactory.STAGE1,
        )
    print(f"stage1: kept {manifest['counts']['kept']}, rejected {manifest['counts']['rejected']}")
    return EXIT_FAILURE if lost else EXIT_OK


def cmd_stage2(cfg: PipelineConfig, prompts: dict[str, str]) -> int:
    tasks = _prepare_run(cfg)
    if tasks is None:
        return EXIT_FAILURE
    beam_cfg = cfg.beam
    if prompts.get("few_shot"):
        beam_cfg = replace(beam_cfg, few_shot_asset=prompts["few_shot"])
    without_path: list = []

    def one(task):
        result = run_beam(task, beam_cfg, make_task_backend(cfg, task, prompts))
        if not result.sft_paths:
            without_path.append(task.id)
        return result

    # Emission takes the results in id order, as each task finishes.
    tasks.sort(key=lambda t: t.id)
    lost: list = []
    with contextlib.closing(_run_per_task(cfg, tasks, one, lost)) as results:
        manifest = datafactory.emit_datasets(
            results, cfg.out_dir, seed=cfg.seed, config=cfg.hashable_dict(),
            max_sft=cfg.max_sft, max_dpo=cfg.max_dpo, lost_tasks=lost,
        )
    if without_path:
        print(f"warning: {len(without_path)}/{manifest['counts']['tasks']} tasks "
              "yielded no correct path", file=sys.stderr)
    print(
        f"stage2: sft {manifest['counts']['sft']}, dpo {manifest['counts']['dpo']}, "
        f"tasks {manifest['counts']['tasks']}"
    )
    return EXIT_FAILURE if lost else EXIT_OK


def cmd_stats(audit_path: str, as_json: bool) -> int:
    try:
        stats = datafactory.compute_stats(datafactory.read_audit(audit_path))
    except (datafactory.MalformedAudit, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if as_json:
        print(json.dumps(stats, sort_keys=True, indent=2))
    else:
        print(datafactory.format_stats_tables(stats), end="")
    return EXIT_OK


def cmd_verify_step(facts_path: str, rule_path: str) -> int:
    parsed = []
    for path in (facts_path, rule_path):
        try:
            with open(path, encoding="utf-8") as fh:
                parsed.append(kernel.parse_clauses(fh.read()))
        except (ValueError, OSError) as exc:  # a KbError is a ValueError
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    (facts, stray_rules), (stray_facts, rules) = parsed
    problem = None
    if stray_rules:
        problem = f"{facts_path}: facts file must contain no rule, got {len(stray_rules)}"
    elif len(rules) != 1 or stray_facts:
        problem = (
            f"{rule_path}: rule file must contain exactly 1 rule and no fact, "
            f"got {len(rules)} rules and {len(stray_facts)} facts"
        )
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_FAILURE
    verdict = kernel.verify_step(sorted(facts), rules[0])
    if verdict.executed:
        print(f"executed: {kernel.render_conclusions(verdict)}")
        return EXIT_OK
    print(f"failed: {verdict.failure.value}" + (f" ({verdict.detail})" if verdict.detail else ""))
    return EXIT_FAILURE


def _load_cfg(args) -> PipelineConfig:
    flags = {"seed": args.seed, "backend": args.backend, "out_dir": args.out or None}
    overrides = {key: value for key, value in flags.items() if value is not None}
    return load_config(args.config or None, **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oracle-forge",
        description="Engine-verified synthetic reasoning data pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--backend", choices=BACKENDS)
        p.add_argument("--out", help="output directory")

    p1 = sub.add_parser("stage1", help="few-shot generation + strict filtering")
    add_common(p1)
    p2 = sub.add_parser("stage2", help="engine-guided beam search data generation")
    add_common(p2)
    ps = sub.add_parser("stats", help="report success rates and failure taxonomy")
    ps.add_argument("audit", help="audit.jsonl path")
    ps.add_argument("--json", action="store_true", dest="as_json")
    pv = sub.add_parser("verify-step", help="verify one symbolic step")
    pv.add_argument("facts", help=".kbl file with the premise facts")
    pv.add_argument("rule", help=".kbl file with exactly one rule")

    args = parser.parse_args(argv)
    if args.command == "stats":
        return cmd_stats(args.audit, args.as_json)
    if args.command == "verify-step":
        return cmd_verify_step(args.facts, args.rule)
    try:
        cfg = _load_cfg(args)
        prompts = cfg.load_prompts()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "stage1":
        return cmd_stage1(cfg, prompts)
    return cmd_stage2(cfg, prompts)


if __name__ == "__main__":
    sys.exit(main())
