"""Stage-2 benchmark for oracle-forge: one workload per call, outputs checked.

    python3 perfbench/run.py --workload chain-noisy [--seed 3] [--seconds 35]
                             [--trace 0|1]

Run from the repository root.  Each measurement is one closed-loop
``oracle-forge stage2`` invocation in a fresh process (perfbench/child.py);
invocations repeat for about ``--seconds``, after one untimed warm-up.
``--trace 0`` reports the end-to-end metrics over the timed invocations:
throughput as total tasks over total wall time, the others as medians, with
times scaled to a reference host speed (``reference_s``).
``--trace 1`` alternates untraced and traced invocations and reports
per-layer metrics from the traced ones (spans from tracer.py) plus the
tracing overhead.  Every invocation's outputs must be byte-identical
(replay determinism); they are checked through the engine (check.py).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any check
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from check import deep_check, digests, quick_check
from tracer import aggregate, count_under, load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_TIMED = 3            # timed invocations per run, whatever --seconds says
RUN_BUDGET_S = 150       # no invocation starts after this much of a run
INVOCATION_TIMEOUT_S = 120
REFERENCE_ITERATIONS = 600_000
REFERENCE_S = 0.15       # the probe's duration on the reference host
TAIL_PERCENTILES = (99.9, 99, 97.5, 95, 90, 75, 50)
# The stub is on loopback; keep any configured HTTP proxy out of the way.
CHILD_ENV = dict(os.environ, NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")

NOISY = {"p_bad_rule": 0.3, "p_bad_fact": 0.1}
CHAIN = {"kind": "chain", "hops": 4}

WORKLOADS = {
    "chain-noisy": {
        "why": "template text, beam and emission dominate; corpus generation is negligible",
        "tasks": 400,
        "corpus": CHAIN,
    },
    "rulebase-noisy": {
        "why": "corpus generation runs forward_chain_with_trace ~5 times per task and dominates",
        "tasks": 400,
        "corpus": {"kind": "rulebase", "n_facts": 12, "n_rules": 8, "negation": True},
    },
    "http-stub": {
        "why": "HttpBackend round trips to a loopback stub dominate; template and kernel CPU is small",
        "tasks": 24,
        "corpus": CHAIN,
        "http": True,
    },
}

END_TO_END_UNITS = {"tasks_per_s": "tasks/s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Per-layer metrics computed outside the spans: from the untraced invocations
# of a traced run, or from the output check.
OUTSIDE_LAYER_METRICS = ("beam.nodes_per_s", "beam.sft_rejected_step_frac", "process.cpu_s",
                         "process.cpu_per_wall", "trace.overhead_frac")

# ROADMAP's seed-commit profile counts (seed 3, 400 tasks); reported, never adjusted.
CROSS_CHECK = {
    "chain-noisy": {
        "template.serialize_step.calls": 35982,
        "template.parse_response.calls": 6600,
        "beam.nodes": 7000,
        "dpo.records": 2000,
    },
    "rulebase-noisy": {"kernel.forward_chain.calls": 1986},
}


def corpus_config(workload: str, seed: int, tasks: int) -> dict:
    """The scripted-noisy config that fixes the workload's corpus."""
    spec = WORKLOADS[workload]
    return {
        "backend": "scripted-noisy",
        "seed": seed,
        "workers": 2,
        "prompts_dir": "prompts" if spec.get("http") else None,
        "corruption": dict(NOISY),
        "corpus": dict(spec["corpus"], count=tasks),
    }


def write_json(path: Path, data) -> None:
    # JSON is valid YAML, so config files are written with the json module.
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


class Stub:
    """The loopback chat-completion stub (stub.py) in its own process."""

    def __init__(self, config_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(SRC), str(config_path)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"stub did not start (got {line!r})")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes: a probe of the host's speed.

    On a shared host the CPU speed drifts by half or more over minutes, and
    every timing with it.  One probe runs before each stage2 invocation and
    one after the last; an invocation's times are scaled by REFERENCE_S over
    the mean of the two probes around it, to what they would be on a host
    where the probe takes REFERENCE_S."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = str(i % 1009)
        counts[key] = counts.get(key, 0) + len(key)
    return time.perf_counter() - t0


def invoke(config_path: Path, seed: int, n: int, traced: bool, stub: Stub | None) -> dict:
    """One stage2 process; returns its timings, resource use and output state.
    The first invocation's outputs stay in ``_work/first`` for the deep check."""
    out_dir = WORK / ("first" if n == 0 else "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    timing_path = WORK / "timing.json"
    timing_path.unlink(missing_ok=True)
    spans_path = WORK / f"spans-{n}.json" if traced else None
    before = stub.stats() if stub else None
    ref_s = reference_s()
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(config_path),
           str(out_dir), str(seed), str(timing_path)]
    if spans_path:
        cmd.append(str(spans_path))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    res = {"traced": traced, "exit": proc.returncode, "spans": spans_path, "ref_s": ref_s}
    if proc.returncode != 0 or not timing_path.exists():
        res["exit"] = proc.returncode or 1
        res["error"] = err.decode("utf-8", "replace")[-2000:]
        return res
    timing = json.loads(timing_path.read_text(encoding="utf-8"))
    res.update(
        wall_s=timing["end"] - t0,
        setup_s=timing["built"] - t0,
        tasks=timing["tasks"],
        rss_mib=timing["maxrss_kib"] / 1024,
        cpu_s=timing["cpu_s"],
    )
    if stub:
        after = stub.stats()
        res["stub"] = {k: after[k] - before[k] for k in after}
    res["problems"] = quick_check(str(out_dir), timing["tasks"])
    res["digests"] = digests(str(out_dir))
    return res


def audit_counts(out_dir: Path) -> dict:
    nodes = steps = executed = 0
    for line in (out_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        nodes += 1
        steps += rec["has_step"]
        executed += rec["executed"]
    sft_tasks = {
        json.loads(line)["task_id"]
        for line in (out_dir / "sft.jsonl").read_text(encoding="utf-8").splitlines()
    }
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    sizes = sum((out_dir / f).stat().st_size
                for f in ("sft.jsonl", "dpo.jsonl", "audit.jsonl", "manifest.json"))
    return {
        "nodes": nodes, "steps": steps, "executed": executed,
        "sft_tasks": len(sft_tasks), "sft": manifest["counts"]["sft"],
        "dpo": manifest["counts"]["dpo"], "bytes": sizes,
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(percentile, value, n): the highest listed percentile with at least
    ten samples beyond it (nearest rank)."""
    n = len(durations)
    xs = sorted(durations)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, xs[max(0, math.ceil(p / 100 * n) - 1)], n
    return 50.0, statistics.median(xs) if xs else 0.0, n


def layer_metrics(spans, counts: dict, tasks: int, stub: dict | None) -> dict:
    """Per-layer metrics of one traced invocation."""
    agg = aggregate(spans)

    def get(name, key):
        a = agg.get(name)
        return a[key] if a else 0

    def calls(*names):
        return sum(get(n, "calls") for n in names)

    def self_s(*names):
        return sum(get(n, "self_s") for n in names)

    gen = ("corpus.gen_chain_task", "corpus.gen_rulebase_task")
    fc = ("kernel.forward_chain", "kernel.forward_chain_with_trace")
    gw = ("gateway.generate_candidates", "gateway.translate", "gateway.evaluate")
    m = {
        "cli.build_tasks.s": get("cli.build_tasks", "total_s"),
        "cli.make_task_backend.calls": calls("cli.make_task_backend"),
        "corpus.gen_task.calls": calls(*gen),
        "corpus.gen_task.self_s": self_s(*gen),
        "corpus.attempts_per_task": _ratio(
            count_under(spans, "kernel.forward_chain_with_trace", "corpus.gen_"), tasks),
        "kernel.forward_chain.calls": calls("kernel.forward_chain_with_trace"),
        "kernel.forward_chain.self_s": self_s(*fc),
        "kernel.forward_chain.derived_facts": get("kernel.forward_chain_with_trace", "value") or 0,
        "kernel.verify_step.calls": calls("kernel.verify_step"),
        "kernel.verify_step.self_s": self_s("kernel.verify_step"),
        "kernel.verify_step.executed_ratio": _ratio(
            get("kernel.verify_step", "value") or 0, calls("kernel.verify_step")),
        "kernel.parse_program.calls": calls("kernel.parse_program"),
        "kernel.parse_program.self_s": self_s("kernel.parse_program"),
        "template.serialize_step.calls": calls("template.serialize_step"),
        "template.serialize_step.self_s": self_s("template.serialize_step"),
        "template.serialize_step.calls_per_node": _ratio(
            calls("template.serialize_step"), counts["nodes"]),
        "template.parse_response.calls": calls("template.parse_response"),
        "template.parse_response.self_s": self_s("template.parse_response"),
    }
    for name in gw:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["gateway.translate.ok_ratio"] = _ratio(
        get("gateway.translate", "value") or 0, calls("gateway.translate"))
    requests = stub["requests"] if stub else 0
    m.update({
        "gateway.http.requests": requests,
        "gateway.http.stub_service_s": stub["service_s"] if stub else 0.0,
        "gateway.http.client_overhead_ms": _ratio(
            1000 * (self_s(*gw) - stub["service_s"]), requests) if stub else 0.0,
        "gateway.http.calls_per_executed_step": _ratio(requests, counts["executed"]),
        "llm_calls_per_task": _ratio(requests, tasks),
        "prompt_kib_per_task": _ratio(stub["body_bytes"] / 1024, tasks) if stub else 0.0,
    })
    runs = agg.get("beam.run_beam", {"durations_s": []})["durations_s"]
    pct, tail_s, n = tail(runs)
    m.update({
        "beam.run_beam.calls": calls("beam.run_beam"),
        "beam.run_beam.self_s": self_s("beam.run_beam"),
        "beam.run_beam.p50_ms": 1000 * statistics.median(runs) if runs else 0.0,
        "beam.run_beam.tail_ms": 1000 * tail_s,
        "beam.run_beam.tail_pct": pct,
        "beam.run_beam.tail_n": n,
        "beam.expand_node.calls": calls("beam.expand_node"),
        "beam.expand_node.self_s": self_s("beam.expand_node"),
        "beam.backtrack_pairs.self_s": self_s("beam.backtrack_pairs"),
        "beam.nodes": counts["nodes"],
        "beam.harvest_ratio": _ratio(counts["sft_tasks"], tasks),
        "beam.executed_ratio": _ratio(counts["executed"], counts["steps"]),
    })
    candidates = (get("datafactory.sft_records_from_result", "value") or 0) + (
        get("datafactory.dpo_records_from_result", "value") or 0)
    m.update({
        "datafactory.emit_datasets.self_s": self_s("datafactory.emit_datasets"),
        "datafactory.write_audit.s": get("datafactory.write_audit", "total_s"),
        "datafactory.bytes_written": counts["bytes"],
        "datafactory.records": counts["sft"] + counts["dpo"] + counts["nodes"],
        "datafactory.truncated": candidates - counts["sft"] - counts["dpo"],
    })
    # Shares of the time spent inside traced functions; cli.main and
    # cli.cmd_stage2 are left out because their self time is waiting on workers.
    busy = sum(a["self_s"] for k, a in agg.items() if k not in ("cli.main", "cli.cmd_stage2"))
    for layer in ("cli", "corpus", "kernel", "template", "gateway", "beam", "datafactory"):
        layer_self = sum(
            a["self_s"] for k, a in agg.items()
            if k.startswith(layer + ".") and k not in ("cli.main", "cli.cmd_stage2"))
        m[f"layer.{layer}.share"] = _ratio(layer_self, busy)
    return m


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def run(args) -> tuple[dict, list[str]]:
    """Runs the workload; returns (result object, report lines)."""
    sys.path.insert(0, str(SRC))
    from oracle_forge import cli, config

    spec = WORKLOADS[args.workload]
    tasks = spec["tasks"]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    corpus_cfg = corpus_config(args.workload, args.seed, tasks)
    corpus_path = WORK / "corpus.yaml"
    write_json(corpus_path, corpus_cfg)
    stage2_path = corpus_path
    t_start = time.perf_counter()
    stub = Stub(corpus_path) if spec.get("http") else None
    invocations = []
    try:
        if stub:
            stage2_path = WORK / "stage2.yaml"
            write_json(stage2_path, dict(
                corpus_cfg, backend="http",
                http={"endpoint": stub.url + "/v1/chat/completions", "model": "stub"}))
        invocations.append(invoke(stage2_path, args.seed, 0, False, stub))
        deadline = time.perf_counter() + args.seconds
        while True:
            timed = invocations[1:]
            n_untraced = sum(not r["traced"] for r in timed)
            n_traced = len(timed) - n_untraced
            enough = n_untraced >= MIN_TIMED and (not args.trace or n_traced >= 1)
            now = time.perf_counter()
            last = invocations[-1].get("wall_s", 0.0)
            # Start another invocation only if it would end less than half an
            # invocation past the deadline, so a run lasts about --seconds.
            if (enough and now + last / 2 >= deadline) or now - t_start + 1.5 * last > RUN_BUDGET_S:
                break
            traced = bool(args.trace) and n_traced < n_untraced
            invocations.append(invoke(stage2_path, args.seed, len(invocations), traced, stub))
        refs = [r["ref_s"] for r in invocations] + [reference_s()]
    finally:
        if stub:
            stub.close()

    # Each invocation runs between two probes of the host's speed.
    for r, before, after in zip(invocations, refs, refs[1:]):
        r["speed"] = REFERENCE_S / ((before + after) / 2)
    report = [f"workload {args.workload}  seed {args.seed}  tasks {tasks}  "
              f"invocations {len(invocations) - 1} timed + 1 warm-up"]
    attempted = failed = 0
    correct = True
    ok = [r for r in invocations if r["exit"] == 0]
    for r in invocations:
        attempted += tasks
        if r["exit"] != 0:
            failed += tasks
            correct = False
            report.append(f"FAIL invocation exited {r['exit']}: {r.get('error', '')}")
        elif r["problems"]:
            failed += tasks
            correct = False
            report += [f"FAIL {p}" for p in r["problems"]]
        if r.get("stub", {}).get("errors"):
            correct = False
            report.append(f"FAIL stub rejected {r['stub']['errors']} malformed requests")

    distinct = {tuple(sorted(r["digests"].items())) for r in ok}
    if len(distinct) > 1:
        correct = False
        report.append(f"FAIL replay: {len(distinct)} different output digests across invocations")
    first = invocations[0]
    sft = None
    if first["exit"] == 0:
        tasks_by_id = {t.id: t for t in cli.build_tasks(config.load_config(str(corpus_path)))}
        bad, failures, sft = deep_check(str(WORK / "first"), tasks_by_id)
        failed += len(bad) * sum(r["digests"] == first["digests"] for r in ok)
        for check, ids in failures.items():
            correct = False
            report.append(f"FAIL {check}: {len(ids)} records in {len(set(ids))} of "
                          f"{tasks} tasks, first in {ids[0]}")
        for name, digest in first["digests"].items():
            report.append(f"sha256 {name:14s} {digest}")
        report.append(f"sft records holding a step the engine rejected: "
                      f"{sft['with_rejected_step']} of {sft['records']}")

    untraced = [r for r in ok[1:] if not r["traced"]]
    traced_runs = [r for r in ok[1:] if r["traced"]]
    metrics: dict[str, dict] = {}
    if untraced:
        # Times are scaled to the reference host speed (see reference_s), and
        # throughput is total tasks over total scaled wall time, not a median
        # of per-invocation rates, so that it averages the speed changes the
        # probes miss.
        e2e = {
            "tasks_per_s": sum(r["tasks"] for r in untraced)
            / sum(r["wall_s"] * r["speed"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in untraced),
            "peak_rss_mb": median_of(untraced, "rss_mib"),
        }
        raw_rate = sum(r["tasks"] for r in untraced) / sum(r["wall_s"] for r in untraced)
        raw_setup = median_of(untraced, "setup_s")
        shown = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        shown["failed_frac"] = (_ratio(failed, attempted), "ratio")
        if stub:
            shown["llm_calls_per_task"] = (untraced[0]["stub"]["requests"] / tasks, "calls")
            shown["prompt_kib_per_task"] = (untraced[0]["stub"]["body_bytes"] / 1024 / tasks, "KiB")
        for name, (value, unit) in shown.items():
            report.append(f"{name:24s} {value:12.4f} {unit}")
        report.append(f"unscaled: tasks_per_s {raw_rate:.4f} tasks/s, setup_s {raw_setup:.4f} s, "
                      f"host speed median {median_of(untraced, 'speed'):.3f}")
        report.append("wall_s per timed invocation: "
                      + " ".join(f"{r['wall_s']:.3f}" for r in untraced))
        if not args.trace:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if args.trace and untraced and traced_runs and sft is not None:
        metrics = traced_metrics(args, untraced, traced_runs, tasks, sft, report)
    elif args.trace:
        correct = False
        report.append("FAIL no traced and untraced invocation pair to compare")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def traced_metrics(args, untraced, traced_runs, tasks, sft, report) -> dict:
    counts = audit_counts(WORK / "first")
    per_run = [
        layer_metrics(load(str(r["spans"])), counts, tasks, r.get("stub"))
        for r in traced_runs
    ]
    wall = median_of(untraced, "wall_s")
    values = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    values.update({
        "beam.nodes_per_s": counts["nodes"] / wall,
        "beam.sft_rejected_step_frac": _ratio(sft["with_rejected_step"], sft["records"]),
        "process.cpu_s": median_of(untraced, "cpu_s"),
        "process.cpu_per_wall": statistics.median(r["cpu_s"] / r["wall_s"] for r in untraced),
        "trace.overhead_frac": median_of(traced_runs, "wall_s") / wall - 1,
    })
    expected = CROSS_CHECK.get(args.workload, {}) if args.seed == 3 and tasks == 400 else {}
    observed = dict(values, **{"dpo.records": counts["dpo"]})
    for name, want in expected.items():
        got = observed[name]
        verdict = "ok" if got == want else "MISMATCH"
        report.append(f"cross-check {name} = {got:g} (ROADMAP {want}) {verdict}")
    table = [f"{'metric':44s} {'value':>14s}"]
    table += [f"{k:44s} {v:14.6g}" for k, v in sorted(values.items())]
    (WORK / "layers.txt").write_text("\n".join(table) + "\n", encoding="utf-8")
    report += table
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def unit_of(name: str) -> str:
    if name == "llm_calls_per_task":
        return "calls"
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "stub_service_s", "cpu_s"):
        return "s"
    if last.endswith("_ms"):
        return "ms"
    if last == "nodes_per_s":
        return "nodes/s"
    if last == "bytes_written":
        return "bytes"
    if last == "prompt_kib_per_task":
        return "KiB"
    if last == "tail_pct":
        return "%"
    if last.endswith(("ratio", "share", "frac", "per_wall", "per_task", "per_node", "_step")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oracle_forge" / "cli.py").is_file() or not (ROOT / "prompts").is_dir():
        print(f"error: no oracle_forge sources under {SRC}", file=sys.stderr)
        return 2
    result, report = run(args)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
