"""Tests of the benchmark itself:

    python3 -m pytest -q perfbench/tests

They run small stage-2 invocations through perfbench/child.py, except the
ROADMAP cross-check, which runs the 400-task corpora once each (a few seconds
per workload).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def span(sid, name, start, end, parent=0, value=None):
    return (sid, name, start, end, parent, None, 1, value)


def test_self_time_on_synthetic_nested_trace():
    spans = [
        span(1, "a", 0, 100),
        span(2, "b", 10, 40, parent=1),
        span(3, "c", 15, 25, parent=2),
        span(4, "b", 30, 60, parent=1),   # overlaps the first child of 1
        span(5, "d", 90, 130, parent=1),  # runs past its parent's end
        span(6, "e", 200, 210),
    ]
    selfs = tracer.self_times(spans)
    # a covers 10..60 and 90..100 with children: 100 - 50 - 10 = 40
    assert selfs == {1: 40, 2: 20, 3: 10, 4: 30, 5: 40, 6: 10}
    agg = tracer.aggregate(spans)
    assert agg["b"]["calls"] == 2
    assert agg["b"]["self_s"] == pytest.approx(50e-9)
    assert agg["b"]["total_s"] == pytest.approx(60e-9)
    assert tracer.count_under(spans, "c", "a") == 1
    assert tracer.count_under(spans, "c", "d") == 0


def stage2(tmp_path: Path, name: str, config: dict, traced: bool):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / name
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(cfg),
           str(out), str(config["seed"]), str(tmp_path / f"{name}.timing.json")]
    spans_path = tmp_path / f"{name}.spans.json"
    if traced:
        cmd.append(str(spans_path))
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=300)
    return out, tracer.load(str(spans_path)) if traced else None


def test_traced_and_untraced_runs_produce_identical_outputs(tmp_path):
    config = run.corpus_config("chain-noisy", seed=5, tasks=12)
    plain, _ = stage2(tmp_path, "plain", config, traced=False)
    traced, spans = stage2(tmp_path, "traced", config, traced=True)
    assert check.digests(str(plain)) == check.digests(str(traced))
    names = {s[tracer.NAME] for s in spans}
    for expected in ("cli.build_tasks", "beam.run_beam", "beam.expand_node",
                     "gateway.generate_candidates", "gateway.translate",
                     "kernel.verify_step", "template.serialize_step",
                     "datafactory.emit_datasets", "corpus.gen_chain_task"):
        assert expected in names
    runs = [s for s in spans if s[tracer.NAME] == "beam.run_beam"]
    assert len(runs) == 12 and all(s[tracer.TASK] for s in runs)
    by_id = {s[tracer.ID]: s for s in spans}
    for s in spans:
        if s[tracer.NAME] == "kernel.verify_step":
            assert s[tracer.TASK] is not None
            assert by_id[s[tracer.PARENT]][tracer.NAME] == "beam.expand_node"


def test_output_check_accepts_a_run_and_rejects_altered_records(tmp_path):
    from oracle_forge import cli, config as cfgmod, datafactory, template

    config = run.corpus_config("chain-noisy", seed=3, tasks=12)
    out, _ = stage2(tmp_path, "out", config, traced=False)
    tasks = {t.id: t for t in cli.build_tasks(cfgmod.load_config(str(tmp_path / "cfg.yaml")))}
    bad, failures, sft = check.deep_check(str(out), tasks)
    assert (bad, failures) == (set(), {})
    assert 0 < sft["with_rejected_step"] < sft["records"]

    sft_path = out / "sft.jsonl"
    rows = [json.loads(line) for line in sft_path.read_text(encoding="utf-8").splitlines()]
    i = next(i for i, r in enumerate(rows) if len(template.parse_response(r["response"]).steps) > 1)
    j = next(j for j, r in enumerate(rows) if r["task_id"] != rows[i]["task_id"])
    # A record missing a step is no harvested path; one with the other answer
    # differs from the gold answer.
    resp = template.parse_response(rows[i]["response"])
    rows[i]["response"] = template.serialize_response(
        template.StructuredResponse(steps=resp.steps[1:], final_answer=resp.final_answer))
    resp = template.parse_response(rows[j]["response"])
    flipped = "false" if datafactory.normalize_answer(resp.final_answer) == "true" else "true"
    rows[j]["response"] = template.serialize_response(
        template.StructuredResponse(steps=resp.steps, final_answer=flipped))
    sft_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    bad, failures, _ = check.deep_check(str(out), tasks)
    assert bad == {rows[i]["task_id"], rows[j]["task_id"]}
    assert any(name.startswith("sft response is no harvested path") for name in failures)
    assert "sft final answer differs from the gold answer" in failures


def test_layer_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = run.corpus_config("chain-noisy", seed=3, tasks=8)
    out, spans = stage2(tmp_path, "out", config, traced=True)
    metrics = run.layer_metrics(spans, run.audit_counts(out), 8, None)
    metrics.update(dict.fromkeys(run.OUTSIDE_LAYER_METRICS, 0.0))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(metrics) == set(declared)
    assert all(run.unit_of(name) == unit for name, unit in declared.items())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {name: unit for name, unit in run.END_TO_END_UNITS.items()}


@pytest.mark.parametrize("workload", sorted(run.CROSS_CHECK))
def test_roadmap_profile_counts(tmp_path, workload):
    config = run.corpus_config(workload, seed=3, tasks=400)
    out, spans = stage2(tmp_path, "out", config, traced=True)
    counts = run.audit_counts(out)
    observed = dict(run.layer_metrics(spans, counts, 400, None), **{"dpo.records": counts["dpo"]})
    for name, want in run.CROSS_CHECK[workload].items():
        assert observed[name] == want, name
