#!/usr/bin/env python3
"""Sweep corruption probability and compare the measured engine success rate
against the corruption model's closed-form expectation.

Usage: python3 scripts/success_rate_sweep.py [--steps 2000] [--seed 17]
"""

import argparse
import sys

sys.path.insert(0, "src")

from oracle_forge.beam import BeamConfig, run_beam
from oracle_forge.corpus import CorruptionModel, gen_chain_task
from oracle_forge.gateway import ScriptedNoisyBackend


def measure(p_bad_rule: float, min_steps: int, seed: int) -> tuple[float, int]:
    model = CorruptionModel(p_bad_rule=p_bad_rule, seed=seed)
    executed = total = task_seed = 0
    while total < min_steps:
        task = gen_chain_task(4, seed=int(p_bad_rule * 1000) * 10007 + task_seed)
        result = run_beam(task, BeamConfig(), ScriptedNoisyBackend(task, model))
        for node in result.nodes:
            if node.step is None:
                continue
            total += 1
            executed += node.verdict.executed
        task_seed += 1
    return executed / total, total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=2000, help="min steps per point")
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument(
        "--probs", type=float, nargs="+", default=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    )
    args = ap.parse_args()

    print(f"{'p_bad_rule':>10} {'expected':>9} {'measured':>9} {'delta':>7} {'steps':>7}")
    for p in args.probs:
        expected = CorruptionModel(p_bad_rule=p).expected_engine_success_rate()
        measured, n = measure(p, args.steps, args.seed)
        print(f"{p:10.2f} {expected:9.3f} {measured:9.3f} {measured - expected:+7.3f} {n:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
