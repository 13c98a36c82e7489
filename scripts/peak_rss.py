#!/usr/bin/env python3
"""Peak RSS of one stage-1 or stage-2 run, read inside the process that ran it.

Runs ``oracle-forge <--stage>`` (``stage2`` by default) in this process on a
scripted-noisy corpus of --tasks tasks at seed 3, then prints
``peak_rss_mib <value>``: ``getrusage(RUSAGE_SELF).ru_maxrss``.  Stage 2's
corruption is ``p_bad_rule`` 0.3 and ``p_bad_fact`` 0.1; stage 1's is
``p_format_break`` 0.3, which breaks the template of about 30% of its samples.
--kind picks the corpus: ``chain`` (the default; hops <= 4) or ``rulebase``
(the rule-base bench workload's 12 facts, 8 rules and negation).
Linux carries the high-water mark across fork and exec, so start this from a
small process such as a shell: under a large parent it reads the parent's
size.  Comparing two task counts shows how a stage's memory grows with the
corpus:

    python3 scripts/peak_rss.py --tasks 100 --out /tmp/rss-100
    python3 scripts/peak_rss.py --tasks 1600 --out /tmp/rss-1600
    python3 scripts/peak_rss.py --kind rulebase --tasks 1600 --out /tmp/rss-rb
    python3 scripts/peak_rss.py --stage stage1 --tasks 1600 --out /tmp/rss-s1
"""

import argparse
import json
import os
import resource
import sys

CORPORA = {
    "chain": {"kind": "chain", "hops": 4},
    "rulebase": {"kind": "rulebase", "n_facts": 12, "n_rules": 8, "negation": True},
}
# Each stage's corruption: the one noise that stage 1's single sample per task
# reads, or the beam's bad rules and facts.
CORRUPTION = {
    "stage1": {"p_format_break": 0.3},
    "stage2": {"p_bad_rule": 0.3, "p_bad_fact": 0.1},
}

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from oracle_forge import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stage", choices=sorted(CORRUPTION), default="stage2")
    ap.add_argument("--kind", choices=sorted(CORPORA), default="chain")
    ap.add_argument("--tasks", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    cfg = os.path.join(args.out, "config.yaml")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({
            "backend": "scripted-noisy",
            "seed": 3,
            "corruption": CORRUPTION[args.stage],
            "corpus": dict(CORPORA[args.kind], count=args.tasks),
        }, fh)  # JSON is valid YAML
    code = cli.main([args.stage, "--config", cfg, "--out", os.path.join(args.out, args.stage)])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"peak_rss_mib {peak_kib / 1024:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
