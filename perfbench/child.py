"""One ``oracle-forge stage2`` invocation in a fresh process, timed from outside.

    python3 perfbench/child.py SRC_DIR CONFIG OUT_DIR SEED TIMING_JSON [SPANS_JSON]

Imports the package from SRC_DIR, wraps ``cli.build_tasks`` to note when it
returns, runs ``cli.main(["stage2", ...])`` and writes TIMING_JSON with
``perf_counter`` timestamps (the same monotonic clock as the parent's),
the exit code and the process's resource usage.  With SPANS_JSON the run is
traced (see tracer.py) and the spans are written there after the timestamps
are taken.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    src, config, out_dir, seed, timing_path = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    sys.path.insert(0, src)
    import oracle_forge
    from oracle_forge import cli

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(oracle_forge)

    marks = {}
    build_tasks = cli.build_tasks

    def timed_build_tasks(cfg):
        tasks = build_tasks(cfg)
        marks["built"] = time.perf_counter()
        marks["tasks"] = len(tasks)
        return tasks

    cli.build_tasks = timed_build_tasks
    code = cli.main(["stage2", "--config", config, "--out", out_dir, "--seed", seed])
    end = time.perf_counter()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    timing = {
        "exit": code,
        "built": marks.get("built"),
        "tasks": marks.get("tasks"),
        "end": end,
        "maxrss_kib": ru.ru_maxrss,
        "cpu_s": ru.ru_utime + ru.ru_stime,
    }
    if tracer is not None:
        tracer.dump(spans_path)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
