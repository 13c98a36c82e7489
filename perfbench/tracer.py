"""Spans placed from outside around the public functions of oracle_forge.

``install`` replaces every public module-level function of the traced modules
with a wrapper that records one span per call, in every module namespace that
holds the same function object (so names re-bound by ``from .x import y``,
such as ``cli.run_beam``, are covered).  Public methods of the gateway
backend classes are wrapped on their classes.  The program itself carries no
instrumentation.

A span is the tuple ``(id, name, start_ns, end_ns, parent_id, task_id,
thread_id, value)``: ``parent_id`` is 0 for a root span, ``task_id`` is the
task whose beam search the call belongs to (None outside one), and ``value``
is a count read off the call's result where one is defined in ``RESULT_HOOKS``
(else None).  Spans stay in memory until ``dump``.

``self_times`` and ``aggregate`` turn a span list into per-function totals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

TRACED_MODULES = ("cli", "corpus", "kernel", "template", "gateway", "beam", "datafactory")
BACKEND_CLASSES = ("ScriptedOracleBackend", "ScriptedNoisyBackend", "HttpBackend")

# Functions that start a task's subtree: span name -> index of the task argument.
TASK_ARG = {"beam.run_beam": 0, "cli.make_task_backend": 1}

# Counts read off a call's result and stored as the span's value.
RESULT_HOOKS = {
    "kernel.forward_chain_with_trace": lambda args, res: len(res[0]) - len(args[0].facts),
    "kernel.verify_step": lambda args, res: int(res.executed),
    "gateway.translate": lambda args, res: int(res.ok),
    "datafactory.sft_records_from_result": lambda args, res: len(res),
    "datafactory.dpo_records_from_result": lambda args, res: len(res),
}

ID, NAME, START, END, PARENT, TASK, THREAD, VALUE = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.task = None
        return local

    def wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        state = self._state
        hook = RESULT_HOOKS.get(name)
        task_arg = TASK_ARG.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            outer_task = local.task
            if task_arg is not None:
                local.task = args[task_arg].id
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    value = hook(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, name, start, end, parent, local.task, threading.get_ident(), value)
                )
                local.task = outer_task

        return traced

    def install(self, package) -> int:
        """Wrap the public functions of ``package``'s traced modules and the
        backend classes' public methods; returns the number wrapped."""
        modules = [
            getattr(package, m) for m in dir(package)
            if inspect.ismodule(getattr(package, m))
        ]
        modules.append(package)
        wrapped = 0
        for short in TRACED_MODULES:
            mod = getattr(package, short)
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                w = self.wrap(f"{short}.{attr}", fn)
                wrapped += 1
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, w)
        gateway = package.gateway
        for cls_name in BACKEND_CLASSES:
            cls = getattr(gateway, cls_name)
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                setattr(cls, attr, self.wrap(f"gateway.{attr}", fn))
                wrapped += 1
        return wrapped

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def load(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)]


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT]:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        start, end = s[START], s[END]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[ID], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[ID]] = end - start - covered
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, total_s (inclusive), self_s, value (sum of the
    result counts, None if the name has no hook) and durations_s."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        a = out.setdefault(
            s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": None, "durations_s": []}
        )
        dur = (s[END] - s[START]) / 1e9
        a["calls"] += 1
        a["total_s"] += dur
        a["self_s"] += selfs[s[ID]] / 1e9
        a["durations_s"].append(dur)
        if s[VALUE] is not None:
            a["value"] = (a["value"] or 0) + s[VALUE]
    return out


def count_under(spans, name: str, ancestor_prefix: str) -> int:
    """Spans called ``name`` that have an ancestor whose name starts with
    ``ancestor_prefix``."""
    by_id = {s[ID]: s for s in spans}
    n = 0
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p:
            anc = by_id[p]
            if anc[NAME].startswith(ancestor_prefix):
                n += 1
                break
            p = anc[PARENT]
    return n
