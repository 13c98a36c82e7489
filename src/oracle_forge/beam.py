"""Scored beam search over reasoning steps with engine verification.

Per depth: the top-K frontier nodes each generate W/K candidate children;
every child is translated to symbolic form, checked by the step verifier,
judged by the evaluator, and scored.  The engine checks each distinct
(facts, rule) translation once per task; a repeat reuses its verdict.  The
precision judge is asked only for steps the engine did not execute, the only
ones whose score reads it.
Engine-verified children get their REASONING_RESULT replaced by the
canonical engine conclusions.  Terminal children whose answer matches the
gold answer are harvested as SFT paths; preference pairs come from
backtracking those paths and pairing each engine-verified node with failed
siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import kernel, template
from .corpus import TaskInstance
from .gateway import (
    BackendUnavailable,
    EvalVerdict,
    GenerationContext,
    TranslationResult,
)
from .kernel import FailureKind, StepVerdict
from .template import normalize_answer


@dataclass(frozen=True)
class ScoreBreakdown:
    w1: int
    w2: int
    w3: int

    @property
    def total(self) -> int:
        return self.w1 + self.w2 + self.w3


@dataclass(frozen=True)
class BeamConfig:
    width: int = 9
    top_k: int = 3
    max_depth: int = 12
    score_w1: int = 3
    score_w2: int = 2
    score_w3: int = 5
    seed: int = 0
    max_pairs_per_node: int = 2
    temperature: float = 1.0
    few_shot_asset: str = ""

    def __post_init__(self):
        for name in ("width", "top_k", "max_depth"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"beam.{name} must be at least 1, got {value!r}")
        if self.width % self.top_k != 0:
            raise ValueError(f"beam.top_k must divide beam.width ({self.width}), got {self.top_k}")

    @property
    def fanout(self) -> int:
        return self.width // self.top_k


@dataclass
class BeamNode:
    id: int
    parent: int | None
    steps: tuple[template.ReasoningStep, ...]  # from the root, own step last; () at the root
    score: ScoreBreakdown
    verdict: StepVerdict | None = None
    translation: TranslationResult | None = None
    answer: str | None = None
    selected: bool = False

    @property
    def step(self) -> template.ReasoningStep | None:
        return self.steps[-1] if self.steps else None

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def terminal(self) -> bool:
        return self.answer is not None


@dataclass(frozen=True)
class PreferencePair:
    prompt: str
    chosen: BeamNode  # executed by the engine
    rejected: BeamNode  # a sibling of chosen that the engine did not execute


@dataclass
class BeamResult:
    task: TaskInstance
    sft_paths: list[BeamNode]  # harvested terminal nodes, in harvest order
    pairs: list[PreferencePair]
    nodes: list[BeamNode]
    telemetry: dict = field(default_factory=dict)


_ZERO_SCORE = ScoreBreakdown(0, 0, 0)
# The engine's verdict on every step whose translation failed.
_UNTRANSLATED = StepVerdict(failure=FailureKind.PARSE_FAILURE)


def score_candidate(executed: bool, ev: EvalVerdict, cfg: BeamConfig) -> ScoreBreakdown:
    w1 = cfg.score_w1 if executed else 0
    w2 = 0 if executed else (cfg.score_w2 if ev.precision_pass else 0)
    w3 = cfg.score_w3 if ev.feasibility_pass else 0
    return ScoreBreakdown(w1, w2, w3)


def expand_node(
    node: BeamNode,
    ctx: GenerationContext,
    fanout: int,
    backend,
    cfg: BeamConfig,
    first_id: int,
    verdicts: dict[tuple, StepVerdict],
) -> list[BeamNode]:
    """Generate, verify, evaluate, and score up to ``fanout`` children,
    numbered from ``first_id`` in generation order.  ``verdicts`` holds the
    task's engine verdicts by (facts, rule); new ones are added to it."""
    children: list[BeamNode] = []
    candidates = backend.generate_candidates(ctx, fanout)
    for cand in candidates[:fanout]:
        translation = backend.translate(cand.step)
        if translation.ok:
            key = (translation.facts, translation.rule)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = kernel.verify_step(*key)
        else:
            verdict = _UNTRANSLATED
        step = cand.step
        result = (
            kernel.render_conclusions(verdict) if verdict.executed else step.reasoning_result
        )
        # A step that needs no edit is kept, and with it its rendered text.
        if step.reasoning_result != result:
            step = replace(step, reasoning_result=result)
        try:
            ev = backend.evaluate(step, ctx, verdict.executed)
        except BackendUnavailable:
            ev = EvalVerdict(precision_pass=False, feasibility_pass=False)
        children.append(
            BeamNode(
                id=first_id + len(children),
                parent=node.id,
                steps=node.steps + (step,),
                score=score_candidate(verdict.executed, ev, cfg),
                verdict=verdict,
                translation=translation,
                answer=cand.answer,
            )
        )
    return children


def select_frontier(candidates: list[BeamNode], k: int) -> list[BeamNode]:
    """The k highest-total nodes; ties broken by generation order (node id)."""
    ranked = sorted(candidates, key=lambda n: (-n.score.total, n.id))
    return ranked[:k]


def _prefix_prompt(task_prompt: str, prefix_steps) -> str:
    steps = template.serialize_response(template.StructuredResponse(prefix_steps))
    return "\n\n".join(p for p in (task_prompt, steps) if p)


def run_beam(
    task: TaskInstance,
    cfg: BeamConfig,
    backend,
) -> BeamResult:
    """Full beam search for one task; deterministic under scripted backends.
    A node's id is its position in ``nodes``."""
    root = BeamNode(id=0, parent=None, steps=(), score=_ZERO_SCORE)
    nodes: list[BeamNode] = [root]
    gold = normalize_answer(task.gold_answer)
    harvested: list[BeamNode] = []
    frontier: list[BeamNode] = [root]
    telemetry = {"expansions": 0, "discarded_terminals": 0}
    verdicts: dict[tuple, StepVerdict] = {}

    for _depth in range(cfg.max_depth):
        to_expand = select_frontier(frontier, cfg.top_k)
        if not to_expand:
            break
        new_frontier: list[BeamNode] = []
        for node in to_expand:
            node.selected = True
            ctx = GenerationContext(
                question=task.prompt,
                prior_steps=node.steps,
                few_shot_asset=cfg.few_shot_asset,
                temperature=cfg.temperature,
                seed=cfg.seed,
            )
            children = expand_node(node, ctx, cfg.fanout, backend, cfg, len(nodes), verdicts)
            telemetry["expansions"] += 1
            for child in children:
                nodes.append(child)
                if child.terminal:
                    if normalize_answer(child.answer) == gold:
                        harvested.append(child)
                    else:
                        telemetry["discarded_terminals"] += 1
                else:
                    new_frontier.append(child)
        frontier = new_frontier

    pairs = backtrack_pairs(nodes, harvested, task.prompt, cfg.max_pairs_per_node)
    telemetry["backend"] = dict(backend.telemetry)
    return BeamResult(
        task=task, sft_paths=harvested, pairs=pairs, nodes=nodes, telemetry=telemetry
    )


def backtrack_pairs(
    nodes: list[BeamNode],
    leaves: list[BeamNode],
    task_prompt: str,
    max_pairs_per_node: int = 2,
) -> list[PreferencePair]:
    """Pair each engine-verified node on the path to a harvested leaf against
    failed siblings (same parent), earliest siblings first, capped per node;
    each path is visited from the root down.  A pair's prompt is
    ``task_prompt``, then the steps before the pair's.  Node i is
    ``nodes[i]``, the root first, so children gather in id order."""
    children_by_parent: dict[int, list[BeamNode]] = {}
    for n in nodes[1:]:
        children_by_parent.setdefault(n.parent, []).append(n)
    pairs: list[PreferencePair] = []
    seen: set[tuple[int, int]] = set()
    for leaf in leaves:
        chain, node = [], leaf
        while node.parent is not None:
            chain.append(node)
            node = nodes[node.parent]
        for node in reversed(chain):
            if not node.verdict.executed:
                continue
            siblings = [s for s in children_by_parent[node.parent] if not s.verdict.executed]
            prompt = _prefix_prompt(task_prompt, nodes[node.parent].steps)
            for sib in siblings[:max_pairs_per_node]:
                key = (node.id, sib.id)
                if key in seen:
                    continue
                seen.add(key)
                pairs.append(PreferencePair(prompt=prompt, chosen=node, rejected=sib))
    return pairs
