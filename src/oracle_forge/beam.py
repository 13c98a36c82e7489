"""Scored beam search over reasoning steps with engine verification.

Per depth: the top-K frontier nodes each generate W/K candidate children;
every child is translated to symbolic form, checked by the step verifier,
judged by the evaluator, and scored.  The precision judge is asked only for
steps the engine did not execute, the only ones whose score reads it.
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
    total: int


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
        if self.width < 1 or self.top_k < 1 or self.max_depth < 1:
            raise ValueError("width, top_k, max_depth must be positive")
        if self.top_k > self.width or self.width % self.top_k != 0:
            raise ValueError("top_k must divide width")

    @property
    def fanout(self) -> int:
        return self.width // self.top_k


@dataclass
class BeamNode:
    id: int
    parent: int | None
    depth: int
    step: template.ReasoningStep | None
    score: ScoreBreakdown
    verdict: StepVerdict | None = None
    eval_verdict: EvalVerdict | None = None
    translation: TranslationResult | None = None
    answer: str | None = None
    selected: bool = False

    def __post_init__(self):
        if self.parent is None:
            assert self.depth == 0 and self.step is None

    @property
    def terminal(self) -> bool:
        return self.answer is not None


@dataclass(frozen=True)
class ReasoningPath:
    node_ids: tuple[int, ...]
    steps: tuple[template.ReasoningStep, ...]
    answer: str


@dataclass(frozen=True)
class PreferencePair:
    prompt: str
    chosen: template.ReasoningStep
    rejected: template.ReasoningStep
    parent_id: int
    chosen_id: int
    rejected_id: int


@dataclass
class BeamResult:
    task: TaskInstance
    sft_paths: list[ReasoningPath]
    pairs: list[PreferencePair]
    nodes: list[BeamNode]
    telemetry: dict = field(default_factory=dict)


_ZERO_SCORE = ScoreBreakdown(0, 0, 0, 0)


def score_candidate(executed: bool, ev: EvalVerdict, cfg: BeamConfig) -> ScoreBreakdown:
    w1 = cfg.score_w1 if executed else 0
    w2 = 0 if executed else (cfg.score_w2 if ev.precision_pass else 0)
    w3 = cfg.score_w3 if ev.feasibility_pass else 0
    return ScoreBreakdown(w1, w2, w3, w1 + w2 + w3)


def _extract_answer(raw: str) -> str | None:
    try:
        resp = template.parse_response(raw)
    except ValueError:
        return None
    return resp.final_answer or None


def expand_node(
    node: BeamNode,
    ctx: GenerationContext,
    fanout: int,
    backend,
    cfg: BeamConfig,
    first_id: int,
) -> list[BeamNode]:
    """Generate, verify, evaluate, and score up to ``fanout`` children,
    numbered from ``first_id`` in generation order."""
    children: list[BeamNode] = []
    candidates = backend.generate_candidates(ctx, fanout)
    for cand in candidates[:fanout]:
        translation = backend.translate(cand.step)
        if translation.ok:
            verdict = kernel.verify_step(translation.facts, translation.rule)
        else:
            verdict = StepVerdict(failure=FailureKind.PARSE_FAILURE, detail=translation.detail)
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
        answer = _extract_answer(cand.raw_text)
        children.append(
            BeamNode(
                id=first_id + len(children),
                parent=node.id,
                depth=node.depth + 1,
                step=step,
                score=score_candidate(verdict.executed, ev, cfg),
                verdict=verdict,
                eval_verdict=ev,
                translation=translation,
                answer=answer,
            )
        )
    return children


def select_frontier(candidates: list[BeamNode], k: int) -> list[BeamNode]:
    """The k highest-total nodes; ties broken by generation order (node id)."""
    ranked = sorted(candidates, key=lambda n: (-n.score.total, n.id))
    return ranked[:k]


def _path_to(node: BeamNode, nodes: list[BeamNode]) -> list[BeamNode]:
    chain = []
    while node.parent is not None:
        chain.append(node)
        node = nodes[node.parent]
    chain.reverse()
    return chain


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
    root = BeamNode(id=0, parent=None, depth=0, step=None, score=_ZERO_SCORE)
    nodes: list[BeamNode] = [root]
    gold = normalize_answer(task.gold_answer)
    harvested: list[BeamNode] = []
    frontier: list[BeamNode] = [root]
    telemetry = {"expansions": 0, "discarded_terminals": 0}

    for _depth in range(cfg.max_depth):
        to_expand = select_frontier(frontier, cfg.top_k)
        if not to_expand:
            break
        new_frontier: list[BeamNode] = []
        for node in to_expand:
            node.selected = True
            ctx = GenerationContext(
                question=task.prompt,
                prior_steps=tuple(n.step for n in _path_to(node, nodes)),
                few_shot_asset=cfg.few_shot_asset,
                temperature=cfg.temperature,
                seed=cfg.seed,
            )
            children = expand_node(node, ctx, cfg.fanout, backend, cfg, len(nodes))
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

    sft_paths = []
    for leaf in harvested:
        chain = _path_to(leaf, nodes)
        sft_paths.append(
            ReasoningPath(
                node_ids=tuple(n.id for n in chain),
                steps=tuple(n.step for n in chain),
                answer=leaf.answer,
            )
        )
    pairs = backtrack_pairs(nodes, sft_paths, task.prompt, cfg.max_pairs_per_node)
    telemetry["backend"] = dict(backend.telemetry)
    return BeamResult(
        task=task, sft_paths=sft_paths, pairs=pairs, nodes=nodes, telemetry=telemetry
    )


def backtrack_pairs(
    nodes: list[BeamNode],
    sft_paths: list[ReasoningPath],
    task_prompt: str,
    max_pairs_per_node: int = 2,
) -> list[PreferencePair]:
    """Pair each engine-verified node on a correct path against failed
    siblings (same parent), earliest siblings first, capped per node.  A
    pair's prompt is ``task_prompt``, then the steps before the pair's.
    Node i is ``nodes[i]``, the root first, so children gather in id order."""
    children_by_parent: dict[int, list[BeamNode]] = {}
    for n in nodes[1:]:
        children_by_parent.setdefault(n.parent, []).append(n)
    pairs: list[PreferencePair] = []
    seen: set[tuple[int, int]] = set()
    for path in sft_paths:
        for node_id in path.node_ids:
            node = nodes[node_id]
            if not node.verdict.executed:
                continue
            siblings = [s for s in children_by_parent[node.parent] if not s.verdict.executed]
            prefix = tuple(n.step for n in _path_to(nodes[node.parent], nodes))
            prompt = _prefix_prompt(task_prompt, prefix)
            for sib in siblings[:max_pairs_per_node]:
                key = (node.id, sib.id)
                if key in seen:
                    continue
                seen.add(key)
                pairs.append(
                    PreferencePair(
                        prompt=prompt,
                        chosen=node.step,
                        rejected=sib.step,
                        parent_id=node.parent,
                        chosen_id=node.id,
                        rejected_id=sib.id,
                    )
                )
    return pairs
