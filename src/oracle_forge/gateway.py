"""Pluggable step generation, NL->symbolic translation, and evaluation.

Three backends:

- ``ScriptedNoisyBackend``: replays a task's ground-truth proof with seeded
  per-candidate corruption (format breaks, unmatchable facts, non-firing
  rules), used to measure engine-success rates without an LLM.
- ``ScriptedOracleBackend``: the noisy backend with no corruption and one
  candidate per expansion, used for pipeline tests and the oracle runs.
- ``HttpBackend``: chat-completion-style JSON over HTTP with exponential
  backoff (docs/http_backend.md); its settings are an ``HttpSpec``.  One
  backend serves one task and remembers its translation and judge replies,
  so each distinct such prompt is sent once per task.

A failed translation names its failure class in the audit, ``GENERATION_ERROR``
or ``TRANSLATION_ERROR``, as its ``error_kind``.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from threading import TIMEOUT_MAX

from . import kernel, template
from .corpus import CorruptionModel, TaskInstance, gold_step, stable_digest
from .kernel import Fact, Rule

DEFAULT_GENERATION_TEMPERATURE = 1.0
DEFAULT_EVALUATION_TEMPERATURE = 0.01
BACKOFF_BASE_S = 0.5
BACKOFF_MAX_S = 30.0  # the longest wait before a retry, however many there are
MAX_REPLY_BYTES = 256 * 1024  # the longest reply body the default transport reads

# Failure classes (docs/audit_schema.md).  A symbolic form that parses is always
# returned: kernel.verify_step judges its arity and safety, which the audit
# gives as ArityMismatch / UnsafeRule, of class TRANSLATION_ERROR.
GENERATION_ERROR = "GenerationError"    # NL has no symbolic counterpart
TRANSLATION_ERROR = "TranslationError"  # kbl syntax error, or not exactly one rule


class BackendUnavailable(RuntimeError):
    pass


@dataclass(frozen=True)
class GenerationContext:
    question: str
    prior_steps: tuple[template.ReasoningStep, ...] = ()
    few_shot_asset: str = ""
    temperature: float = DEFAULT_GENERATION_TEMPERATURE
    seed: int = 0


@dataclass(frozen=True)
class CandidateStep:
    step: template.ReasoningStep
    answer: str | None  # the text's FINAL ANSWER; None if it has none
    raw_text: str


def _read_candidate(raw: str, telemetry: Counter) -> CandidateStep | None:
    """The candidate that ``raw`` says: its one step and its final answer.  A
    text that does not parse, or holds some number of steps other than one,
    is None, counted as a discarded candidate: the FINAL ANSWER a text may
    carry belongs to its step, so a text with more steps is discarded whole."""
    try:
        resp = template.parse_response(raw)
        (step,) = resp.steps
    except ValueError:
        telemetry["discarded_candidates"] += 1
        return None
    return CandidateStep(step, resp.final_answer or None, raw)


@dataclass(frozen=True)
class TranslationResult:
    facts: tuple[Fact, ...] = ()
    rule: Rule | None = None
    error_kind: str | None = None  # GENERATION_ERROR or TRANSLATION_ERROR on failure

    @property
    def ok(self) -> bool:
        return self.error_kind is None


@dataclass(frozen=True)
class EvalVerdict:
    # None: not asked, because the engine executed the step and the score
    # does not read precision then (beam.score_candidate).
    precision_pass: bool | None
    feasibility_pass: bool


class ScriptedNoisyBackend:
    """Replays the ground-truth proof of one task, each candidate with its own
    seeded corruption; pure in (seed, ctx)."""

    def __init__(self, task: TaskInstance, corruption: CorruptionModel):
        self.task = task
        self.corruption = corruption
        self.telemetry: Counter = Counter()
        # Built once per task: candidates at one position share a step object,
        # so its template text is rendered once.
        self.gold_steps = tuple(
            gold_step(task, i) for i in range(len(task.ground_truth_proof))
        )
        # Each rule sentence with its positive body predicates, in sentence order.
        self._rule_bodies = tuple(
            (nl, frozenset(a.predicate for a in sym.body_pos))
            for nl, sym in sorted(task.nl_pairing.items()) if isinstance(sym, Rule)
        )

    def _position(self, ctx: GenerationContext) -> int:
        return len(ctx.prior_steps)

    def _rng(self, ctx: GenerationContext, cand_index: int) -> random.Random:
        prior = stable_digest(*(template.serialize_step(s) for s in ctx.prior_steps))
        return random.Random(
            stable_digest(
                self.corruption.seed,
                ctx.seed,
                self.task.id,
                self._position(ctx),
                cand_index,
                prior,
            )
        )

    def _non_firing_rule_nls(self, step: template.ReasoningStep) -> list[str]:
        fact_preds = set()
        for nl in step.facts:
            sym = self.task.nl_pairing.get(nl)
            if isinstance(sym, Fact):
                fact_preds.add(sym.atom.predicate)
        return [
            nl for nl, body_preds in self._rule_bodies
            if nl != step.rule and not body_preds <= fact_preds
        ]

    def generate_candidates(self, ctx: GenerationContext, n: int) -> list[CandidateStep]:
        i = self._position(ctx)
        if i >= len(self.gold_steps):
            return []
        gold = self.gold_steps[i]
        terminal = i == len(self.gold_steps) - 1
        answer = self.task.gold_answer if terminal else ""
        out: list[CandidateStep] = []
        for j in range(n):
            rng = self._rng(ctx, j)
            step = gold
            if rng.random() < self.corruption.p_bad_fact:
                bad = f"The statement {rng.randrange(10**6)} holds."
                step = replace(step, facts=(bad,) + step.facts[1:])
            if rng.random() < self.corruption.p_bad_rule:
                choices = self._non_firing_rule_nls(step)
                if choices:
                    step = replace(step, rule=rng.choice(choices))
            raw = template.serialize_response(template.StructuredResponse((step,), answer))
            if rng.random() < self.corruption.p_format_break:
                raw = raw.replace("<REVISION>", "", 1)
                self.telemetry["format_breaks"] += 1
            cand = _read_candidate(raw, self.telemetry)
            if cand is not None:
                out.append(cand)
        return out

    def generate_response(self, ctx: GenerationContext) -> str:
        raw = template.serialize_response(
            template.StructuredResponse(self.gold_steps, self.task.gold_answer)
        )
        rng = self._rng(ctx, -1)
        if rng.random() < self.corruption.p_format_break:
            raw = raw.replace("<REVISION>", "", 1)
        return raw

    def translate(self, step: template.ReasoningStep) -> TranslationResult:
        pairing = self.task.nl_pairing
        facts = tuple(map(pairing.get, step.facts))
        rule = pairing.get(step.rule)
        if not isinstance(rule, Rule) or not all(isinstance(f, Fact) for f in facts):
            return TranslationResult(error_kind=GENERATION_ERROR)
        return TranslationResult(facts=facts, rule=rule)

    def evaluate(
        self, step: template.ReasoningStep, ctx: GenerationContext, executed: bool = False
    ) -> EvalVerdict:
        i = self._position(ctx)
        gold = self.gold_steps[i] if i < len(self.gold_steps) else None
        ok = gold is not None and (
            (step.facts, step.rule, step.query) == (gold.facts, gold.rule, gold.query)
        )
        return EvalVerdict(precision_pass=None if executed else ok, feasibility_pass=ok)


class ScriptedOracleBackend(ScriptedNoisyBackend):
    """The noisy backend without noise: one gold candidate per expansion."""

    def __init__(self, task: TaskInstance):
        super().__init__(task, CorruptionModel())

    def generate_candidates(self, ctx: GenerationContext, n: int) -> list[CandidateStep]:
        return super().generate_candidates(ctx, min(n, 1))


@dataclass(frozen=True)
class HttpSpec:
    endpoint: str = ""
    model: str = ""
    api_key: str | None = None
    max_retries: int = 5
    timeout: float = 60.0

    def __post_init__(self):
        # 0 retries would make no request at all, no request can complete
        # within a timeout of 0, and a socket refuses one above TIMEOUT_MAX.
        if self.max_retries < 1:
            raise ValueError(f"http.max_retries must be at least 1, got {self.max_retries!r}")
        if self.timeout <= 0:
            raise ValueError(f"http.timeout must be greater than 0, got {self.timeout!r}")
        if self.timeout > TIMEOUT_MAX:
            raise ValueError(f"http.timeout must be at most {TIMEOUT_MAX}, got {self.timeout!r}")


class HttpBackend:
    """Chat-completion JSON over HTTP with retries and exponential backoff.
    A task's beam search sends one request at a time; the stage's worker
    threads are the only bound on requests in flight.

    ``transport`` is a callable ``(url, payload_dict, headers, timeout) ->
    (status_code, body_text)``.  The default posts with the stdlib's
    ``urllib.request``: one connection per request (``Connection: close``),
    proxies from ``HTTP(S)_PROXY``/``NO_PROXY``, HTTPS certificates verified,
    a non-2xx reply returned as its status, not raised, and a body longer
    than ``MAX_REPLY_BYTES`` raised.  Tests inject a fake transport for fault
    injection.

    The reply to each translation and judge prompt is remembered for the
    life of the backend, which is one task, and reused for the same prompt
    (counted as ``reused_answers``): the task sends it once and sees one
    verdict for it.  Generation samples at its temperature and is never
    remembered, nor is a prompt whose request raised ``BackendUnavailable``.
    """

    def __init__(self, spec: HttpSpec, prompts: dict[str, str] | None = None,
                 transport=None, sleep=time.sleep):
        self.spec = spec
        self.prompts = prompts or {}
        self._sleep = sleep
        self._transport = transport or self._default_transport
        self.telemetry: Counter = Counter()
        self._answers: dict[str, str] = {}  # prompt -> reply, for one task

    @staticmethod
    def _default_transport(url, payload, headers, timeout):
        # Imported here so that scripted runs never pay for it.
        import urllib.error
        import urllib.request

        data = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            resp = urllib.request.urlopen(req, timeout=timeout)
        except urllib.error.HTTPError as exc:
            resp = exc  # a non-2xx reply: returned with its status, not raised
        with resp:
            body = resp.read(MAX_REPLY_BYTES + 1)  # a byte more shows a longer reply
            if len(body) > MAX_REPLY_BYTES:
                raise ValueError(f"reply longer than {MAX_REPLY_BYTES} bytes")
            return resp.status, body.decode("utf-8", errors="replace")

    def _complete(self, prompt: str, temperature: float, n: int = 1) -> list[str]:
        spec = self.spec
        payload = {
            "model": spec.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "n": n,
        }
        headers = {"Content-Type": "application/json"}
        if spec.api_key:
            headers["Authorization"] = f"Bearer {spec.api_key}"
        last_error = "no attempt made"
        wait = BACKOFF_BASE_S
        for attempt in range(spec.max_retries):
            if attempt:
                self._sleep(wait)
                wait = min(2 * wait, BACKOFF_MAX_S)
            try:
                status, body = self._transport(spec.endpoint, payload, headers, spec.timeout)
            except Exception as exc:
                last_error = f"transport error: {exc}"
                self.telemetry["transport_errors"] += 1
                continue
            if status != 200:
                last_error = f"HTTP {status}"
                self.telemetry["http_errors"] += 1
                continue
            try:
                texts = [c["message"]["content"] for c in json.loads(body)["choices"]]
                # An empty choice list or a null content is no completion.
                if not texts or not all(isinstance(t, str) for t in texts):
                    raise ValueError("no text in choices")
                return texts
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                last_error = f"bad response body: {exc}"
                self.telemetry["malformed_responses"] += 1
                continue
        raise BackendUnavailable(f"{spec.endpoint}: retries exhausted ({last_error})")

    def _answer(self, prompt: str) -> str:
        """The one evaluation-temperature reply to ``prompt`` in this task."""
        if prompt in self._answers:
            self.telemetry["reused_answers"] += 1
            return self._answers[prompt]
        text = self._complete(prompt, DEFAULT_EVALUATION_TEMPERATURE)[0]
        self._answers[prompt] = text
        return text

    def _prompt(self, asset: str, *parts: str) -> str:
        """The request prompt: the named prompt asset, then the parts, empty
        ones dropped, one blank line apart."""
        return "\n\n".join(p for p in (self.prompts.get(asset, ""), *parts) if p)

    def generate_candidates(self, ctx: GenerationContext, n: int) -> list[CandidateStep]:
        prior = template.serialize_response(template.StructuredResponse(ctx.prior_steps))
        prompt = self._prompt("generation", ctx.few_shot_asset, ctx.question, prior)
        out: list[CandidateStep] = []
        for raw in self._complete(prompt, ctx.temperature, n=n):
            cand = _read_candidate(raw, self.telemetry)
            if cand is not None:
                out.append(cand)
        return out

    def generate_response(self, ctx: GenerationContext) -> str:
        prompt = self._prompt("generation", ctx.few_shot_asset, ctx.question)
        return self._complete(prompt, ctx.temperature, n=1)[0]

    def translate(self, step: template.ReasoningStep) -> TranslationResult:
        text = self._answer(self._prompt("translation", template.serialize_step(step)))
        if text.strip().partition(":")[0] == "UNTRANSLATABLE":  # with or without a reason
            return TranslationResult(error_kind=GENERATION_ERROR)
        try:
            facts, (rule,) = kernel.parse_clauses(text)
        except ValueError:  # a KblSyntaxError, or not exactly one rule
            return TranslationResult(error_kind=TRANSLATION_ERROR)
        return TranslationResult(facts=tuple(sorted(facts)), rule=rule)

    def _yes_no(self, prompt_name: str, step: template.ReasoningStep, ctx) -> bool:
        prompt = self._prompt(prompt_name, ctx.question, template.serialize_step(step))
        answer = self._answer(prompt).strip().upper()
        if answer not in ("YES", "NO"):
            self.telemetry["unparseable_judgments"] += 1
            return False
        return answer == "YES"

    def evaluate(
        self, step: template.ReasoningStep, ctx: GenerationContext, executed: bool = False
    ) -> EvalVerdict:
        return EvalVerdict(
            precision_pass=None if executed else self._yes_no("precision", step, ctx),
            feasibility_pass=self._yes_no("feasibility", step, ctx),
        )

