"""Fixed-format reasoning step template: parse, serialize, validate.

A structured response is a sequence of step blocks, each made of six tagged
fields in a fixed order, optionally followed by a final answer line:

    <QUERY>...</QUERY>
    <FACTS>
    - fact one
    - fact two
    </FACTS>
    <RULE>...</RULE>
    <REVISION>...</REVISION>
    <REVISION_RESULT>RETAINED</REVISION_RESULT>
    <REASONING_RESULT>...</REASONING_RESULT>
    FINAL ANSWER: true

A step's fields are its tags' bodies, unescaped: literal tag text and
backslashes inside a body are backslash-escaped by the serializer and
unescaped by the parser, and FACTS holds one entry per "- " line.
``ReasoningStep.validate`` checks every step when it is built, so serialize ->
parse is the identity on every step the type accepts.  See
docs/template_format.md for the full grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce

TAG_ORDER = (
    "QUERY",
    "FACTS",
    "RULE",
    "REVISION",
    "REVISION_RESULT",
    "REASONING_RESULT",
)

FINAL_ANSWER_PREFIX = "FINAL ANSWER:"

_TRUE_WORDS = {"yes", "true"}
_FALSE_WORDS = {"no", "false"}
_TRAILING_RE = re.compile(r"[\s.!?;:]*")


def normalize_answer(raw: str) -> str:
    """Trim, case-fold, strip terminal punctuation, canonicalize booleans,
    collapse inner whitespace.  Idempotent."""
    text = raw.strip().casefold()
    # Strip punctuation and whitespace together so "! !" cannot leave a
    # new terminal "!" behind for a second pass to remove.  The run is matched
    # on the reversed text: a search for it forwards restarts at each
    # character of a run that something else follows, in quadratic time.
    text = text[: len(text) - _TRAILING_RE.match(text[::-1]).end()]
    text = " ".join(text.split())
    if text in _TRUE_WORDS:
        return "true"
    if text in _FALSE_WORDS:
        return "false"
    return text


RETAINED_TOKEN = "RETAINED"
REVISED_PREFIX = "REVISED:"

# The escape table, built from TAG_ORDER.  Field bodies put a backslash before
# every backslash and every literal tag; FACTS entries, one line each, also
# write a newline as backslash-n.
_TAG_RE = "</?(?:" + "|".join(TAG_ORDER) + ")>"
_ESCAPE_RE = re.compile(r"\\|" + _TAG_RE)
_ESCAPE_FACTS_RE = re.compile(r"\\|\n|" + _TAG_RE)
_UNESCAPE_RE = re.compile(r"\\([\\<])")
_UNESCAPE_FACTS_RE = re.compile(r"\\([\\<n])")
# Blanks, then the opening tag that starts there, if any (group 1 names it).
# The tag is optional, so a match never backtracks into the blanks.
_OPEN_TAG_RE = re.compile(r"[ \t\r\n]*(?:<(" + "|".join(TAG_ORDER) + ")>)?")


class ParseError(ValueError):
    """A strict-mode template parse failure; the message names the defect
    and where it is (see docs/template_format.md)."""


@dataclass(frozen=True)
class ReasoningStep:
    query: str
    facts: tuple[str, ...]
    rule: str
    revision: str
    revision_result: str
    reasoning_result: str

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ParseError for the first defect in tag order: ``empty <TAG>
        field`` for a blank QUERY, FACTS (no entry, or a blank one) or RULE, a
        malformed REVISION_RESULT (neither RETAINED nor ``REVISED:`` and any
        text), then a blank REASONING_RESULT.  A step is checked once, when it
        is built, whether parsed or made in code."""
        if not self.query.strip():
            raise ParseError("empty <QUERY> field")
        if not self.facts or not all(map(str.strip, self.facts)):
            raise ParseError("empty <FACTS> field")
        if not self.rule.strip():
            raise ParseError("empty <RULE> field")
        rr = self.revision_result
        if rr != RETAINED_TOKEN and not rr.startswith(REVISED_PREFIX):
            raise ParseError(
                f"malformed <REVISION_RESULT>: expected {RETAINED_TOKEN} or {REVISED_PREFIX} ..."
            )
        if not self.reasoning_result.strip():
            raise ParseError("empty <REASONING_RESULT> field")

    @cached_property
    def text(self) -> str:
        """Canonical template text (deterministic, LF endings), rendered on
        first use and kept on the step.  A step is frozen, so the text never
        goes stale; ``replace`` builds a new step with its own."""
        lines = [f"<QUERY>{_escape(self.query)}</QUERY>", "<FACTS>"]
        lines += ["- " + _escape(f, escape_newlines=True) for f in self.facts]
        lines.append("</FACTS>")
        lines.append(f"<RULE>{_escape(self.rule)}</RULE>")
        lines.append(f"<REVISION>{_escape(self.revision)}</REVISION>")
        lines.append(f"<REVISION_RESULT>{_escape(self.revision_result)}</REVISION_RESULT>")
        lines.append(
            f"<REASONING_RESULT>{_escape(self.reasoning_result)}</REASONING_RESULT>"
        )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StructuredResponse:
    steps: tuple[ReasoningStep, ...]
    final_answer: str = ""


def _escape(body: str, escape_newlines: bool = False) -> str:
    # The guard is the table's trigger set: without a backslash, a "<" or (in
    # FACTS entries) a newline there is nothing to escape.
    if "\\" not in body and "<" not in body and not (escape_newlines and "\n" in body):
        return body
    if escape_newlines:
        return _ESCAPE_FACTS_RE.sub(
            lambda m: "\\n" if m[0] == "\n" else "\\" + m[0], body
        )
    return _ESCAPE_RE.sub(r"\\\g<0>", body)


def _unescape(body: str, unescape_newlines: bool = False) -> str:
    if "\\" not in body:  # every unescape starts with a backslash
        return body
    if unescape_newlines:
        return _UNESCAPE_FACTS_RE.sub(lambda m: "\n" if m[1] == "n" else m[1], body)
    return _UNESCAPE_RE.sub(r"\1", body)


def serialize_step(step: ReasoningStep) -> str:
    """Render a step as canonical template text (deterministic, LF endings).

    The step is rendered once per step object (``ReasoningStep.text``);
    later calls return the same text.
    """
    return step.text


# The text that serialize_response returned last, with the response it parses
# to; (None, None) before the first.  A thread rebinds or reads the pair whole,
# so it needs no lock.  parse_response skips the parse only for that very text
# object, which a scripted backend reads right after rendering it, and never
# writes the pair.
_last_rendered: tuple[str | None, StructuredResponse | None] = (None, None)


def serialize_response(resp: StructuredResponse) -> str:
    """Render a response as template text.  When the text parses back to
    exactly ``resp`` (its steps are a non-empty tuple, and its final answer
    is empty or is one line without surrounding whitespace), the text and
    ``resp`` become the last rendered pair, so that parsing that very text
    object next costs one comparison."""
    global _last_rendered
    parts = [serialize_step(s) for s in resp.steps]
    text = "\n".join(parts)
    answer = resp.final_answer
    if answer:
        text += f"\n{FINAL_ANSWER_PREFIX} {answer}\n"
    if (parts and type(resp.steps) is tuple
            and (not answer or (answer == answer.strip() and "\n" not in answer))):
        _last_rendered = (text, resp)
    return text


def _parse_facts_body(body: str) -> tuple[str, ...]:
    # Body layout: newline, then "- entry" lines (newlines inside entries are
    # escaped), then a trailing newline before the closing tag.
    if not body.startswith("\n"):
        raise ParseError("malformed <FACTS>: expected newline after <FACTS>")
    inner = body[1:]
    if inner.endswith("\n"):
        inner = inner[:-1]
    entries = []
    for line in inner.split("\n") if inner else []:
        if not line.startswith("- "):
            raise ParseError(f"malformed <FACTS>: fact line must start with '- ': {line!r}")
        entries.append(_unescape(line[2:], unescape_newlines=True))
    return tuple(entries)


# One block per tag in TAG_ORDER, each optional after the one before, so
# ``lastindex`` counts the blocks read and group k holds block k's body.  A
# body ends at the first </TAG> after an even run of backslashes: the body
# loop takes a backslash with the character after it, and a "<" only where
# </TAG> does not start.  Each position matches one way (Friedl's unrolled
# loop), so a failed match stays linear in the text.
_STEP_RE = re.compile(reduce(
    lambda rest, tag: rf"(?:[ \t\r\n]*<{tag}>([^\\<]*(?:(?:\\[\s\S]|<(?!/{tag}>))[^\\<]*)*)"
    rf"</{tag}>{rest})?",
    reversed(TAG_ORDER),
    "",
))
# The decoder of each block's body, in TAG_ORDER.
_DECODERS = (_unescape, _parse_facts_body, _unescape, _unescape, _unescape, _unescape)


def _parse_step(raw: str, pos: int, step_index: int) -> tuple[ReasoningStep, int]:
    """The step whose blocks start at pos (after blanks), and the offset after
    its last closing tag."""
    m = _STEP_RE.match(raw, pos)
    n = m.lastindex or 0
    fields = [decode(body) for decode, body in zip(_DECODERS, m.groups()[:n])]
    if n < len(TAG_ORDER):
        tag = TAG_ORDER[n]
        seen = _OPEN_TAG_RE.match(raw, m.end())[1]
        if seen == tag:
            raise ParseError(f"unclosed <{tag}> block")
        if seen is None or TAG_ORDER.index(seen) > n:
            raise ParseError(f"missing <{tag}> in step {step_index}")
        raise ParseError(
            f"<{seen}> appears where <{tag}> was expected in step {step_index}"
        )
    return ReasoningStep(*fields), m.end()


_FINAL_RE = re.compile(
    re.escape(FINAL_ANSWER_PREFIX) + r"[ \t]*(?P<answer>[^\n]*)"
)


def parse_response(raw: str, require_final_answer: bool = False) -> StructuredResponse:
    """Strict parse of a template response.

    Raises ParseError on any structural deviation: missing or
    reordered tags, unclosed blocks, empty required fields, stray text between
    blocks.  ``require_final_answer`` additionally demands a terminal
    FINAL ANSWER line.  The very text object that ``serialize_response``
    returned last is not parsed: its response is returned, and shared, being
    frozen.  An equal text made another way, such as a reply off the wire,
    is parsed.
    """
    text, resp = _last_rendered
    if raw is not text:
        resp = _parse(raw)
    if require_final_answer and not resp.final_answer:
        raise ParseError("response has no FINAL ANSWER line")
    return resp


def _parse(raw: str) -> StructuredResponse:
    steps: list[ReasoningStep] = []
    final_answer = ""
    pos = 0
    while True:
        m = _OPEN_TAG_RE.match(raw, pos)
        if m[1] == "QUERY":
            step, pos = _parse_step(raw, pos, len(steps))
            steps.append(step)
            continue
        if m[1] is not None:
            # A non-leading tag at step start means the step lost its QUERY.
            raise ParseError(f"missing <QUERY> in step {len(steps)}")
        pos = m.end()
        if pos == len(raw):
            break
        if not raw.startswith(FINAL_ANSWER_PREFIX, pos):
            raise ParseError(
                f"unexpected content at offset {pos}: {raw[pos:pos + 30]!r}"
            )
        m = _FINAL_RE.match(raw, pos)
        final_answer = m.group("answer").strip()
        if not final_answer:
            raise ParseError("response has no FINAL ANSWER line")
        if raw[m.end():].lstrip(" \t\r\n"):
            raise ParseError("content after FINAL ANSWER line")
        break
    if not steps:
        raise ParseError("missing <QUERY> in step 0")
    return StructuredResponse(steps=tuple(steps), final_answer=final_answer)
