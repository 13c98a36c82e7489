import itertools
import os
import random
import re
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    ESCAPE_PIECES,
    field_text,
    golden_config,
    mutated_responses,
    nonempty_field,
    parse_outcome,
    reasoning_steps,
    reference_parse,
    structured_responses,
)
from oracle_forge import cli, template
from oracle_forge.template import (
    RETAINED_TOKEN,
    ParseError,
    ReasoningStep,
    StructuredResponse,
    parse_response,
    serialize_response,
    serialize_step,
)


def make_step(**overrides) -> ReasoningStep:
    base = dict(
        query="Is socrates mortal?",
        facts=("Socrates is a man.",),
        rule="All men are mortal.",
        revision="Facts and rule suffice.",
        revision_result=RETAINED_TOKEN,
        reasoning_result="mortal(socrates)",
    )
    base.update(overrides)
    return ReasoningStep(**base)


class TestParseResponse:
    def test_single_block_with_final_answer(self):
        raw = serialize_step(make_step()) + "FINAL ANSWER: true\n"
        resp = parse_response(raw)
        assert len(resp.steps) == 1
        assert resp.final_answer == "true"

    def test_missing_rule_tag(self):
        raw = serialize_step(make_step())
        raw = raw.replace("<RULE>All men are mortal.</RULE>\n", "")
        with pytest.raises(ParseError, match=r"^missing <RULE> in step 0$"):
            parse_response(raw)

    def test_unclosed_block(self):
        raw = serialize_step(make_step()).replace("</RULE>", "")
        with pytest.raises(template.ParseError):
            parse_response(raw)

    def test_empty_query_rejected(self):
        raw = serialize_step(make_step()).replace(
            "<QUERY>Is socrates mortal?</QUERY>", "<QUERY> </QUERY>"
        )
        with pytest.raises(ParseError, match=r"^empty <QUERY> field$"):
            parse_response(raw)

    def test_require_final_answer(self):
        raw = serialize_step(make_step())
        parse_response(raw)
        with pytest.raises(ParseError, match=r"^response has no FINAL ANSWER line$"):
            parse_response(raw, require_final_answer=True)

    def test_content_after_final_answer_rejected(self):
        raw = serialize_step(make_step()) + "FINAL ANSWER: true\nmore text"
        with pytest.raises(template.ParseError):
            parse_response(raw)

    def test_revised_result(self):
        step = make_step(revision_result="REVISED: use rule B")
        parsed = parse_response(serialize_step(step)).steps[0]
        assert parsed.revision_result == "REVISED: use rule B"

    def test_revision_result_is_checked_in_tag_order(self):
        # The form of REVISION_RESULT is checked with the other fields, when
        # the step is built: a defect that comes first is named first.
        raw = serialize_step(make_step()).replace(RETAINED_TOKEN, "KEPT")
        with pytest.raises(ParseError, match=r"^malformed <REVISION_RESULT>: "):
            parse_response(raw)
        blank_query = raw.replace("<QUERY>Is socrates mortal?</QUERY>", "<QUERY> </QUERY>")
        with pytest.raises(ParseError, match=r"^empty <QUERY> field$"):
            parse_response(blank_query)
        with pytest.raises(ParseError, match=r"^missing <REASONING_RESULT> in step 0$"):
            parse_response(raw[: raw.index("<REASONING_RESULT>")])


# A step whose RULE body holds an escaped closing tag, and parse outcomes of
# edits to it.  The messages were taken from the character-by-character
# scanner that the compiled opening-tag pattern replaced.
_PINNED_STEP = serialize_step(
    ReasoningStep("q?", ("f1", "f2"), "r </RULE> x", "", RETAINED_TOKEN, "c")
)
_PINNED_FACTS = "<FACTS>\n- f1\n- f2\n</FACTS>\n"
_PINNED_RULE = "<RULE>r \\</RULE> x</RULE>\n"
PINNED_PARSE_ERRORS = {
    "unclosed-block": (
        _PINNED_STEP.replace("<REVISION></REVISION>", "<REVISION>"),
        "unclosed <REVISION> block",
    ),
    "only-an-escaped-close-tag": (
        _PINNED_STEP.replace(" x</RULE>", " x"),
        "unclosed <RULE> block",
    ),
    "escaped-backslash-before-close-tag": (
        _PINNED_STEP.replace("r \\</RULE>", "r \\\\</RULE>"),
        "missing <REVISION> in step 0",
    ),
    "tag-from-later-in-the-order": (
        _PINNED_STEP.replace(_PINNED_FACTS + _PINNED_RULE, _PINNED_RULE + _PINNED_FACTS),
        "missing <FACTS> in step 0",
    ),
    "tag-from-earlier-in-the-order": (
        _PINNED_STEP.replace("<FACTS>", "<QUERY>again</QUERY>\n<FACTS>"),
        "<QUERY> appears where <FACTS> was expected in step 0",
    ),
    "text-after-final-answer": (
        _PINNED_STEP + "\nFINAL ANSWER: yes\n\t<QUERY>",
        "content after FINAL ANSWER line",
    ),
    "empty-final-answer": (
        _PINNED_STEP + "\nFINAL ANSWER:   \nx",
        "response has no FINAL ANSWER line",
    ),
    "stray-text-between-steps": (
        _PINNED_STEP + "\n  stray text that goes on and on past thirty chars",
        "unexpected content at offset 179: 'stray text that goes on and on'",
    ),
    "second-step-without-query": (
        _PINNED_STEP + "\n" + _PINNED_STEP.replace("<QUERY>q?</QUERY>\n", ""),
        "missing <QUERY> in step 1",
    ),
    "lowercase-tag": (
        _PINNED_STEP.replace("<QUERY>", "<query>"),
        "unexpected content at offset 0: '<query>q?</QUERY>\\n<FACTS>\\n- f1'",
    ),
    "only-blanks": (" \r\n\t", "missing <QUERY> in step 0"),
    # Only space, tab, CR and LF are blanks.
    "no-break-space-before-tag": (
        _PINNED_STEP.replace("\n<RULE>", "\n\u00a0<RULE>"),
        "missing <RULE> in step 0",
    ),
    "form-feed-after-final-answer": (
        _PINNED_STEP + "\nFINAL ANSWER: yes\n\f",
        "content after FINAL ANSWER line",
    ),
    # Blank fields; the error comes from building the step.
    "blank-fact-entry": (
        _PINNED_STEP.replace("- f2\n", "- \t\n"), "empty <FACTS> field",
    ),
    "no-fact-entry": (
        _PINNED_STEP.replace(_PINNED_FACTS, "<FACTS>\n</FACTS>\n"),
        "empty <FACTS> field",
    ),
}


class TestPinnedParseOutcomes:
    @pytest.mark.parametrize("name", sorted(PINNED_PARSE_ERRORS))
    def test_error_type_and_message(self, name):
        raw, message = PINNED_PARSE_ERRORS[name]
        with pytest.raises(ParseError) as exc:
            parse_response(raw)
        assert (type(exc.value), str(exc.value)) == (ParseError, message)

    def test_escaped_close_tag_stays_in_the_body(self):
        (step,) = parse_response(_PINNED_STEP).steps
        assert step.rule == "r </RULE> x"

    def test_blanks_between_blocks_and_after_the_answer(self):
        raw = _PINNED_STEP.replace(">\n<", ">\r\n\t<") + "\nFINAL ANSWER:  yes \r\n\t \n"
        resp = parse_response(raw, require_final_answer=True)
        assert resp == parse_response(_PINNED_STEP + "FINAL ANSWER: yes\n")
        assert resp.final_answer == "yes"


class TestSerializeStep:
    def test_facts_order_preserved(self):
        raw = serialize_step(make_step(facts=("A", "B")))
        block = raw[raw.index("<FACTS>") : raw.index("</FACTS>")]
        assert block.index("- A") < block.index("- B")

    def test_deterministic_bytes(self):
        a = serialize_step(make_step())
        b = serialize_step(make_step())
        assert a == b

    def test_invariant_violation_on_empty_rule(self):
        # A step checks its fields when it is built, so a blank rule never
        # reaches the serializer.
        with pytest.raises(ParseError, match=r"^empty <RULE> field$"):
            make_step(rule="  ")

    def test_revision_result_must_be_retained_or_revised(self):
        message = r"^malformed <REVISION_RESULT>: expected RETAINED or REVISED: \.\.\.$"
        with pytest.raises(ParseError, match=message):
            make_step(revision_result="KEPT")

    def test_lf_line_endings(self):
        assert "\r" not in serialize_step(make_step())


# Every REVISION_RESULT that a step accepts: RETAINED, or REVISED: with or
# without a space and then any text, none included.
accepted_revision_results = st.one_of(
    st.just(RETAINED_TOKEN),
    st.builds(
        lambda space, text: template.REVISED_PREFIX + space + text,
        st.sampled_from(["", " "]),
        field_text,
    ),
)


class TestRoundTrip:
    @settings(max_examples=300)
    @given(reasoning_steps())
    def test_step_round_trip(self, step):
        parsed = parse_response(serialize_step(step))
        assert parsed.steps[0] == step

    @settings(max_examples=300)
    @given(reasoning_steps(), accepted_revision_results)
    def test_every_accepted_step_reads_back_as_itself(self, step, revision_result):
        step = replace(step, revision_result=revision_result)
        assert parse_response(serialize_step(step)).steps == (step,)

    @settings(max_examples=300)
    @given(structured_responses())
    def test_response_round_trip(self, resp):
        assert parse_response(serialize_response(resp)) == resp

    def test_bodies_containing_tags_and_backslashes(self):
        step = make_step(
            query="literal </QUERY> inside",
            facts=("fact with <FACTS> tag", "ends with backslash\\", "two\nlines"),
            rule="\\<RULE> almost-escaped",
            reasoning_result="FINAL ANSWER: not really",
        )
        assert parse_response(serialize_step(step)).steps[0] == step


class TestEscapeTable:
    # Pinned results on LLM-style text, which the serializer never writes
    # but the parser must still unescape.
    @pytest.mark.parametrize(
        "text, facts, escaped, unescaped",
        [
            ("ends in \\", False, "ends in \\\\", "ends in \\"),
            ("a \\x b", False, "a \\\\x b", "a \\x b"),
            ("a\\nb", False, "a\\\\nb", "a\\nb"),
            ("a\\nb", True, "a\\\\nb", "a\nb"),
            ("\\\\<RULE>", False, "\\\\\\\\\\<RULE>", "\\<RULE>"),
            (
                "<REVISION_RESULT><REVISION>",
                False,
                "\\<REVISION_RESULT>\\<REVISION>",
                "<REVISION_RESULT><REVISION>",
            ),
            (
                "<QUERY>a <QUERY>b</QUERY></QUERY>",
                True,
                "\\<QUERY>a \\<QUERY>b\\</QUERY>\\</QUERY>",
                "<QUERY>a <QUERY>b</QUERY></QUERY>",
            ),
        ],
    )
    def test_pinned_escape_and_unescape(self, text, facts, escaped, unescaped):
        assert template._escape(text, facts) == escaped
        assert template._unescape(text, facts) == unescaped


def bare_escape(body: str, facts: bool) -> str:
    if facts:
        return template._ESCAPE_FACTS_RE.sub(
            lambda m: "\\n" if m[0] == "\n" else "\\" + m[0], body
        )
    return template._ESCAPE_RE.sub(r"\\\g<0>", body)


def bare_unescape(body: str, facts: bool) -> str:
    if facts:
        return template._UNESCAPE_FACTS_RE.sub(lambda m: "\n" if m[1] == "n" else m[1], body)
    return template._UNESCAPE_RE.sub(r"\1", body)


class TestTextCache:
    @settings(max_examples=200)
    @given(reasoning_steps())
    def test_text_equals_a_rebuilt_steps_text(self, step):
        text = serialize_step(step)
        assert serialize_step(step) is text
        rebuilt = ReasoningStep(**{f.name: getattr(step, f.name) for f in fields(step)})
        assert rebuilt is not step
        assert serialize_step(rebuilt) == text

    @settings(max_examples=200)
    @given(reasoning_steps(), nonempty_field, nonempty_field)
    def test_edited_copy_gets_its_own_text(self, step, result, rule):
        text = serialize_step(step)
        edited = replace(step, reasoning_result=result)
        body = template._escape(result)
        assert f"<REASONING_RESULT>{body}</REASONING_RESULT>" in serialize_step(edited)
        assert f"<RULE>{template._escape(rule)}</RULE>" in serialize_step(replace(step, rule=rule))
        assert serialize_step(step) is text

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(ESCAPE_PIECES), max_size=12).map("".join), st.booleans())
    def test_guarded_escape_equals_the_bare_table(self, body, facts):
        assert template._escape(body, facts) == bare_escape(body, facts)
        assert template._unescape(body, facts) == bare_unescape(body, facts)


def conforms(raw: str) -> bool:
    """True iff ``parse_response`` accepts the text."""
    return isinstance(parse_outcome(parse_response, raw), StructuredResponse)


class TestConformsStrictly:
    def test_serializer_output_conforms(self):
        assert conforms(serialize_step(make_step()))

    def test_empty_string(self):
        assert parse_outcome(parse_response, "") == (ParseError, "missing <QUERY> in step 0")

    def test_all_tag_permutations(self):
        # Exactly the canonical tag order conforms.
        step = make_step()
        raw = serialize_step(step)
        blocks = {}
        for tag in template.TAG_ORDER:
            start = raw.index(f"<{tag}>")
            end = raw.index(f"</{tag}>") + len(f"</{tag}>")
            blocks[tag] = raw[start:end]
        n_pass = 0
        for perm in itertools.permutations(template.TAG_ORDER):
            candidate = "\n".join(blocks[t] for t in perm) + "\n"
            ok = conforms(candidate)
            if perm == template.TAG_ORDER:
                assert ok
            assert ok == (perm == template.TAG_ORDER)
            n_pass += ok
        assert n_pass == 1

    def test_monotone_strictness(self):
        # conforming text parses to the step it was rendered from
        step = make_step()
        assert parse_outcome(parse_response, serialize_step(step)) == StructuredResponse((step,))

    @settings(max_examples=300, deadline=None)
    @given(mutated_responses())
    def test_accepted_text_holds_only_valid_steps(self, raw):
        # Strict parsing is the only structural check on model text, so it
        # must reject every step that ReasoningStep.validate would.
        try:
            resp = parse_response(raw)
        except template.ParseError:
            return
        for step in resp.steps:
            step.validate()

    def test_single_tag_deletion_breaks_conformance(self):
        raw = serialize_response(
            StructuredResponse(steps=(make_step(),), final_answer="true")
        )
        for tag in template.TAG_ORDER:
            for variant in (f"<{tag}>", f"</{tag}>"):
                mutated = raw.replace(variant, "", 1)
                assert not conforms(mutated), variant


def framed(tag: str, body: str) -> str:
    """A body as its field expects it: FACTS as one entry line,
    REVISION_RESULT as a revision, any other body as it is."""
    if tag == "FACTS":
        return f"\n- {body}\n"
    if tag == "REVISION_RESULT":
        return f"{template.REVISED_PREFIX} {body}"
    return body


@st.composite
def escape_piece_steps(draw):
    """One step whose bodies are runs of escape pieces: escaped and bare tags,
    backslash runs before closing tags.  A body is sometimes framed, so that
    FACTS and REVISION_RESULT decode and later blocks are read."""
    blocks = []
    for tag in template.TAG_ORDER:
        body = "".join(draw(st.lists(st.sampled_from(ESCAPE_PIECES), max_size=12)))
        if draw(st.booleans()):
            body = framed(tag, body)
        blocks.append(f"<{tag}>{body}</{tag}>")
    return "\n".join(blocks) + "\n"


class TestReferenceParser:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(mutated_responses(), escape_piece_steps()))
    def test_grammar_agrees_with_the_tag_by_tag_scan(self, raw):
        assert parse_outcome(parse_response, raw) == parse_outcome(reference_parse, raw)


_TAG = "<(?:" + "|".join(template.TAG_ORDER) + ")>"
# The eight message forms, as docs/template_format.md writes them, each with
# the pattern its messages match.  The message is all a caller learns of a
# defect.
PARSE_ERROR_FORMS = {
    "missing <T> in step N": rf"missing {_TAG} in step \d+",
    "<S> appears where <T> was expected in step N":
        rf"{_TAG} appears where {_TAG} was expected in step \d+",
    "unclosed <T> block": rf"unclosed {_TAG} block",
    "empty <T> field": rf"empty {_TAG} field",
    "malformed <T>: ...": rf"malformed {_TAG}: .+",
    "response has no FINAL ANSWER line": r"response has no FINAL ANSWER line",
    "content after FINAL ANSWER line": r"content after FINAL ANSWER line",
    "unexpected content at offset P: '...'": r"unexpected content at offset \d+: .+",
}


class TestMessageTaxonomy:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(mutated_responses(), escape_piece_steps()), st.booleans())
    def test_every_error_has_a_documented_form(self, raw, require_final_answer):
        try:
            parse_response(raw, require_final_answer=require_final_answer)
        except ParseError as exc:
            assert type(exc) is ParseError
            assert any(re.fullmatch(p, str(exc)) for p in PARSE_ERROR_FORMS.values()), str(exc)

    def test_the_format_document_lists_each_form(self):
        doc = (Path(__file__).parent.parent / "docs" / "template_format.md").read_text()
        for form in PARSE_ERROR_FORMS:
            assert f"`{form}`" in doc, form


# Final answers that do and do not read back as themselves: one word, with
# whitespace (as str.strip sees it) around it or a newline inside, blank, or
# any text at all.
_word = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    min_size=1, max_size=6,
)
_blank = st.sampled_from([" ", "\t", "\n", "\r", "\r\n", "\x1c", "\x85", "\u2028", "\u3000"])
_memo_answers = st.one_of(
    st.just(""),
    _word,
    st.builds("{}{}".format, _blank, _word),
    st.builds("{}{}".format, _word, _blank),
    st.builds("{}\n{}".format, _word, _word),
    _blank,
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@st.composite
def memo_responses(draw):
    """Responses of zero to three steps and any final answer, so that some
    texts parse back to their response, some to another, and some not."""
    steps = tuple(draw(st.lists(reasoning_steps(), max_size=3)))
    return StructuredResponse(steps=steps, final_answer=draw(_memo_answers))


def render_another() -> str:
    """Render a one-step text that no test reads, so that it is the last
    rendered text."""
    return serialize_response(StructuredResponse((make_step(query="another text"),)))


def count_parses(monkeypatch, counted=lambda: True):
    """Counts of the ``parse_response`` calls made where ``counted()`` is
    true, and of the parses (``_parse`` calls) among them."""
    counts = {"calls": 0, "parses": 0}
    lock = threading.Lock()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            if counted():
                with lock:
                    counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(template, "parse_response", counting("calls", parse_response))
    monkeypatch.setattr(template, "_parse", counting("parses", template._parse))
    return counts


# parse_response calls of the golden rule-base run, and completions of the
# 6-task http run through test_cli.FakeChatTransport.
RULEBASE_CALLS = 156
HTTP_COMPLETIONS = 72


class TestParseMemo:
    @settings(max_examples=200)
    @given(structured_responses())
    def test_a_repeat_equals_the_source(self, resp):
        raw = serialize_response(resp)
        assert parse_response(raw) == resp
        assert parse_response(raw) == resp
        render_another()
        assert parse_response(raw) == resp

    @settings(max_examples=300, deadline=None)
    @given(memo_responses(), st.booleans(),
           st.sampled_from(["fresh", "seeded", "overwritten by a later render"]))
    def test_a_rendered_text_reads_as_the_reference_reads_it(self, resp, strict_first, memo):
        raw = serialize_response(resp)
        if memo == "fresh":
            template._last_rendered = (None, None)
        elif memo != "seeded":
            render_another()
            assert template._last_rendered[0] is not raw
        for strict in (strict_first, not strict_first):
            got = parse_outcome(lambda r: parse_response(r, require_final_answer=strict), raw)
            want = parse_outcome(lambda r: reference_parse(r, require_final_answer=strict), raw)
            assert got == want

    @settings(max_examples=300, deadline=None)
    @given(mutated_responses())
    def test_a_failure_is_raised_on_every_call(self, raw):
        last = template._last_rendered
        first = parse_outcome(parse_response, raw)
        assert parse_outcome(parse_response, raw) == first
        assert template._last_rendered is last  # a parse never writes the memo

    @settings(max_examples=100)
    @given(structured_responses(), st.booleans())
    def test_require_final_answer_in_either_order(self, resp, strict_first):
        raw = serialize_response(replace(resp, final_answer=""))
        for strict in (strict_first, not strict_first):
            if strict:
                with pytest.raises(ParseError, match=r"^response has no FINAL ANSWER line$"):
                    parse_response(raw, require_final_answer=True)
            else:
                assert parse_response(raw).steps == resp.steps

    def _golden_run_counts(self, tmp_path, capsys, monkeypatch, kind):
        counts = count_parses(monkeypatch)
        cfg = golden_config(tmp_path, kind)
        assert cli.main(["stage2", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        return counts

    def test_golden_chain_run_parses_each_text_once(self, tmp_path, capsys, monkeypatch):
        # The backend reads each candidate right after rendering it, so the
        # 40 tasks' 660 parse_response calls make no parse at all.
        counts = self._golden_run_counts(tmp_path, capsys, monkeypatch, "chain")
        assert counts == {"calls": 660, "parses": 0}

    def test_golden_rulebase_run_parses_no_text(self, tmp_path, capsys, monkeypatch):
        counts = self._golden_run_counts(tmp_path, capsys, monkeypatch, "rulebase")
        assert counts == {"calls": RULEBASE_CALLS, "parses": 0}

    def test_http_run_parses_each_completion_once(self, tmp_path, capsys, monkeypatch):
        # A completion that comes over the wire is a text the client did not
        # render, so each is parsed, once.  The fake transport's own reads
        # and renders are not counted.
        from test_cli import fake_http, http_config

        path = http_config(tmp_path, 2)
        transport = fake_http(monkeypatch, path)
        replying = threading.local()
        completions = []
        reply = transport.reply

        def counted_reply(prompt, n):
            replying.now = True
            try:
                contents = reply(prompt, n)
            finally:
                replying.now = False
            if prompt.startswith("GEN\n\n"):
                completions.extend(contents)
            return contents

        transport.reply = counted_reply
        counts = count_parses(monkeypatch, lambda: not getattr(replying, "now", False))
        assert cli.main(["stage2", "--config", path, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert len(completions) == HTTP_COMPLETIONS
        assert counts == {"calls": HTTP_COMPLETIONS, "parses": HTTP_COMPLETIONS}

    def test_threads_share_the_memo(self):
        # Each thread renders and reads back responses of its own while the
        # others overwrite the last rendered text; a short switch interval
        # makes them interleave often.
        n_threads = (os.cpu_count() or 1) + 2
        per_thread = [
            [StructuredResponse((make_step(query=f"thread {t} text {i}"),), "yes" * (i % 2))
             for i in range(16)]
            for t in range(n_threads)
        ]
        errors = []
        deadline = time.monotonic() + 1.0

        def work(responses):
            try:
                while time.monotonic() < deadline:
                    for resp in responses:
                        raw = serialize_response(resp)
                        assert parse_response(raw) == resp
                        assert parse_response(raw + "\n") == resp
                        if resp.final_answer:
                            assert parse_response(raw, require_final_answer=True) == resp
                        else:
                            with pytest.raises(ParseError):
                                parse_response(raw, require_final_answer=True)
            except (Exception, pytest.fail.Exception) as exc:  # asserted on below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(r,)) for r in per_thread]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


def backslash_and_bracket_runs(size: int, seed: int) -> str:
    """About ``size`` characters of backslash runs, bare and escaped "<", and
    a closing tag cut short: the text on which a body pattern that matched a
    position two ways would backtrack exponentially."""
    rng = random.Random(seed)
    pieces = ["\\", "\\\\", "<", "\\<", "</QUER"]
    parts, n = [], 0
    while n < size:
        parts.append(rng.choice(pieces))
        n += len(parts[-1])
    return "".join(parts)


class TestLinearTime:
    # No timing assertion: an exponential match would hang these tests.

    def test_one_mib_unclosed_body(self):
        with pytest.raises(ParseError, match=r"^unclosed <QUERY> block$"):
            parse_response("<QUERY>" + backslash_and_bracket_runs(1 << 20, 0))

    def test_five_long_blocks_then_an_unclosed_one(self):
        blocks = []
        for k, tag in enumerate(template.TAG_ORDER[:5]):
            # A body that ended in an odd backslash run would escape its own
            # closing tag, so each ends in a dot.
            body = framed(tag, backslash_and_bracket_runs(160_000, k) + ".")
            blocks.append(f"<{tag}>{body}</{tag}>\n")
        raw = "".join(blocks) + "<REASONING_RESULT>" + backslash_and_bracket_runs(160_000, 5)
        with pytest.raises(ParseError, match=r"^unclosed <REASONING_RESULT> block$"):
            parse_response(raw)
