import hashlib
import json
import os
import random
import re
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from conftest import GOLDEN_CORPORA, golden_config
from oracle_forge import cli, datafactory, gateway, kernel, template
from oracle_forge.config import ConfigError, load_config
from oracle_forge.datafactory import compute_stats, read_audit
from oracle_forge.gateway import GENERATION_ERROR, TRANSLATION_ERROR


PROMPTS_DIR = Path(__file__).parent.parent / "prompts"

_NO_URL = "http.endpoint must be an http:// or https:// URL with a host"
_NO_REQUEST_LINE = (
    "http.endpoint must hold no space or control character, and no non-ASCII "
    "character in its path or query"
)
# Endpoints that load but that no request could be sent to, each with the
# config error it gives.
UNSENDABLE_ENDPOINTS = {
    "api.example.com/v1/chat/completions": _NO_URL,
    "localhost:8080/v1": _NO_URL,
    "ftp://host/v1": _NO_URL,
    "http:///v1": _NO_URL,
    "http://:80/v1": _NO_URL,
    "http://[::1/v1": _NO_URL,
    "http://127.0.0.1:9/v1/chat completions": _NO_REQUEST_LINE,
    "http://127.0.0.1:9/v1/chat\tcompletions": _NO_REQUEST_LINE,
    "http://127.0.0.1:9/v1\n": _NO_REQUEST_LINE,
    "http://127.0.0.1:9/v1?model=a b": _NO_REQUEST_LINE,
    "http://127.0.0.1:9/v1/ch\u00e4t": _NO_REQUEST_LINE,
    "http://127.0.0.1:9/v1?q=\u2013": _NO_REQUEST_LINE,
}
# API keys that no Authorization header can carry, each with what the
# config error says the key holds.
UNSENDABLE_KEYS = {
    "sk-1\n": "a control character",
    "sk-1\r\nX-Extra: 1": "a control character",
    "sk\t1": "a control character",
    "sk-1\x7f": "a control character",
    "sk\u2013abc": "a character outside Latin-1",
    "sk-\U0001f511": "a character outside Latin-1",
}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.backend == "scripted-oracle"
        assert cfg.beam.width == 9 and cfg.beam.top_k == 3

    def test_load_yaml(self, tmp_path):
        path = write(
            tmp_path / "cfg.yaml",
            "backend: scripted-noisy\nseed: 42\n"
            "beam: {width: 6, top_k: 2}\n"
            "corruption: {p_bad_rule: 0.25}\n"
            "corpus: {kind: chain, count: 5, hops: 2}\n",
        )
        cfg = load_config(path)
        assert cfg.backend == "scripted-noisy"
        assert cfg.seed == 42
        assert cfg.beam.width == 6
        assert cfg.beam.seed == 42  # inherits top-level seed
        assert cfg.corruption.p_bad_rule == 0.25
        assert cfg.corruption.seed == 42
        assert cfg.corpus.count == 5

    def test_env_interpolation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OF_TEST_KEY", "sekrit")
        path = write(
            tmp_path / "cfg.yaml",
            "http: {api_key: '${OF_TEST_KEY}', endpoint: 'http://x', model: m}\n",
        )
        cfg = load_config(path)
        assert cfg.http.api_key == "sekrit"
        # redacted when serialized back out
        assert cfg.hashable_dict()["http"]["api_key"] == "<redacted>"

    def test_http_backend_sends_what_its_section_says(self, tmp_path):
        path = write(
            tmp_path / "cfg.yaml",
            "http: {endpoint: 'http://chat.invalid/v1', model: m, api_key: sk-test,"
            " max_retries: 2, timeout: 5}\n",
        )
        requests, sleeps = [], []

        def transport(url, payload, headers, timeout):
            requests.append((url, payload["model"], headers["Authorization"], timeout))
            return 503, "busy"

        spec = load_config(path).http
        backend = gateway.HttpBackend(spec, transport=transport, sleep=sleeps.append)
        with pytest.raises(gateway.BackendUnavailable, match="HTTP 503"):
            backend.generate_response(gateway.GenerationContext(question="Q"))
        assert requests == [("http://chat.invalid/v1", "m", "Bearer sk-test", 5)] * 2
        assert sleeps == [gateway.BACKOFF_BASE_S]

    def test_env_interpolation_missing_var(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OF_MISSING_KEY", raising=False)
        path = write(
            tmp_path / "cfg.yaml", "http: {api_key: '${OF_MISSING_KEY}'}\n"
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_partial_env_pattern_is_literal(self, tmp_path):
        path = write(
            tmp_path / "cfg.yaml", "out_dir: 'prefix-${NOT_INTERPOLATED}'\n"
        )
        cfg = load_config(path)
        assert cfg.out_dir == "prefix-${NOT_INTERPOLATED}"

    def test_k_must_divide_w(self, tmp_path):
        path = write(tmp_path / "cfg.yaml", "beam: {width: 9, top_k: 4}\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            "beam: {widht: 3}\n",
            "max_dfo: 5\n",
            # filled from prompts_dir, never from the file
            "beam: {few_shot_asset: x}\n",
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, text):
        path = write(tmp_path / "cfg.yaml", text)
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, label",
        [
            ('workers: "2"\ncorpus: {count: 4}\n', "workers"),
            ('max_sft: "5"\ncorpus: {count: 4}\n', "max_sft"),
            ('corpus: {count: "4"}\n', "corpus.count"),
            ('beam: {width: "9"}\ncorpus: {count: 4}\n', "beam.width"),
            ("max_sft: -1\ncorpus: {count: 4}\n", "max_sft"),
            ("beam: {max_depth: 0}\ncorpus: {count: 4}\n", "beam.max_depth"),
            ("corruption: {p_bad_rule: 1.5}\ncorpus: {count: 4}\n", "corruption.p_bad_rule"),
        ],
    )
    def test_value_of_wrong_type_or_sign(self, tmp_path, capsys, text, label):
        path = write(tmp_path / "cfg.yaml", "backend: scripted-noisy\n" + text)
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "stage2", "--config", path, "--out", str(out))
        assert code == 2
        assert err.startswith(f"config error: {label} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["beam", "corruption"])
    def test_section_seed_is_a_config_error(self, tmp_path, capsys, section):
        # One run seed: the sections take theirs from the top-level seed.
        path = write(tmp_path / "cfg.yaml", f"{section}: {{seed: 1}}\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "stage2", "--config", path, "--out", str(out))
        assert code == 2
        assert err == f"config error: unknown {section} key: seed\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, most",
        [("n_facts", 0, 30), ("n_rules", 0, 12), ("n_facts", 31, 30), ("n_rules", 13, 12)],
    )
    def test_rulebase_size_out_of_bounds(self, tmp_path, capsys, field, value, most):
        path = write(tmp_path / "cfg.yaml", f"corpus: {{kind: rulebase, {field}: {value}}}\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "stage2", "--config", path, "--out", str(out))
        assert code == 2
        assert err == f"config error: corpus.{field} must be in 1..{most}, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["hops", "distractors"])
    def test_chain_size_below_one(self, tmp_path, capsys, field):
        # Such a corpus used to run as if the size were 1.
        path = write(tmp_path / "cfg.yaml", f"corpus: {{kind: chain, count: 3, {field}: 0}}\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "stage2", "--config", path, "--out", str(out))
        assert code == 2
        assert err == f"config error: corpus.{field} must be at least 1, got 0\n"
        assert not out.exists()

    def test_value_types_follow_annotations(self, tmp_path):
        cfg = load_config(write(
            tmp_path / "ok.yaml",
            "seed: -3\nhttp: {timeout: 5, api_key: null}\n"
            "corpus: {kind: rulebase, negation: true}\n"
            f"max_sft: {'9' * 400}\n",  # too large for a float, yet finite
        ))
        assert (cfg.seed, cfg.beam.seed, cfg.http.timeout) == (-3, -3, 5)
        assert cfg.max_sft == int("9" * 400)
        for text, message in [
            ("workers: true\n", "workers must be an integer, got True"),
            ("corpus: {kind: rulebase, negation: 1}\n",
             "corpus.negation must be a boolean, got 1"),
            ("prompts_dir: 3\n", "prompts_dir must be a string or null, got 3"),
            ("corruption: {p_bad_rule: '0.5'}\n", "corruption.p_bad_rule must be a number"),
            ("beam: {temperature: -0.5}\n", "beam.temperature must be non-negative"),
            ("http: {max_in_flight: 0}\n", "unknown http key: max_in_flight"),
            ("http: {max_retries: 0}\n", "http.max_retries must be at least 1, got 0"),
            ("http: {timeout: 0}\n", "http.timeout must be greater than 0, got 0"),
            # Finite, but more than a socket takes.
            ("http: {timeout: 10000000000}\n",
             f"http.timeout must be at most {threading.TIMEOUT_MAX}, got 10000000000"),
        ] + [
            # nan < 0 is false: the sign check alone does not refuse nan.
            (f"{section}: {{{key}: {text}}}\n",
             f"{section}.{key} must be a finite number, got {got}")
            for section, key in [("beam", "temperature"), ("http", "timeout"),
                                 ("corruption", "p_bad_fact")]
            for text, got in [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")]
        ]:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                load_config(write(tmp_path / "bad.yaml", text))

    @pytest.mark.parametrize(
        "corpus, kind, keys",
        [
            ("{kind: chain, n_rules: 7}", "chain", "n_rules"),
            ("{n_facts: 3, negation: false}", "chain", "n_facts, negation"),
            ("{kind: chain, count: 2, path: PATH}", "chain", "path"),
            ("{kind: rulebase, hops: 9}", "rulebase", "hops"),
            ("{kind: rulebase, distractors: 1, path: PATH}", "rulebase", "distractors, path"),
            ("{kind: file, path: PATH, count: 1}", "file", "count"),
            ("{kind: file, path: PATH, hops: 2, n_rules: 3}", "file", "hops, n_rules"),
        ],
    )
    def test_corpus_key_that_the_kind_does_not_read(self, tmp_path, capsys, corpus, kind, keys):
        # Such a key used to be ignored: a file corpus ran every task whatever
        # count said.
        from oracle_forge.corpus import gen_chain_task
        from oracle_forge.datafactory import save_tasks

        tasks = tmp_path / "tasks.jsonl"
        save_tasks([gen_chain_task(2, seed=0)], tasks)
        path = write(tmp_path / "cfg.yaml", f"corpus: {corpus.replace('PATH', str(tasks))}\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "stage2", "--config", path, "--out", str(out))
        assert code == 2
        assert err == f"config error: unknown {kind} corpus key: {keys}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section", ["beam", "corpus", "corruption", "http"])
    def test_section_without_value_or_not_a_mapping(self, tmp_path, section):
        cfg = load_config(write(tmp_path / "empty.yaml", f"{section}:\n"))
        assert cfg.hashable_dict() == load_config(
            write(tmp_path / "none.yaml", "{}\n")
        ).hashable_dict()
        path = write(tmp_path / "scalar.yaml", f"{section}: 3\n")
        with pytest.raises(ConfigError, match=f"^{section} must be a mapping$"):
            load_config(path)

    @staticmethod
    def http_config_without_feasibility(tmp_path):
        """An http config whose prompts_dir holds every asset but feasibility.txt."""
        prompts = tmp_path / "prompts"
        prompts.mkdir()
        for name in ("generation.txt", "translation.txt", "precision.txt"):
            write(prompts / name, "x")
        path = write(
            tmp_path / "cfg.yaml",
            f"backend: http\nprompts_dir: {prompts}\n"
            "http: {endpoint: 'http://x', model: m}\n",
        )
        return path, prompts / "feasibility.txt"

    def test_http_backend_requires_prompt_assets(self, tmp_path):
        path, _ = self.http_config_without_feasibility(tmp_path)
        with pytest.raises(ConfigError, match="^missing prompt asset: feasibility.txt$"):
            load_config(path).load_prompts()

    def test_http_prompt_asset_that_is_a_directory(self, tmp_path):
        path, asset = self.http_config_without_feasibility(tmp_path)
        asset.mkdir()
        message = f"^cannot read prompt asset {re.escape(str(asset))}: "
        with pytest.raises(ConfigError, match=message):
            load_config(path).load_prompts()

    def test_http_backend_requires_endpoint(self, tmp_path):
        path = write(tmp_path / "cfg.yaml", "backend: http\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("endpoint", list(UNSENDABLE_ENDPOINTS))
    def test_http_endpoint_that_takes_no_request_is_a_config_error(
        self, tmp_path, capsys, endpoint
    ):
        cfg = write(
            tmp_path / "cfg.yaml",
            f"backend: http\nprompts_dir: {PROMPTS_DIR}\n"
            f"http: {{endpoint: {json.dumps(endpoint)}, model: m}}\n",
        )
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert stderr == f"config error: {UNSENDABLE_ENDPOINTS[endpoint]}, got {endpoint!r}\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("key", list(UNSENDABLE_KEYS))
    def test_http_api_key_with_a_control_character_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, key
    ):
        # The message leaves the key out.
        monkeypatch.setenv("OF_TEST_KEY", key)
        cfg = write(
            tmp_path / "cfg.yaml",
            f"backend: http\nprompts_dir: {PROMPTS_DIR}\n"
            "http: {endpoint: 'http://127.0.0.1:9/v1', model: m, api_key: '${OF_TEST_KEY}'}\n",
        )
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert stderr == f"config error: http.api_key holds {UNSENDABLE_KEYS[key]}\n"
        assert stdout == "" and not out.exists()

    def test_corpus_file_must_exist(self, tmp_path):
        path = write(
            tmp_path / "cfg.yaml", "corpus: {kind: file, path: /nope.jsonl}\n"
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_backend(self, tmp_path):
        path = write(tmp_path / "cfg.yaml", "backend: telepathy\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestStage1Cli:
    def test_oracle_keeps_everything(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cfg.yaml",
            "corpus: {kind: chain, count: 50, hops: 3}\nworkers: 1\n",
        )
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "stage1", "--config", cfg, "--out", str(out), "--seed", "1"
        )
        assert code == 0
        assert "kept 50, rejected 0" in stdout
        lines = (out / "sft.jsonl").read_text().splitlines()
        assert len(lines) == 50
        assert (out / "rejections.jsonl").read_text() == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"kept": 50, "rejected": 0}

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.yaml", "beam: {width: 9, top_k: 4}\n")
        code, _, stderr = run_cli(capsys, "stage1", "--config", cfg)
        assert code == cli.EXIT_CONFIG
        assert "config error" in stderr

    @pytest.mark.parametrize("stage", ["stage1", "stage2"])
    @pytest.mark.parametrize(
        "asset", ["few_shot.txt", "generation.txt", "few_shot.txt/"],
        ids=["few-shot-not-utf8", "asset-not-utf8", "few-shot-is-a-directory"],
    )
    def test_unreadable_prompt_asset_is_a_config_error(self, tmp_path, capsys, stage, asset):
        prompts = tmp_path / "prompts"
        prompts.mkdir()
        path = prompts / asset.rstrip("/")
        if asset.endswith("/"):
            path.mkdir()
        else:
            path.write_bytes(b"Example:\n\xff\n")
        cfg = write(tmp_path / "cfg.yaml", f"prompts_dir: {prompts}\n")
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, stage, "--config", cfg, "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert stderr.startswith(f"config error: cannot read prompt asset {path}: ")
        assert stderr.count("\n") == 1 and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["stage1", "stage2"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, stage):
        # Invalid YAML of any kind is one line that names the file and the
        # place in it: a line and column, or the offset of an undecodable byte.
        cfg = tmp_path / "cfg.yaml"
        invalid = f"invalid YAML: {cfg}"
        for content, message in [
            (b"seed: 3\nout_dir: \xff\n",
             f"{invalid}, byte 17: 'utf-8' codec can't decode 0xff: invalid start byte"),
            (b"\xff\n", f"{invalid}, byte 0: 'utf-8' codec can't decode 0xff: invalid start byte"),
            (b"seed: [3\n", f"{invalid}, line 2, col 1: while parsing a flow sequence, "
                            "expected ',' or ']', but got '<stream end>'"),
            (b"beam:\n  width: 3\n    top_k: 1\n",
             f"{invalid}, line 3, col 10: mapping values are not allowed here"),
            # A YAML timestamp that names no real date.
            (b"seed: 2001-13-45\n",
             f"{invalid}, line 1, col 7: invalid timestamp '2001-13-45': month must be in 1..12"),
            (b"seed: 3\nout_dir: 2001-12-45\n",
             f"{invalid}, line 2, col 10: invalid timestamp '2001-12-45': "
             "day is out of range for month"),
            # Any other value that its tag cannot hold.
            (b"seed: !!int abc\n",
             f"{invalid}, line 1, col 7: invalid int 'abc': "
             "invalid literal for int() with base 10: 'abc'"),
            (b"beam: {temperature: !!float x}\n",
             f"{invalid}, line 1, col 21: invalid float 'x': could not convert string to float: 'x'"),
            (b"seed: !!bool maybe\n", f"{invalid}, line 1, col 7: invalid bool 'maybe': not a known value"),
            (b"seed: !!timestamp abc\n",
             f"{invalid}, line 1, col 7: invalid timestamp 'abc': not a known value"),
            # A value that holds itself, and nesting deeper than the stack.
            (b"a: &a {b: *a}\n", "unknown top-level key: a"),
            (b"seed: &a [*a]\n", "seed must be an integer, got [[...]]"),
            (b"seed: " + b"[" * 5000 + b"]" * 5000 + b"\n", f"{invalid}: nested too deeply"),
        ]:
            cfg.write_bytes(content)
            code, stdout, stderr = run_cli(capsys, stage, "--config", str(cfg))
            assert code == cli.EXIT_CONFIG
            assert stderr == f"config error: {message}\n" and stdout == ""


class TestStage2Cli:
    def test_oracle_run_counts(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cfg.yaml",
            "corpus: {kind: chain, count: 10, hops: 3}\nworkers: 2\n",
        )
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "stage2", "--config", cfg, "--out", str(out), "--seed", "3"
        )
        assert code == 0
        assert "tasks 10" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["tasks"] == 10
        assert manifest["counts"]["sft"] >= 10  # oracle finds every gold path
        stats = compute_stats(read_audit(out / "audit.jsonl"))
        assert stats["success_rate"] == 1.0

    def test_total_corruption_emits_nothing_but_exits_zero(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cfg.yaml",
            "backend: scripted-noisy\n"
            "corruption: {p_format_break: 1.0}\n"
            "corpus: {kind: chain, count: 5, hops: 2}\nworkers: 1\n",
        )
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(
            capsys, "stage2", "--config", cfg, "--out", str(out)
        )
        assert code == 0
        assert "sft 0" in stdout
        assert "no correct path" in stderr

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cfg.yaml",
            "backend: scripted-noisy\n"
            "corruption: {p_bad_rule: 0.3}\n"
            "corpus: {kind: chain, count: 8, hops: 3}\n",
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "stage2", "--config", cfg, "--out", str(out), "--seed", "5"
            )
            assert code == 0
            outs.append(out)
        for fname in ("sft.jsonl", "dpo.jsonl", "audit.jsonl", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unavailable_backend_loses_only_its_task(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        run_beam = cli.run_beam

        def flaky_run_beam(task, *args):
            if task.id.endswith("-1"):
                raise gateway.BackendUnavailable("endpoint refused the connection")
            return run_beam(task, *args)

        monkeypatch.setattr(cli, "run_beam", flaky_run_beam)
        cfg = write(
            tmp_path / "cfg.yaml",
            f"corpus: {{kind: chain, count: 3, hops: 2}}\nworkers: {workers}\n",
        )
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(
            capsys, "stage2", "--config", cfg, "--out", str(out), "--seed", "0"
        )
        assert code == cli.EXIT_FAILURE
        assert "tasks 2" in stdout
        assert "1/3 tasks lost" in stderr and "endpoint refused" in stderr
        assert "Traceback" not in stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["tasks"] == 2
        assert manifest["partial"] is True
        audit_tasks = {
            json.loads(line)["task_id"]
            for line in (out / "audit.jsonl").read_text().splitlines()
        }
        assert len(audit_tasks) == 2 and not any(t.endswith("-1") for t in audit_tasks)

    def test_workers_do_not_change_output(self, tmp_path, capsys):
        outs = []
        for name, workers in (("w1", 1), ("w4", 4)):
            cfg = write(
                tmp_path / f"cfg-{name}.yaml",
                "backend: scripted-noisy\n"
                "corruption: {p_bad_rule: 0.3}\n"
                f"corpus: {{kind: chain, count: 8, hops: 3}}\nworkers: {workers}\n",
            )
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "stage2", "--config", cfg, "--out", str(out), "--seed", "5"
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "sft.jsonl").read_bytes() == (outs[1] / "sft.jsonl").read_bytes()
        assert (outs[0] / "audit.jsonl").read_bytes() == (outs[1] / "audit.jsonl").read_bytes()


class FakeChatTransport:
    """Chat-completion transport for http stage-2 runs without a server.
    Answers by the prompt asset a request starts with: generation from the
    scripted-noisy backend, translation from the tasks' NL pairings, and YES
    to every judgment.  Holds each call 2 ms and records the peak number of
    calls in flight, the number of calls, and the ids of the tasks whose
    generation prompts it was sent."""

    def __init__(self, cfg):
        tasks = cli.build_tasks(cfg)
        self.tasks = {t.prompt: t for t in tasks}
        self.symbols = {nl: sym for t in tasks for nl, sym in t.nl_pairing.items()}
        self.cfg = cfg
        self.lock = threading.Lock()
        self.active = self.peak = self.calls = 0
        self.task_ids = set()

    def __call__(self, url, payload, headers, timeout):
        with self.lock:
            self.active += 1
            self.calls += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.002)
        with self.lock:
            self.active -= 1
        contents = self.reply(payload["messages"][0]["content"], payload["n"])
        return 200, json.dumps({"choices": [{"message": {"content": c}} for c in contents]})

    def reply(self, prompt, n):
        asset, _, rest = prompt.partition("\n\n")
        if asset == "GEN":
            question, _, prior = rest.partition("\n\n<QUERY>")
            with self.lock:
                self.task_ids.add(self.tasks[question].id)
            steps = template.parse_response("<QUERY>" + prior).steps if prior else ()
            ctx = gateway.GenerationContext(question, steps, seed=self.cfg.beam.seed)
            backend = gateway.ScriptedNoisyBackend(self.tasks[question], self.cfg.corruption)
            return [c.raw_text for c in backend.generate_candidates(ctx, n)]
        if asset != "TRANS":
            return ["YES"]
        (step,) = template.parse_response(rest[rest.index("<QUERY>"):]).steps
        symbols = [self.symbols.get(nl) for nl in (*step.facts, step.rule)]
        if None in symbols:
            return ["UNTRANSLATABLE"]
        return ["".join(f"fact {f}.\n" for f in symbols[:-1]) + f"rule {symbols[-1]}\n"]


def http_config(tmp_path, workers, count=6):
    """The path of an http stage-2 config on ``count`` chain tasks, run on
    ``workers`` threads, whose prompt assets FakeChatTransport tells apart."""
    prompts = tmp_path / "prompts"
    prompts.mkdir(exist_ok=True)
    for name, text in (("generation", "GEN"), ("translation", "TRANS"),
                       ("precision", "PREC"), ("feasibility", "FEAS")):
        write(prompts / f"{name}.txt", text)
    config = {
        "backend": "http",
        "seed": 3,
        "workers": workers,
        "prompts_dir": str(prompts),
        "http": {"endpoint": "http://chat.invalid/v1", "model": "m"},
        "corruption": {"p_bad_rule": 0.3, "p_bad_fact": 0.1},
        "corpus": {"kind": "chain", "count": count, "hops": 3},
    }
    return write(tmp_path / f"cfg-{workers}.yaml", json.dumps(config))


def fake_http(monkeypatch, cfg_path):
    """Send every HttpBackend request of the run of ``cfg_path`` to a
    FakeChatTransport, which is returned."""
    transport = FakeChatTransport(load_config(cfg_path))
    monkeypatch.setattr(gateway.HttpBackend, "_default_transport", staticmethod(transport))
    return transport


class TestConcurrency:
    def _http_run(self, tmp_path, capsys, monkeypatch, workers):
        path = http_config(tmp_path, workers)
        transport = fake_http(monkeypatch, path)
        out = tmp_path / f"w{workers}"
        code, _, _ = run_cli(capsys, "stage2", "--config", path, "--out", str(out))
        assert code == 0
        return transport.peak, out

    def test_workers_bound_http_requests_in_flight(self, tmp_path, capsys, monkeypatch):
        peak1, out1 = self._http_run(tmp_path, capsys, monkeypatch, 1)
        peak2, out2 = self._http_run(tmp_path, capsys, monkeypatch, 2)
        assert (peak1, peak2) == (1, 2)
        assert (out1 / "dpo.jsonl").read_text()
        for name in ("sft.jsonl", "dpo.jsonl", "audit.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reply_nested_too_deeply_loses_only_the_tasks(self, tmp_path, capsys, monkeypatch):
        # json.loads raises RecursionError on such a body; it is a malformed
        # reply, retried and then a lost task, not the end of the run.
        config = json.loads(Path(http_config(tmp_path, 1, count=3)).read_text())
        config["http"]["max_retries"] = 1
        path = write(tmp_path / "cfg.yaml", json.dumps(config))
        monkeypatch.setattr(
            gateway.HttpBackend, "_default_transport",
            staticmethod(lambda *args: (200, "[" * 100_000)),
        )
        code, _, stderr = run_cli(capsys, "stage2", "--config", path, "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_FAILURE
        assert "3/3 tasks lost" in stderr and "bad response body" in stderr
        assert "Traceback" not in stderr

    def test_scripted_backends_run_serially(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a scripted run started a thread pool")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        cfg = write(
            tmp_path / "cfg.yaml",
            "backend: scripted-noisy\ncorruption: {p_bad_rule: 0.3}\n"
            "corpus: {kind: chain, count: 6, hops: 3}\nworkers: 4\n",
        )
        code, stdout, _ = run_cli(capsys, "stage2", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert "tasks 6" in stdout

    @pytest.mark.parametrize("stage", ["stage1", "stage2"])
    def test_scripted_runs_import_no_thread_pool(self, tmp_path, stage):
        # A fresh process, since this one has long imported both modules.
        import subprocess

        cfg = write(
            tmp_path / "cfg.yaml",
            "backend: scripted-noisy\ncorpus: {kind: rulebase, count: 4}\nworkers: 4\n",
        )
        script = (
            "import sys\n"
            "from oracle_forge import cli\n"
            f"code = cli.main([{stage!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "print(code, sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


STAGE2_FILES = ("sft.jsonl", "dpo.jsonl", "audit.jsonl", "manifest.json")


def read_outputs(out):
    """Every file in ``out`` by name, with its bytes."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestStage2Streaming:
    """Stage 2 writes each task's result once it is done, in task-id order,
    and then drops it."""

    @staticmethod
    def watch_run_beam(monkeypatch, fail_at=None, slow_first=0.0):
        """Wrap cli.run_beam to count the BeamResults alive at once.  Returns
        a dict: ``peak``, the most alive at once, and ``started``, the task
        ids in call order.  The first call sleeps ``slow_first`` seconds, and
        call number ``fail_at`` raises RuntimeError."""
        lock = threading.Lock()
        live = {"now": 0, "peak": 0, "started": []}
        run_beam = cli.run_beam

        def release():
            with lock:
                live["now"] -= 1

        def watched(task, *args):
            with lock:
                live["started"].append(task.id)
                n = len(live["started"])
            if n == 1:
                time.sleep(slow_first)
            if n == fail_at:
                raise RuntimeError(f"beam search failed on {task.id}")
            result = run_beam(task, *args)
            with lock:
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])
            weakref.finalize(result, release)
            return result

        monkeypatch.setattr(cli, "run_beam", watched)
        return live

    def test_scripted_run_holds_no_result_past_its_emission(self, tmp_path, capsys, monkeypatch):
        live = self.watch_run_beam(monkeypatch)
        cfg = golden_config(tmp_path, "chain")  # 40 tasks, workers: 2
        code, _, _ = run_cli(capsys, "stage2", "--config", cfg, "--out", str(tmp_path / "out"))
        assert code == 0 and len(live["started"]) == 40
        assert live["peak"] <= 2 + 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_http_run_holds_at_most_workers_plus_one_results(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        # The first task is slow, so the other workers would pile up results
        # if they ran ahead without bound; threads switch often, and 4
        # workers outnumber the cores of a small host.
        cfg = http_config(tmp_path, workers=workers, count=12)
        fake_http(monkeypatch, cfg)
        live = self.watch_run_beam(monkeypatch, slow_first=0.3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            code, _, _ = run_cli(capsys, "stage2", "--config", cfg, "--out", str(tmp_path / "out"))
        finally:
            sys.setswitchinterval(interval)
        assert code == 0 and len(live["started"]) == 12
        assert live["peak"] <= workers + 1

    def test_failed_scripted_run_leaves_previous_outputs(self, tmp_path, capsys, monkeypatch):
        cfg = golden_config(tmp_path, "chain")
        out = tmp_path / "out"
        assert run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))[0] == 0
        before = read_outputs(out)
        assert sorted(before) == sorted(STAGE2_FILES)
        live = self.watch_run_beam(monkeypatch, fail_at=3)
        with pytest.raises(RuntimeError, match="beam search failed"):
            cli.main(["stage2", "--config", cfg, "--out", str(out), "--seed", "4"])
        assert len(live["started"]) == 3
        assert read_outputs(out) == before

    def test_failed_http_run_cancels_queued_tasks(self, tmp_path, capsys, monkeypatch):
        workers = 2
        cfg = http_config(tmp_path, workers=workers, count=12)
        out = tmp_path / "out"
        fake_http(monkeypatch, cfg)
        assert run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))[0] == 0
        before = read_outputs(out)
        transport = fake_http(monkeypatch, cfg)
        live = self.watch_run_beam(monkeypatch, fail_at=3)
        with pytest.raises(RuntimeError, match="beam search failed"):
            cli.main(["stage2", "--config", cfg, "--out", str(out)])
        started, calls = sorted(live["started"]), transport.calls
        # Tasks start in id order and at most ``workers`` ahead of the one
        # being written; the failed third one stops the run.
        ids = sorted(t.id for t in cli.build_tasks(load_config(cfg)))
        assert started == ids[: len(started)] and len(started) <= 2 + workers
        assert transport.task_ids <= set(started)
        time.sleep(0.05)
        assert transport.calls == calls and sorted(live["started"]) == started
        assert read_outputs(out) == before

    def test_file_corpus_out_of_id_order_writes_what_the_sorted_one_does(
        self, tmp_path, capsys
    ):
        from oracle_forge.datafactory import save_tasks

        tasks = cli.build_tasks(load_config(golden_config(tmp_path, "chain")))
        shuffled = list(tasks)
        random.Random(0).shuffle(shuffled)
        ordered = sorted(tasks, key=lambda t: t.id)
        assert [t.id for t in shuffled] != [t.id for t in ordered]
        path = tmp_path / "tasks.jsonl"
        cfg = write(
            tmp_path / "file.yaml",
            "backend: scripted-noisy\nseed: 3\ncorruption: {p_bad_rule: 0.3, p_bad_fact: 0.1}\n"
            f"corpus: {{kind: file, path: {path}}}\n",
        )
        outputs = []
        for name, order in (("shuffled", shuffled), ("sorted", ordered)):
            save_tasks(order, str(path))
            out = tmp_path / name
            assert run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))[0] == 0
            outputs.append(read_outputs(out))
        assert sorted(outputs[0]) == sorted(STAGE2_FILES)
        assert outputs[0] == outputs[1]


STAGE1_FILES = ("sft.jsonl", "rejections.jsonl", "manifest.json")


class TestStage1Streaming:
    """Stage 1 writes each task's line once its sample is generated, in
    corpus order, and then drops the sample."""

    @staticmethod
    def watch_generation(monkeypatch, fail_at=None, slow_first=0.0):
        """Wrap cli.make_task_backend to count the backends' generate_response
        calls, and datafactory.write_outputs to record that count as each line
        but the manifest's arrives.  Returns a dict: ``generated``, the calls
        so far, and ``seen``, the count at each line, in line order.  The
        first call sleeps ``slow_first`` seconds, and call number ``fail_at``
        raises RuntimeError."""
        lock = threading.Lock()
        state = {"generated": 0, "seen": []}
        make_task_backend, write_outputs = cli.make_task_backend, datafactory.write_outputs

        def watched_backend(cfg, task, prompts):
            backend = make_task_backend(cfg, task, prompts)
            generate = backend.generate_response

            def generate_response(ctx):
                with lock:
                    state["generated"] += 1
                    n = state["generated"]
                if n == 1:
                    time.sleep(slow_first)
                if n == fail_at:
                    raise RuntimeError(f"generation failed on {task.id}")
                return generate(ctx)

            backend.generate_response = generate_response
            return backend

        def watched_write(out_dir, names, lines):
            def watched_lines():
                for name, line in lines:
                    if name != "manifest.json":
                        with lock:
                            state["seen"].append(state["generated"])
                    yield name, line

            write_outputs(out_dir, names, watched_lines())

        monkeypatch.setattr(cli, "make_task_backend", watched_backend)
        monkeypatch.setattr(datafactory, "write_outputs", watched_write)
        return state

    def test_scripted_run_generates_each_sample_just_before_its_line(
        self, tmp_path, capsys, monkeypatch
    ):
        state = self.watch_generation(monkeypatch)
        cfg = golden_config(tmp_path, "chain")  # 40 tasks
        code, _, _ = run_cli(capsys, "stage1", "--config", cfg, "--out", str(tmp_path / "out"))
        assert code == 0 and state["generated"] == 40
        assert state["seen"] == list(range(1, 41))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_http_run_generates_at_most_workers_ahead(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        # The first sample is slow, so the other workers would run ahead
        # without bound if nothing held them back.
        cfg = http_config(tmp_path, workers=workers, count=12)
        fake_http(monkeypatch, cfg)
        state = self.watch_generation(monkeypatch, slow_first=0.3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            code, _, _ = run_cli(capsys, "stage1", "--config", cfg, "--out", str(tmp_path / "out"))
        finally:
            sys.setswitchinterval(interval)
        assert code == 0 and state["generated"] == 12 and len(state["seen"]) == 12
        assert all(k <= n <= k + workers for k, n in enumerate(state["seen"], 1)), state["seen"]

    def test_failed_scripted_run_leaves_previous_outputs(self, tmp_path, capsys, monkeypatch):
        cfg = golden_config(tmp_path, "chain")
        out = tmp_path / "out"
        assert run_cli(capsys, "stage1", "--config", cfg, "--out", str(out))[0] == 0
        before = read_outputs(out)
        assert sorted(before) == sorted(STAGE1_FILES)
        state = self.watch_generation(monkeypatch, fail_at=3)
        with pytest.raises(RuntimeError, match="generation failed"):
            cli.main(["stage1", "--config", cfg, "--out", str(out), "--seed", "4"])
        assert state["generated"] == 3 and state["seen"] == [1, 2]
        assert read_outputs(out) == before


class TestStatsCli:
    def _audit(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cfg.yaml",
            "backend: scripted-noisy\ncorruption: {p_bad_rule: 0.3}\n"
            "corpus: {kind: chain, count: 6, hops: 3}\n",
        )
        out = tmp_path / "out"
        run_cli(capsys, "stage2", "--config", cfg, "--out", str(out), "--seed", "2")
        return str(out / "audit.jsonl")

    def test_table_output(self, tmp_path, capsys):
        audit = self._audit(tmp_path, capsys)
        code, stdout, _ = run_cli(capsys, "stats", audit)
        assert code == 0
        assert "success rate" in stdout
        assert "Translation Error" in stdout

    def test_json_matches_in_process(self, tmp_path, capsys):
        audit = self._audit(tmp_path, capsys)
        code, stdout, _ = run_cli(capsys, "stats", audit, "--json")
        assert code == 0
        assert json.loads(stdout) == compute_stats(read_audit(audit))

    def test_missing_file(self, capsys):
        code, _, stderr = run_cli(capsys, "stats", "/no/such/audit.jsonl")
        assert code == cli.EXIT_FAILURE
        assert "error" in stderr

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"id": 0, "task_id": "t\xff"}\n', "line 1: 'utf-8' codec can't decode"),
            (
                b'{"id": 0, "task_id": "t", "has_step": true, "executed": "no"}\n',
                "line 1: executed must be bool, got 'no'",
            ),
            (
                b'{"id": 0, "task_id": "t", "has_step": true, "executed": false}\n',
                "line 1: failed step without failure_class",
            ),
            (b"[" * 100_000 + b"\n", "line 1: maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "string-executed", "unclassified-failure", "nested-too-deeply"],
    )
    def test_unreadable_audit_is_a_one_line_error(self, tmp_path, capsys, content, reason):
        audit = tmp_path / "audit.jsonl"
        audit.write_bytes(content)
        code, stdout, stderr = run_cli(capsys, "stats", str(audit))
        assert code == cli.EXIT_FAILURE
        assert stderr.startswith(f"error: {reason}")
        assert stderr.count("\n") == 1 and stdout == ""


class TestVerifyStepCli:
    def test_socrates(self, tmp_path, capsys):
        facts = write(tmp_path / "facts.kbl", "fact man(socrates).\n")
        rule = write(tmp_path / "rule.kbl", "rule mortal(X) :- man(X).\n")
        code, stdout, _ = run_cli(capsys, "verify-step", facts, rule)
        assert code == 0
        assert stdout.strip() == "executed: mortal(socrates)"

    def test_no_rule_firing(self, tmp_path, capsys):
        facts = write(tmp_path / "facts.kbl", "fact man(socrates).\n")
        rule = write(tmp_path / "rule.kbl", "rule mortal(X) :- god(X).\n")
        code, stdout, _ = run_cli(capsys, "verify-step", facts, rule)
        assert code == cli.EXIT_FAILURE
        assert stdout.startswith("failed:")

    def test_unsafe_rule(self, tmp_path, capsys):
        facts = write(tmp_path / "facts.kbl", "fact man(socrates).\n")
        rule = write(tmp_path / "rule.kbl", "rule mortal(X) :- not man(X).\n")
        code, stdout, stderr = run_cli(capsys, "verify-step", facts, rule)
        assert code == cli.EXIT_FAILURE
        # The engine, not the parser, rejects an unsafe rule.
        assert stdout.startswith("failed: UnsafeRule")
        assert stderr == ""

    def test_rule_count_enforced(self, tmp_path, capsys):
        facts = write(tmp_path / "facts.kbl", "fact man(socrates).\n")
        rule = write(
            tmp_path / "rule.kbl",
            "rule mortal(X) :- man(X).\nrule wise(X) :- man(X).\n",
        )
        code, _, stderr = run_cli(capsys, "verify-step", facts, rule)
        assert code == cli.EXIT_FAILURE
        assert "exactly 1 rule" in stderr

    def test_parse_error(self, tmp_path, capsys):
        facts = write(tmp_path / "facts.kbl", "fact man(socrates\n")
        rule = write(tmp_path / "rule.kbl", "rule mortal(X) :- man(X).\n")
        code, stdout, stderr = run_cli(capsys, "verify-step", facts, rule)
        assert code == cli.EXIT_FAILURE
        assert stderr == f"error: {facts}: line 2, col 1: expected )\n" and stdout == ""

    @pytest.mark.parametrize("culprit", ["facts.kbl", "rule.kbl"])
    def test_file_that_is_not_utf8_is_a_one_line_error(self, tmp_path, capsys, culprit):
        facts = write(tmp_path / "facts.kbl", "fact man(socrates).\n")
        rule = write(tmp_path / "rule.kbl", "rule mortal(X) :- man(X).\n")
        (tmp_path / culprit).write_bytes(b"fact caf\xe9(x).\n")
        code, stdout, stderr = run_cli(capsys, "verify-step", facts, rule)
        assert code == cli.EXIT_FAILURE
        assert stderr.startswith(f"error: {tmp_path / culprit}: 'utf-8' codec can't decode")
        assert stderr.count("\n") == 1 and stdout == ""

    @pytest.mark.parametrize(
        "facts_src, rule_src, culprit",
        [
            ("", "fact man(socrates).\nrule mortal(X) :- man(X).\n", "rule.kbl"),
            ("fact man(socrates).\nrule mortal(X) :- man(X).\n", "rule god(X) :- man(X).\n",
             "facts.kbl"),
        ],
        ids=["fact-in-rule-file", "rule-in-facts-file"],
    )
    def test_clause_in_the_wrong_file_is_an_error(
        self, tmp_path, capsys, facts_src, rule_src, culprit
    ):
        facts = write(tmp_path / "facts.kbl", facts_src)
        rule = write(tmp_path / "rule.kbl", rule_src)
        code, stdout, stderr = run_cli(capsys, "verify-step", facts, rule)
        assert code == cli.EXIT_FAILURE
        assert stdout == ""
        assert stderr.startswith(f"error: {tmp_path / culprit}: ")
        assert stderr.count("\n") == 1


class TestCorpusFileRoundTrip:
    def test_stage2_from_saved_tasks(self, tmp_path, capsys):
        # A run on a saved corpus writes what the run on the generated one
        # does, so loading accepts every task the generators make.
        from oracle_forge.datafactory import save_tasks

        base = "backend: scripted-noisy\nseed: 3\ncorruption: {p_bad_rule: 0.3, p_bad_fact: 0.1}\n"
        for kind, spec in [
            ("chain", "{kind: chain, count: 40, hops: 4}"),
            ("rulebase", "{kind: rulebase, count: 40, n_facts: 12, n_rules: 8, negation: true}"),
        ]:
            generated = write(tmp_path / f"{kind}.yaml", base + f"corpus: {spec}\n")
            path = tmp_path / f"{kind}.jsonl"
            save_tasks(cli.build_tasks(load_config(generated)), str(path))
            saved = write(
                tmp_path / f"{kind}-file.yaml", base + f"corpus: {{kind: file, path: {path}}}\n"
            )
            outputs = []
            for cfg in (generated, saved):
                out = tmp_path / f"out-{len(outputs)}-{kind}"
                code, stdout, _ = run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))
                assert code == 0 and "tasks 40" in stdout
                names = ("sft.jsonl", "dpo.jsonl", "audit.jsonl")
                outputs.append([(out / n).read_bytes() for n in names])
            assert outputs[0] == outputs[1], kind

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda d: {"id": "x"}, "KeyError: 'question'"),
            (lambda d: "{not json", "JSONDecodeError: Expecting property name"),
            (lambda d: [], "TypeError: list indices"),
            (lambda d: dict(d, question=None), "TypeError: question is not a string: None"),
            (
                lambda d: dict(d, kb="fact p(a).\nfact @."),
                "KblSyntaxError: line 2, col 6: expected identifier or punctuation",
            ),
            (
                lambda d: dict(d, proof=[dict(d["proof"][0], rule="fact p(a).")]),
                "KbError: expected exactly 1 rule, got 0: 'fact p(a).'",
            ),
            (
                lambda d: dict(d, proof=[dict(d["proof"][0], conclusion="p(a). q(b)")]),
                "KblSyntaxError: line 1, col 7: expected end of input",
            ),
            (
                lambda d: dict(d, nl_pairing={
                    nl: e for nl, e in d["nl_pairing"].items() if e["src"] != "vaxpus(polly)"
                }),
                "ValueError: no sentence for vaxpus(polly)",
            ),
            (
                lambda d: dict(d, nl_pairing={
                    " " if e["src"] == "vaxpus(polly)" else nl: e
                    for nl, e in d["nl_pairing"].items()
                }),
                "ValueError: blank sentence for vaxpus(polly)",
            ),
            (
                lambda d: dict(d, nl_pairing={
                    nl: dict(e, src=e["src"] + " fact zz(q).") if e["kind"] == "rule" else e
                    for nl, e in d["nl_pairing"].items()
                }),
                "KbError: expected no fact, got 1: 'rule ",
            ),
            (
                lambda d: dict(d, proof=[
                    dict(d["proof"][0], rule=d["proof"][0]["rule"] + " fact zz(q).")
                ]),
                "KbError: expected no fact, got 1: 'rule vaxpus(X) :- braxpus(X). fact zz(q).'",
            ),
            (
                lambda d: dict(d, nl_pairing={
                    nl: dict(e, kind="ruel") if e["kind"] == "rule" else e
                    for nl, e in d["nl_pairing"].items()
                }),
                "ValueError: unknown symbol kind: 'ruel'",
            ),
            (
                lambda d: dict(d, proof=[dict(d["proof"][0], facts=[])]),
                "ParseError: empty <FACTS> field",
            ),
            (
                lambda d: json.dumps(d).encode().replace(b'"question": "', b'"question": "\xff'),
                "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff",
            ),
            (lambda d: "[" * 100_000, "RecursionError: maximum recursion depth exceeded"),
            (
                lambda d: dict(d, gold_answer=" \t"),
                "ValueError: gold_answer is not one non-blank line: ' \\t'",
            ),
            (
                lambda d: dict(d, gold_answer="true\nfalse"),
                "ValueError: gold_answer is not one non-blank line: 'true\\nfalse'",
            ),
        ],
        ids=[
            "missing-key", "bad-json", "not-an-object", "null-text", "bad-kbl", "no-rule",
            "atom-then-text", "unpaired-proof-symbol", "blank-sentence", "rule-entry-with-fact",
            "proof-rule-with-fact", "unknown-symbol-kind", "proof-step-without-facts", "not-utf8",
            "nested-too-deeply", "blank-gold-answer", "multi-line-gold-answer",
        ],
    )
    def test_malformed_line_is_a_one_line_error(self, tmp_path, capsys, edit, reason):
        from oracle_forge.corpus import gen_rulebase_task, task_to_dict

        good = task_to_dict(gen_rulebase_task(seed=1))
        bad = edit(good)
        if not isinstance(bad, bytes):
            bad = (bad if isinstance(bad, str) else json.dumps(bad)).encode()
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(b"\n".join([json.dumps(good).encode(), b"", bad]) + b"\n")
        cfg = write(tmp_path / "cfg.yaml", f"corpus: {{kind: file, path: {path}}}\n")
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))
        assert code == cli.EXIT_FAILURE
        assert stderr.startswith(f"error: {path}, line 3: {reason}")
        assert stderr.count("\n") == 1 and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["stage1", "stage2"])
    def test_repeated_task_id_is_a_one_line_error(self, tmp_path, capsys, stage):
        from oracle_forge.corpus import gen_chain_task
        from oracle_forge.datafactory import save_tasks

        path = tmp_path / "tasks.jsonl"
        save_tasks([gen_chain_task(2, seed=4), gen_chain_task(3, seed=1)] * 2, str(path))
        cfg = write(tmp_path / "cfg.yaml", f"corpus: {{kind: file, path: {path}}}\n")
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, stage, "--config", cfg, "--out", str(out))
        assert code == cli.EXIT_FAILURE
        assert stderr == f"error: {path}, line 3: repeated task id: chain-2h-4\n"
        assert stdout == "" and not out.exists()


def test_rulebase_that_exhausts_its_retries_is_a_one_line_error(tmp_path, capsys):
    cfg = write(
        tmp_path / "cfg.yaml",
        "corpus: {kind: rulebase, count: 1, n_facts: 30, n_rules: 12, negation: true}\n",
    )
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, "stage2", "--config", cfg, "--out", str(out), "--seed", "0"
    )
    assert code == cli.EXIT_FAILURE
    assert stderr == "error: no satisfiable rulebase after 100 attempts (seed 0)\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("stage", ["stage1", "stage2"])
def test_chain_that_outgrows_the_word_list_is_a_one_line_error(tmp_path, stage):
    # A chain task needs hops + 1 + 2 * distractors distinct words: 114 here,
    # of the 112 that exist.  The run is a subprocess with a timeout, so a
    # draw that can never finish fails the test instead of hanging it.
    import subprocess
    import sys

    cfg = write(tmp_path / "cfg.yaml", "corpus: {kind: chain, hops: 1, distractors: 56}\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "oracle_forge", stage, "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == cli.EXIT_FAILURE
    assert proc.stderr == "error: a task needs 114 distinct words, but the word list holds 112\n"
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("stage", ["stage1", "stage2"])
@pytest.mark.parametrize("out", ["F", "F/x"], ids=["out-is-a-file", "out-under-a-file"])
def test_unusable_out_dir_is_a_one_line_error_before_any_task(
    tmp_path, capsys, monkeypatch, stage, out
):
    (tmp_path / "F").write_text("", encoding="utf-8")
    started = []
    make_backend = cli.make_task_backend
    monkeypatch.setattr(
        cli, "make_task_backend", lambda *args: started.append(args) or make_backend(*args)
    )
    cfg = write(tmp_path / "cfg.yaml", "corpus: {kind: chain, count: 2}\n")
    code, stdout, stderr = run_cli(capsys, stage, "--config", cfg, "--out", str(tmp_path / out))
    assert code == cli.EXIT_FAILURE
    assert stderr.startswith("error: [Errno ") and stderr.endswith(f"'{tmp_path / out}'\n")
    assert stderr.count("\n") == 1 and stdout == ""
    assert started == []


# sha256 of each stage-2 output at seed 3 for 40 tasks, under the
# scripted-noisy config of perfbench/run.py:corpus_config.  Any change to
# what a run emits, in any layer, shows here; a deliberate one updates the
# constants and says why.
GOLDEN_DIGESTS = {
    "chain": {
        "sft.jsonl": "6b01b287990ca9e6b1aa84da3463995c776ab4e64856ca97e5e7d71bc5a4bfbe",
        "dpo.jsonl": "0e4b08cab1279486fd68b63cc512f9862e649d9eff6ba3a9b5b5b7cf85effb4b",
        "audit.jsonl": "7c89e38fede27f905191eb2517016837edade82b9bbdc6c77fb3114f4b3f6c1f",
        "manifest.json": "235b685f6ea323b43aa4e8c0a79a660a6c6d8034fba161022dc93cf001e9d3ce",
    },
    "rulebase": {
        "sft.jsonl": "49af24abc33490941d7acd9d4070048b6eeb3e66e035b93bf2d8324549b44eb2",
        "dpo.jsonl": "0f9f45e4c714a4220f1f40554a85a1ed3037c9c4979d9dfe41f125dc588279c7",
        "audit.jsonl": "5f0937da29b8fb0623939caae4898d3309f0f622ebb9fc0704143e47d4869182",
        "manifest.json": "706aafab0ebcbeb4273f85d8d0de6c26b210568827ddac21b0546548c97b3469",
    },
}
def golden_run(tmp_path, capsys, kind):
    """The output directory of the golden stage-2 run of ``kind``."""
    cfg = golden_config(tmp_path, kind)
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))
    assert code == 0
    return out


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
def test_stage2_outputs_match_golden_digests(tmp_path, capsys, kind):
    out = golden_run(tmp_path, capsys, kind)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS[kind]
    }
    assert digests == GOLDEN_DIGESTS[kind]


# sha256 of the stage-2 outputs of the golden configs at 400 tasks, the
# benchmark's corpora.  Unlike the 40-task runs, the chain run reaches the
# max_dpo cut, which these digests therefore cover too.
BENCH_SCALE_DIGESTS = {
    "chain": {
        "sft.jsonl": "316da31b20fa4fe437f6c612fbce5d5bff8ab004bd889e06fc531cc7f1a7a542",
        "dpo.jsonl": "36f7866fb0f5cad9753ae7831e996ea2fb9061b12e9bf69824bbf0f073d88a9d",
        "audit.jsonl": "a5f5c01c6aa4b85157e0954e6469c64b5bfd199b6a085a3b0176f99e3ae508de",
    },
    "rulebase": {
        "sft.jsonl": "e0ec4b2fca813b9d9fe57df786e35ea239201b0f090691bad4ceb3483dd9d8c0",
        "dpo.jsonl": "b1b46a97eabfb3bca8df555d5bc2ea6a13662d57bfd21396ab48da67986afee7",
        "audit.jsonl": "0d836b45904837626522a7d91159d2de3aaede632fa2c03c24dde05e4029cc63",
    },
}
DPO_CUT_AT_BENCH_SCALE = {"chain": 483, "rulebase": 0}


@pytest.mark.parametrize("kind", sorted(BENCH_SCALE_DIGESTS))
def test_stage2_outputs_at_bench_scale_match_digests(tmp_path, capsys, monkeypatch, kind):
    offered = []

    def counting_dpo_records(result):
        records = dpo_records_from_result(result)
        offered.append(len(records))
        return records

    dpo_records_from_result = datafactory.dpo_records_from_result
    monkeypatch.setattr(datafactory, "dpo_records_from_result", counting_dpo_records)
    out = tmp_path / "out"
    cfg = golden_config(tmp_path, kind, count=400)
    code, _, _ = run_cli(capsys, "stage2", "--config", cfg, "--out", str(out))
    assert code == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in BENCH_SCALE_DIGESTS[kind]
    }
    assert digests == BENCH_SCALE_DIGESTS[kind]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sum(offered) - manifest["counts"]["dpo"] == DPO_CUT_AT_BENCH_SCALE[kind]
    assert manifest["partial"] == bool(DPO_CUT_AT_BENCH_SCALE[kind])
    # An audit line is written without sort_keys: the record is built sorted.
    assert all(list(rec) == sorted(rec) for rec in read_audit(out / "audit.jsonl"))


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
def test_dpo_prompts_start_with_their_task_prompt(tmp_path, capsys, kind):
    # A DPO prompt is the task prompt (context, then question) that the task's
    # SFT records hold, then the steps before the pair.
    out = golden_run(tmp_path, capsys, kind)

    def records(name):
        return [json.loads(line) for line in (out / name).read_text().splitlines()]

    task_prompt = {r["task_id"]: r["prompt"] for r in records("sft.jsonl")}
    dpo = records("dpo.jsonl")
    assert dpo
    for r in dpo:
        prompt = task_prompt[r["task_id"]]
        assert r["prompt"] == prompt or r["prompt"].startswith(prompt + "\n\n")


# sha256 of the stdout of ``oracle-forge stats`` and ``stats --json`` on the
# audit of each golden run.
GOLDEN_STATS_DIGESTS = {
    "chain": {
        "table": "0f76653e7959bf93d62843ec622f6b72a611cd6d0223d6259991d18185670b7f",
        "json": "2d8907e3f63b80300e89eb3369ab5387cf8d373e509b09f9daab27a5205b1cd8",
    },
    "rulebase": {
        "table": "a4fb62781a58400d78f6540c8f5c00865cf93cad0a004bef77ac811f8ec361c3",
        "json": "ce68c9b3df54e7552c65ad50425039452e63a4d9660883a465f589f064ddcbf5",
    },
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_STATS_DIGESTS))
def test_stats_output_matches_golden_digests(tmp_path, capsys, kind):
    audit = str(golden_run(tmp_path, capsys, kind) / "audit.jsonl")
    digests = {}
    for name, flags in (("table", ()), ("json", ("--json",))):
        code, stdout, _ = run_cli(capsys, "stats", audit, *flags)
        assert code == 0
        digests[name] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    assert digests == GOLDEN_STATS_DIGESTS[kind]


# sha256 of each stage-1 output at seed 3 for the 40 golden chain tasks,
# scripted-noisy with format breaks, so that some samples are rejected.
STAGE1_DIGESTS = {
    "sft.jsonl": "ee685203d73870901147ecdbf299157e1574b775509a5091de65dd2f7f0775aa",
    "rejections.jsonl": "44fe8fecf38c2d03e5e1177b9f6eb31780cdbcca954514c995280e2bde0206ce",
    "manifest.json": "ce82b817aeb42017cb70288d726b8cae4df8a6bb5c116e7049976577f4c0c26f",
}


def test_stage1_outputs_match_golden_digests(tmp_path, capsys):
    config = {
        "backend": "scripted-noisy",
        "seed": 3,
        "corruption": {"p_format_break": 0.3},
        "corpus": dict(GOLDEN_CORPORA["chain"], count=40),
    }
    cfg = write(tmp_path / "cfg.yaml", json.dumps(config))
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "stage1", "--config", cfg, "--out", str(out))
    assert code == 0
    assert stdout == "stage1: kept 29, rejected 11\n"
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in STAGE1_DIGESTS
    }
    assert digests == STAGE1_DIGESTS


# sha256 of each output of both stages under scripted-oracle at seed 3 for
# the 40 golden tasks of each kind: every task keeps its gold proof, so no
# DPO pair and no stage-1 reject is written.
ORACLE_DIGESTS = {
    ("stage1", "chain"): {
        "sft.jsonl": "1eb6c59747bf2b619c61063f863cf6c57d8a869e8829568cfbe52806a7de0079",
        "rejections.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "manifest.json": "1629da0b3f49dcc9d10b80eb91ed58c05d9fb032d031e7b9e3ffa5a29c000eee",
    },
    ("stage1", "rulebase"): {
        "sft.jsonl": "065b8fb5f087e53ba91f50a62f12d6105312cdbed015ea5bd8b60cab6f4458bf",
        "rejections.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "manifest.json": "2a98a9f5fd553b2d5608a67663f7e9fce327d2264c37c1a141e6c8ba209dfd63",
    },
    ("stage2", "chain"): {
        "sft.jsonl": "27abd0ea9f30865af7cbe7cb93e2536be8a0d4bdd2425de094277e0804dbfbe8",
        "dpo.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.jsonl": "2e0633b9a1afbcea19581f7143d171e619001a25c8166cfa7b79dd2527290aab",
        "manifest.json": "b0b23bd14fd0d627e6941eaa8b35b1fddc26e658e78b8be1ccdb3967d28997c5",
    },
    ("stage2", "rulebase"): {
        "sft.jsonl": "b937387199d4d67ae0de8373ab3c581645efcbe00594516f270479942ecd65b8",
        "dpo.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.jsonl": "be8e51da2a5c4d7b291937c3027ab651ad5f0ad4371dc82f4e538c17c1d1b243",
        "manifest.json": "884fb88906bda8b92e66d17e2c19454c2cf00cc8c2d74ad1c2a668edf9656202",
    },
}


@pytest.mark.parametrize("stage, kind", sorted(ORACLE_DIGESTS))
def test_scripted_oracle_outputs_match_golden_digests(tmp_path, capsys, stage, kind):
    config = {
        "backend": "scripted-oracle",
        "seed": 3,
        "corpus": dict(GOLDEN_CORPORA[kind], count=40),
    }
    cfg = write(tmp_path / "cfg.yaml", json.dumps(config))
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, stage, "--config", cfg, "--out", str(out))
    assert code == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ORACLE_DIGESTS[stage, kind]
    }
    assert digests == ORACLE_DIGESTS[stage, kind]


# sha256 of each stage-2 output of the http run of http_config through
# FakeChatTransport, the same at 1 and at 4 workers.  The run starts in the
# config's directory with a relative prompts_dir, as the manifest's
# config_hash covers the path.
HTTP_DIGESTS = {
    "sft.jsonl": "b3a463413ccc9b57388fc9c7a0d8fbf2ec2403860ba9a25f3b7e396edb41fccf",
    "dpo.jsonl": "e55a1db796240a812059543e987ab1e3629722c4ee5d21a0f6eed0b457664cbb",
    "audit.jsonl": "663012621a0a6e97c8a17f6b5d36cff6d106ebe2a0d4c726e2a9139a0e5ee743",
    "manifest.json": "662b0ac2536f45d42b1f62bdaa4c0e447c76d2d99ed490bb38323eee248c65a8",
}


@pytest.mark.parametrize("workers", [1, 4])
def test_http_outputs_match_golden_digests(tmp_path, capsys, monkeypatch, workers):
    config = json.loads(Path(http_config(tmp_path, workers)).read_text())
    path = write(tmp_path / "cfg.yaml", json.dumps(dict(config, prompts_dir="prompts")))
    monkeypatch.chdir(tmp_path)
    fake_http(monkeypatch, path)
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "stage2", "--config", path, "--out", str(out))
    assert code == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in HTTP_DIGESTS
    }
    assert digests == HTTP_DIGESTS


def test_http_untranslatable_steps_are_generation_errors(tmp_path, capsys, monkeypatch):
    # FakeChatTransport answers UNTRANSLATABLE for a step that cites a sentence
    # outside the task's pairing, which the noisy generator writes.
    path = http_config(tmp_path, 1)
    fake_http(monkeypatch, path)
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "stage2", "--config", path, "--out", str(out))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "stats", str(out / "audit.jsonl"), "--json")
    assert code == 0
    assert json.loads(stdout)["failures_generation"] > 0


# sha256 of the manifest, whose config_hash covers every config value, of
# stage-2 runs that take their seed and backend from flags: with no config
# file, and with the golden chain config (seed 3) run at seed 5.
OVERRIDE_MANIFEST_DIGESTS = {
    "config-and-seed": "c55b8a556e5b381915ee62dad6cc6811f6ef5a12494b8c21bd8b15ecc2f803b0",
    "no-config": "a3665859d0e449dd5420f124eaee81ef465c29c3a7207c6d180f25f1d7c4b66b",
}


@pytest.mark.parametrize("case", sorted(OVERRIDE_MANIFEST_DIGESTS))
def test_flag_overrides_match_golden_manifests(tmp_path, capsys, case):
    out = tmp_path / "out"
    if case == "no-config":
        argv = ["--backend", "scripted-noisy", "--seed", "3"]
    else:
        argv = ["--config", golden_config(tmp_path, "chain"), "--seed", "5"]
    code, _, _ = run_cli(capsys, "stage2", *argv, "--out", str(out))
    assert code == 0
    digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert digest == OVERRIDE_MANIFEST_DIGESTS[case]


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
def test_stats_rows_match_a_brute_force_count(tmp_path, capsys, kind):
    records = read_audit(golden_run(tmp_path, capsys, kind) / "audit.jsonl")

    def count(rows):
        return {
            "steps_total": len(rows),
            "steps_executed": sum(r["executed"] for r in rows),
            "failures_generation": sum(r["failure_class"] == GENERATION_ERROR for r in rows),
            "failures_translation": sum(r["failure_class"] == TRANSLATION_ERROR for r in rows),
        }

    steps = [r for r in records if r["has_step"]]
    stats = compute_stats(records)
    assert stats["per_task_breakdown"] == {
        task_id: count([r for r in steps if r["task_id"] == task_id])
        for task_id in {r["task_id"] for r in steps}
    }
    assert {key: stats[key] for key in count(steps)} == count(steps)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "oracle_forge", "--help"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0
    assert "stage1" in proc.stdout and "verify-step" in proc.stdout


def first_fenced_block(path, info=""):
    """The text of the first fenced block in ``path`` opened by ```info."""
    with open(path, encoding="utf-8") as fh:
        return re.search(rf"^```{info}\n(.*?)^```$", fh.read(), re.M | re.S)[1]


def test_documented_examples_still_work(tmp_path, capsys, monkeypatch):
    # README's configuration runs as written, from the repository root where
    # its prompts_dir is, and the first example of the rule language parses.
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setenv("MY_API_KEY", "sk-example")
    monkeypatch.chdir(repo)
    cfg = write(tmp_path / "readme.yaml", first_fenced_block("README.md", "yaml"))
    code, _, err = run_cli(capsys, "stage2", "--config", cfg, "--out", str(tmp_path / "out"))
    assert (code, err) == (cli.EXIT_OK, "")
    kernel.parse_program(first_fenced_block(os.path.join("docs", "rule_language.md")))
