"""Loopback chat-completion stub for the ``http-stub`` workload.

    python3 perfbench/stub.py SRC_DIR CORPUS_CONFIG

Builds the same seeded corpus as the stage-2 run from CORPUS_CONFIG (a
scripted-backend config with the run's corpus, seed, corruption and
prompts_dir), binds a free loopback port, prints ``READY <port>`` and serves
``POST`` chat completions, at most two connections at a time, each request
held for a fixed 2 ms service delay.  Replies are deterministic and built through
oracle_forge's public functions, dispatched on the prompt asset the request
starts with:

- generation: ``ScriptedNoisyBackend`` candidates for the task whose question
  is in the prompt and the prior steps that follow it;
- translation: ``.kbl`` text from the tasks' NL pairings, or
  ``UNTRANSLATABLE:`` when a sentence has none;
- precision / feasibility: ``YES`` when ``kernel.verify_step`` executes the
  translated step, else ``NO``.

``GET /stats`` returns the cumulative request count, request-body bytes,
service seconds and malformed requests; it is not counted itself.
"""

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MAX_CONNECTIONS = 2
DELAY_S = 0.002


class Replier:
    """Maps one prompt to the deterministic reply content."""

    def __init__(self, config_path: str):
        from oracle_forge import cli, config, gateway, kernel, template

        self.gateway, self.kernel, self.template = gateway, kernel, template
        cfg = config.load_config(config_path)
        self.cfg = cfg
        self.prompts = cfg.load_prompts()
        tasks = cli.build_tasks(cfg)
        self.by_question = {}
        self.symbols = {}
        for task in tasks:
            self.by_question.setdefault(f"{task.context}\n\n{task.question}", task)
            for nl, sym in task.nl_pairing.items():
                if self.symbols.setdefault(nl, sym) != sym:
                    raise SystemExit(f"stub: NL sentence maps to two symbols: {nl!r}")
        self.few_shot = self.prompts.get("few_shot", "")
        self.kinds = [
            (self.prompts[name] + "\n\n", name)
            for name in ("generation", "translation", "precision", "feasibility")
        ]

    def reply(self, prompt: str, n: int) -> list[str]:
        for prefix, kind in self.kinds:
            if prompt.startswith(prefix):
                rest = prompt[len(prefix):]
                break
        else:
            raise ValueError("prompt starts with no known asset")
        if kind == "generation":
            return self._generate(rest, n)
        step = self._step(rest[rest.index("<QUERY>"):])
        symbolic = self._translate(step)
        if kind == "translation":
            if isinstance(symbolic, str):
                return [f"UNTRANSLATABLE: {symbolic}"]
            facts, rule = symbolic
            return ["".join(f"fact {f.atom}.\n" for f in facts) + f"rule {rule}\n"]
        executed = not isinstance(symbolic, str) and self.kernel.verify_step(*symbolic).executed
        return ["YES" if executed else "NO"]

    def _step(self, text: str):
        return self.template.parse_response(text).steps[0]

    def _translate(self, step):
        """(facts, rule) from the NL pairings, or the reason there is none."""
        facts = []
        for nl in step.facts:
            sym = self.symbols.get(nl)
            if not isinstance(sym, self.kernel.Fact):
                return f"no symbolic form for {nl!r}"
            facts.append(sym)
        rule = self.symbols.get(step.rule)
        if not isinstance(rule, self.kernel.Rule):
            return f"no rule for {step.rule!r}"
        return tuple(facts), rule

    def _generate(self, rest: str, n: int) -> list[str]:
        if self.few_shot:
            rest = rest[len(self.few_shot) + 2:]
        cut = rest.find("\n\n<QUERY>")
        question = rest if cut < 0 else rest[:cut]
        prior = () if cut < 0 else self.template.parse_response(rest[cut + 2:]).steps
        task = self.by_question[question]
        ctx = self.gateway.GenerationContext(
            question=question,
            prior_steps=prior,
            few_shot_asset=self.few_shot,
            seed=self.cfg.beam.seed,
        )
        backend = self.gateway.ScriptedNoisyBackend(task, self.cfg.corruption)
        return [c.raw_text for c in backend.generate_candidates(ctx, n)]


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, replier: Replier):
        super().__init__(("127.0.0.1", 0), Handler)
        self.replier = replier
        self.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self.lock = threading.Lock()
        self.stats = {"requests": 0, "body_bytes": 0, "service_s": 0.0, "errors": 0}

    def process_request(self, request, client_address):
        self.slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            stats = dict(self.server.stats)
        self._send(200, stats)

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        start = time.perf_counter()
        try:
            payload = json.loads(body)
            prompt = payload["messages"][-1]["content"]
            contents = server.replier.reply(prompt, int(payload.get("n", 1)))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            with server.lock:
                server.stats["errors"] += 1
            self._send(400, {"error": f"{type(exc).__name__}: {exc}"})
            return
        time.sleep(DELAY_S)
        self._send(
            200,
            {"choices": [
                {"index": i, "message": {"role": "assistant", "content": c}}
                for i, c in enumerate(contents)
            ]},
        )
        elapsed = time.perf_counter() - start
        with server.lock:
            server.stats["requests"] += 1
            server.stats["body_bytes"] += len(body)
            server.stats["service_s"] += elapsed


def main(argv) -> int:
    sys.path.insert(0, argv[0])
    server = StubServer(Replier(argv[1]))
    print(f"READY {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
