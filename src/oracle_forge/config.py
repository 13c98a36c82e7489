"""Pipeline configuration: YAML file with env-var interpolation for secrets.

Only string values of the form ``${VAR_NAME}`` are interpolated, so secrets
(API keys) stay out of config files on disk.  Everything else in the file is
literal.  ``load_config`` checks a config in one pass, as it builds it; the
prompt assets are read, and checked, by ``PipelineConfig.load_prompts``.  See
README for the full key reference.
"""

from __future__ import annotations

import math
import os
import re
import typing
import urllib.parse
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import yaml

from .beam import BeamConfig
from .corpus import MAX_RULEBASE_FACTS, MAX_RULEBASE_RULES, CorruptionModel
from .gateway import HttpSpec


class ConfigError(ValueError):
    pass


_ENV_RE = re.compile(r"^\$\{(?P<name>[A-Za-z_][A-Za-z0-9_]*)\}$")

PROMPT_ASSETS = ("generation.txt", "translation.txt", "precision.txt", "feasibility.txt")

BACKENDS = ("scripted-oracle", "scripted-noisy", "http")


def _interpolate(value, depth: int = 2):
    """``value`` with each ``${NAME}`` string in it, down to ``depth`` mappings
    deep (the top level and the sections), replaced by that variable.  A config
    holds nothing deeper, so nothing deeper is read: a value that holds itself
    is left to the type check."""
    if isinstance(value, str):
        m = _ENV_RE.match(value)
        if m:
            name = m.group("name")
            resolved = os.environ.get(name)
            if resolved is None:
                raise ConfigError(f"environment variable {name} is not set")
            return resolved
        return value
    if isinstance(value, dict) and depth:
        return {k: _interpolate(v, depth - 1) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class CorpusSpec:
    kind: str = "chain"          # chain | rulebase | file
    count: int = 20
    hops: int = 3
    distractors: int = 2
    n_facts: int = 6
    n_rules: int = 5
    negation: bool = False
    path: str | None = None

    def __post_init__(self):
        sizes = {
            "chain": {"hops": None, "distractors": None},
            "rulebase": {"n_facts": MAX_RULEBASE_FACTS, "n_rules": MAX_RULEBASE_RULES},
        }
        for name, most in sizes.get(self.kind, {}).items():
            value = getattr(self, name)
            if value < 1 or (most is not None and value > most):
                span = "at least 1" if most is None else f"in 1..{most}"
                raise ValueError(f"corpus.{name} must be {span}, got {value!r}")


@dataclass(frozen=True)
class PipelineConfig:
    backend: str = "scripted-oracle"
    seed: int = 0
    out_dir: str = "out"
    workers: int = 0             # 0 = available cores
    prompts_dir: str | None = None
    beam: BeamConfig = field(default_factory=BeamConfig)
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    corruption: CorruptionModel = field(default_factory=CorruptionModel)
    http: HttpSpec = field(default_factory=HttpSpec)
    max_sft: int = 12000
    max_dpo: int = 2000

    def hashable_dict(self) -> dict:
        """The config as a dict, its API key redacted, minus keys that do not
        affect generated data (output location, parallelism), so replays to
        different directories hash identically."""
        d = asdict(self)
        if d["http"].get("api_key"):
            d["http"]["api_key"] = "<redacted>"
        d.pop("out_dir", None)
        d.pop("workers", None)
        return d

    def load_prompts(self) -> dict[str, str]:
        """The assets in ``prompts_dir`` by name.  One not readable as UTF-8 is
        a ConfigError, and so is a missing one that the http backend sends."""
        if not self.prompts_dir:
            return {}
        prompts = {}
        for name in PROMPT_ASSETS + ("few_shot.txt",):
            p = os.path.join(self.prompts_dir, name)
            try:
                with open(p, encoding="utf-8") as fh:
                    prompts[name.removesuffix(".txt")] = fh.read()
            except FileNotFoundError:
                if self.backend == "http" and name in PROMPT_ASSETS:
                    raise ConfigError(f"missing prompt asset: {name}") from None
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read prompt asset {p}: {exc}") from exc
        return prompts


_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string", type(None): "null"
}


def _fits(value, tp) -> bool:
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def _check(data: dict, cls, where: str = "", exclude: frozenset = frozenset()) -> None:
    """Check ``data`` against the fields of ``cls``: every key names a field,
    every value fits the field's annotated type (a bool is no integer, an
    integer is a number), and every number is finite and, but for a seed,
    non-negative.  Sections (dataclass fields) are checked on their own."""
    unknown = set(data) - ({f.name for f in fields(cls)} - exclude)
    if unknown:
        label = f"{where} key" if where else "top-level key"
        raise ConfigError(f"unknown {label}: {', '.join(sorted(map(str, unknown)))}")
    hints = typing.get_type_hints(cls)
    for name, value in data.items():
        if is_dataclass(hints[name]):
            continue
        label = f"{where}.{name}" if where else name
        options = typing.get_args(hints[name]) or (hints[name],)
        if not any(_fits(value, tp) for tp in options):
            expected = " or ".join(_TYPE_NAMES[tp] for tp in options)
            raise ConfigError(f"{label} must be {expected}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{label} must be a finite number, got {value!r}")
        if name != "seed" and _fits(value, float) and value < 0:
            raise ConfigError(f"{label} must be non-negative, got {value!r}")


_SECTIONS = {
    "beam": BeamConfig, "corpus": CorpusSpec, "corruption": CorruptionModel, "http": HttpSpec
}
# few_shot_asset comes from the prompts directory and a section's seed from the
# top-level seed, never from a section of the file.
_NOT_IN_SECTIONS = frozenset({"few_shot_asset", "seed"})
# The corpus keys that each kind reads besides kind; it would ignore any other.
_CORPUS_KEYS = {
    "chain": {"count", "hops", "distractors"},
    "rulebase": {"count", "n_facts", "n_rules", "negation"},
    "file": {"path"},
}


def _build(data: dict) -> PipelineConfig:
    _check(data, PipelineConfig)
    # A section written with no value (``beam:``) reads as empty.
    sections = {name: {} if data.get(name) is None else data[name] for name in _SECTIONS}
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a mapping")
        _check(section, _SECTIONS[name], name, exclude=_NOT_IN_SECTIONS)
    kind = sections["corpus"].get("kind", CorpusSpec.kind)  # a string: its type is checked
    if kind not in _CORPUS_KEYS:
        raise ConfigError(f"unknown corpus kind: {kind}")
    unread = {f.name for f in fields(CorpusSpec)} - {"kind"} - _CORPUS_KEYS[kind]
    _check(sections["corpus"], CorpusSpec, f"{kind} corpus", exclude=unread)
    seed = data.get("seed", PipelineConfig.seed)
    try:
        cfg = PipelineConfig(
            **{key: data[key] for key in data.keys() - set(_SECTIONS)},
            beam=BeamConfig(seed=seed, **sections["beam"]),
            corruption=CorruptionModel(seed=seed, **sections["corruption"]),
            http=HttpSpec(**sections["http"]),
            corpus=CorpusSpec(**sections["corpus"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.backend not in BACKENDS:
        raise ConfigError(f"unknown backend: {cfg.backend}")
    if kind == "file":
        if not cfg.corpus.path or not os.path.exists(cfg.corpus.path):
            raise ConfigError(f"corpus file not found: {cfg.corpus.path}")
    if cfg.prompts_dir is not None and not os.path.isdir(cfg.prompts_dir):
        raise ConfigError(f"prompts directory not found: {cfg.prompts_dir}")
    if cfg.backend == "http":
        if not cfg.http.endpoint or not cfg.http.model:
            raise ConfigError("http backend requires endpoint and model")
        try:
            url = urllib.parse.urlsplit(cfg.http.endpoint)
            usable = url.scheme in ("http", "https") and url.hostname
        except ValueError:  # a bracketed host that is no IPv6 address
            usable = False
        if not usable:
            raise ConfigError(
                f"http.endpoint must be an http:// or https:// URL with a host, "
                f"got {cfg.http.endpoint!r}"
            )
        # A request cannot carry these.  urlsplit drops tabs and newlines from
        # its parts, so spaces and control characters are sought in the whole.
        if re.search(r"[\x00-\x20\x7f-\x9f]", cfg.http.endpoint) or re.search(
            r"[^\x00-\x7f]", url.path + url.query
        ):
            raise ConfigError(
                "http.endpoint must hold no space or control character, and no "
                f"non-ASCII character in its path or query, got {cfg.http.endpoint!r}"
            )
        # A header cannot carry these; the messages leave the key out.
        if re.search(r"[\x00-\x1f\x7f-\x9f]", cfg.http.api_key or ""):
            raise ConfigError("http.api_key holds a control character")
        if re.search(r"[^\x00-\xff]", cfg.http.api_key or ""):
            raise ConfigError("http.api_key holds a character outside Latin-1")
        if not cfg.prompts_dir:
            raise ConfigError("http backend requires prompts_dir")
    return cfg


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a value its tag cannot hold, such as
    ``!!int abc`` or the timestamp ``2001-13-45``, is a YAML error at its place,
    not the bare ``ValueError``, ``KeyError`` or ``AttributeError`` that PyYAML
    lets out."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, LookupError, AttributeError) as exc:
            tag = node.tag.rsplit(":", 1)[-1]
            # PyYAML's KeyError for ``!!bool maybe`` holds only the value, and
            # its AttributeError for ``!!timestamp abc`` only a failed match.
            reason = exc if isinstance(exc, ValueError) else "not a known value"
            raise yaml.constructor.ConstructorError(
                None, None, f"invalid {tag} {node.value!r}: {reason}", node.start_mark
            ) from exc


def _yaml_error(path: str, exc: yaml.YAMLError) -> str:
    """PyYAML's error on one line: the file, the place in it, and the problem."""
    if isinstance(exc, yaml.reader.ReaderError):
        if exc.encoding == "unicode":  # decoded, but not printable
            what = f"character {exc.position}: unacceptable character"
        else:
            what = f"byte {exc.position}: '{exc.encoding}' codec can't decode"
        return f"{path}, {what} {exc.character:#04x}: {exc.reason}"
    mark = exc.problem_mark  # loading raises no other error without a mark
    what = ", ".join(filter(None, (exc.context, exc.problem)))
    return f"{path}, line {mark.line + 1}, col {mark.column + 1}: {what}"


def load_config(path: str | None = None, **overrides) -> PipelineConfig:
    """The config of the YAML file at ``path``, or the defaults when there is
    none, with each override in place of the top-level key it names; built
    and checked in one pass, so a file value that an override replaces is
    never checked.  It does not open the prompt assets: an http config whose
    assets are missing is refused by ``load_prompts``."""
    data = {}
    if path is not None:
        try:
            with open(path, "rb") as fh:  # PyYAML reports undecodable text
                data = yaml.load(fh, _Loader) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {_yaml_error(path, exc)}") from exc
        except RecursionError as exc:  # PyYAML composes nested nodes recursively
            raise ConfigError(f"invalid YAML: {path}: nested too deeply") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
    return _build({**_interpolate(data), **overrides})
