"""Experiment resolution and execution: spec file -> run directories, laid
out as `rundir` describes."""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass, field

from ..agents import NetSizes
from ..envs import BUILTIN_MAPS, ConfigError, EnvConfig
from ..shaping import ShapingConfig
from ..training import Trainer, TrainerConfig
from .rundir import RunDirectory
from .specfile import SpecError, parse_spec_file, write_spec_text


@dataclass
class EvalConfig:
    interval: int = 0       # evaluate after every interval-th update; 0 never
    episodes: int = 5
    greedy: bool = False

    def __post_init__(self):
        if self.interval < 0:
            raise ConfigError("interval must not be negative", "interval")
        if self.episodes < 1:
            raise ConfigError("episodes must be at least 1", "episodes")


@dataclass
class CheckpointConfig:
    interval: int = 0       # save after every interval-th update; 0 only at the end

    def __post_init__(self):
        if self.interval < 0:
            raise ConfigError("interval must not be negative", "interval")


@dataclass(kw_only=True)
class ExperimentSpec:
    """Everything a spec file can say, in snapshot order. Scalar fields are
    the top-level keys, required when they have no default; dataclass fields
    are the sections, and their `required` metadata names required keys.
    Each field's type hint is the type its key takes in a file."""
    name: str
    seeds: list[int]
    output_dir: str = "runs"
    summary_window_steps: int = 2000
    audit_shaping: bool = False
    env: EnvConfig = field(metadata={"required": ("kind",)})
    method: ShapingConfig = field(metadata={"required": ("mode",)})
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    net: NetSizes = field(default_factory=NetSizes)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be a nonempty list", "seeds")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must not be negative", "seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must not repeat: each seed is one run directory",
                              "seeds")
        if self.summary_window_steps < 1:
            raise ConfigError("summary_window_steps must be at least 1",
                              "summary_window_steps")
        if self.method.mode != "baseline" and self.env.num_agents < 2:
            # inequity aversion averages over each agent's N-1 fellows
            raise ConfigError(f"mode {self.method.mode!r} needs at least two agents, "
                              f"got [env] num_agents = {self.env.num_agents}",
                              "method.mode", "env.num_agents")

    def snapshot(self, seed):
        """Text of this spec, fully resolved and narrowed to one seed."""
        doc = {section: {key: getattr(getattr(self, section) if section else self, key)
                         for key in hints}
               for section, hints in _KEYS.items()}
        doc[None]["seeds"] = [seed]
        return write_spec_text(doc)


_SET_BY_RUN = ("seed",)      # filled in by the run, never by the file

_FIELDS = dataclasses.fields(ExperimentSpec)
_SECTIONS = {name: cls for name, cls in typing.get_type_hints(ExperimentSpec).items()
             if dataclasses.is_dataclass(cls)}


def _settable(cls):
    """{key: type hint} of the keys a file may set in one section."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if f.name not in _SET_BY_RUN and f.name not in _SECTIONS}


# Built once, at import: evaluating type hints costs more than a whole resolve.
_KEYS = {None: _settable(ExperimentSpec)}
_KEYS.update((name, _settable(cls)) for name, cls in _SECTIONS.items())
_REQUIRED = {None: [f.name for f in _FIELDS
                    if f.name in _KEYS[None] and f.default is dataclasses.MISSING]}
_REQUIRED.update((f.name, f.metadata.get("required", ())) for f in _FIELDS
                 if f.name in _SECTIONS)


def _fits(value, hint):
    """Whether a parsed value has a field's type: a list[int] holds ints, an
    int fits a float, None fits only an optional, and a bool is no number."""
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(x, *typing.get_args(hint))
                                               for x in value)
    kinds = typing.get_args(hint) or (hint,)        # float | None: (float, NoneType)
    if isinstance(value, bool):
        return bool in kinds
    return isinstance(value, kinds) or (float in kinds and isinstance(value, int))


def _check(doc, path):
    """Reject unknown sections at their header line, unknown keys and values
    of the wrong type or not finite at their own line, then missing required
    keys at their section's header line, before any config is built."""
    for section, body in doc.items():
        if section not in _KEYS:
            raise SpecError(path, body.line, f"unknown section [{section}]")
        hints = _KEYS[section]
        for key, (value, lineno) in body.items():
            if key not in hints:
                raise SpecError(path, lineno,
                                f"unknown key {key!r} in section [{section or 'top'}]")
            hint = hints[key]
            if not _fits(value, hint):
                raise SpecError(path, lineno, f"key {key!r} expects "
                                f"{hint.__name__ if isinstance(hint, type) else hint}, "
                                f"got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise SpecError(path, lineno, f"key {key!r} must be finite, got {value!r}")
    for section, required in _REQUIRED.items():
        for key in required:
            if key not in doc.get(section, {}):
                line = doc[section].line if section in doc else 1
                raise SpecError(path, line, f"missing required key {key!r} in section "
                                            f"[{section or 'top'}]")


def _build(cls, section, doc, path, **extra):
    """Instantiate a config dataclass from a spec section. Its ConfigError
    becomes a SpecError at the line of the first blamed key in the file; a
    blamed "other.key" is looked up in section [other]."""
    body = doc.get(section, {})
    try:
        return cls(**{key: value for key, (value, _) in body.items()}, **extra)
    except ConfigError as exc:
        line, where = 1, section
        for blamed in exc.keys:
            other, _, key = blamed.rpartition(".")
            if key in doc.get(other or section, {}):
                line, where = doc[other or section][key][1], other or section
                break
        prefix = f"[{where}] " if where else ""
        raise SpecError(path, line, f"{prefix}{exc}") from exc


def resolve_spec(path):
    """The spec of a file. A relative `[env] map` path is read from the spec
    file's directory, and the snapshot records it as an absolute path."""
    doc = parse_spec_file(path)
    _check(doc, str(path))
    env = doc.get("env", {})
    if "map" in env and env["map"][0] not in BUILTIN_MAPS:
        rel, line = env["map"]
        env["map"] = (os.path.join(os.path.dirname(os.path.abspath(path)), rel), line)
    sections = {name: _build(cls, name, doc, path) for name, cls in _SECTIONS.items()}
    return _build(ExperimentSpec, None, doc, path, **sections)


def run_single_seed(spec: ExperimentSpec, seed, force=False):
    """Train one seed into its run directory; returns (run_dir, summary)."""
    run_dir = RunDirectory(spec, seed)
    run_dir.create(force)
    try:
        trainer = Trainer(dataclasses.replace(spec.env, seed=seed), spec.method,
                          dataclasses.replace(spec.trainer, seed=seed), sizes=spec.net)
        for _ in range(trainer.cfg.updates):
            run_dir.record(*trainer.one_update(), trainer)
        return run_dir.path, run_dir.finish(trainer)
    except BaseException:   # an interrupted run is marked too, then re-raised
        run_dir.fail()
        raise


def run_experiment(spec_path, force=False, output_dir=None):
    """Execute every seed of a spec; returns [(run_dir, summary), ...]. A seed
    whose directory already holds a run raises FileExistsError before any
    seed trains."""
    spec = resolve_spec(spec_path)
    if output_dir is not None:
        spec.output_dir = output_dir
    for seed in spec.seeds:
        RunDirectory(spec, seed).check(force)
    return [run_single_seed(spec, seed, force=force) for seed in spec.seeds]
