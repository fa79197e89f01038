"""Experiment resolution and execution: spec file -> run directories, laid
out as `rundir` describes."""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field

from ..agents import NetSizes
from ..envs import ConfigError, EnvConfig
from ..shaping import ShapingConfig
from ..training import Trainer, TrainerConfig
from .rundir import RunDirectory
from .specfile import SchemaField, SpecError, parse_spec_file, validate, write_spec_text


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
    are the sections, and their `required` metadata names required keys."""
    name: str
    seeds: list
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

    def snapshot(self, seed):
        """Text of this spec, fully resolved and narrowed to one seed."""
        doc = {section: {key: getattr(getattr(self, section) if section else self, key)
                         for key in keys}
               for section, keys in SPEC_SCHEMA.items()}
        doc[None]["seeds"] = [seed]
        return write_spec_text(doc)


_TYPE_TAGS = {int: ("int",), float: ("float",), str: ("str",), bool: ("bool",),
              float | None: ("float", "none"), list: ("int_list",)}

_SET_BY_RUN = ("seed", "map_rows")      # filled in by the run, never by the file

_SECTIONS = {name: cls for name, cls in typing.get_type_hints(ExperimentSpec).items()
             if dataclasses.is_dataclass(cls)}


def _schema(cls, required):
    """The keys a file may set in one section, with their type tags."""
    hints = typing.get_type_hints(cls)
    return {f.name: SchemaField(_TYPE_TAGS[hints[f.name]], required=f.name in required)
            for f in dataclasses.fields(cls)
            if f.name not in _SET_BY_RUN and f.name not in _SECTIONS}


SPEC_SCHEMA = {None: _schema(ExperimentSpec, required=[
    f.name for f in dataclasses.fields(ExperimentSpec)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING])}
SPEC_SCHEMA.update((f.name, _schema(_SECTIONS[f.name], f.metadata.get("required", ())))
                   for f in dataclasses.fields(ExperimentSpec) if f.name in _SECTIONS)


def _build(cls, section, doc, path, **extra):
    """Instantiate a config dataclass from a spec section. Its ConfigError
    becomes a SpecError at the line of the first blamed key in the file."""
    body = doc.get(section, {})
    try:
        return cls(**{key: value for key, (value, _) in body.items()}, **extra)
    except ConfigError as exc:
        line = next((body[key][1] for key in exc.keys if key in body), 1)
        where = f"[{section}] " if section else ""
        raise SpecError(path, line, f"{where}{exc}") from exc


def resolve_spec(path):
    doc = parse_spec_file(path)
    validate(doc, SPEC_SCHEMA, path=str(path))
    sections = {name: _build(cls, name, doc, path) for name, cls in _SECTIONS.items()}
    return _build(ExperimentSpec, None, doc, path, **sections)


def run_single_seed(spec: ExperimentSpec, seed, force=False):
    """Train one seed into its run directory; returns (run_dir, summary)."""
    run_dir = RunDirectory(spec, seed)
    run_dir.create(force)
    try:
        trainer = Trainer(dataclasses.replace(spec.env, seed=seed), spec.method,
                          dataclasses.replace(spec.trainer, seed=seed), sizes=spec.net)
        trainer.run(on_update=run_dir.record)
        return run_dir.path, run_dir.finish(trainer)
    except BaseException:   # an interrupted run is marked too, then re-raised
        run_dir.fail()
        raise


def run_experiment(spec_path, force=False, output_dir=None, workers=None):
    """Execute every seed of a spec; returns [(run_dir, summary), ...].
    `workers` overrides [trainer] workers, as `marl-lab run --workers` does;
    a value the trainer rejects raises ConfigError, and a seed whose directory
    already holds a run raises FileExistsError, before any seed trains."""
    spec = resolve_spec(spec_path)
    if output_dir is not None:
        spec.output_dir = output_dir
    if workers is not None:
        try:
            spec.trainer = dataclasses.replace(spec.trainer, workers=workers)
        except ConfigError as exc:
            raise ConfigError(f"--workers {workers}: {exc}", "workers") from None
    for seed in spec.seeds:
        RunDirectory(spec, seed).check(force)
    return [run_single_seed(spec, seed, force=force) for seed in spec.seeds]
