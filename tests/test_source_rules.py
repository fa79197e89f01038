"""Rules over the library's source text, checked with `ast`, and over its
command line.

Each agent's optimizer holds its parameters as one flat vector, and every
parameter Tensor's `.data` is a view into it. Assigning a new array to a
`.data` attribute silently detaches that parameter: the layer then reads an
array the optimizer never steps, and the checkpoint saves it. So only the two
places that bind `.data` by design may assign it; everyone else writes into
the array (`tensor.data[...] = values`).

A run's settings come only from its spec, which the run directory's
snapshot records. So the library reads no environment variable, except where
it holds BLAS at one thread before numpy loads, and of the spec's keys the
flags of `marl-lab run` name only paths: a flag that overrode any other key
would write a run whose numbers its spec and seed do not define into that
spec's own directory.

What a step did is counted in one place: the env names its events, and
everyone else takes the names from `envs.EVENTS`, so no second taxonomy can
drift from the one the rewards are computed from.

The learner names no method: what an agent trains is what its optimizer
holds, and the auxiliary losses run on the buffers that record their inputs.
So a method's name cannot select a loss term the optimizer then never steps."""

import argparse
import ast
import os

import marl_lab
from marl_lab.cli.experiment import _KEYS
from marl_lab.cli.main import build_parser
from marl_lab.envs import EVENTS
from marl_lab.shaping import MODES

SRC = os.path.dirname(marl_lab.__file__)

# (file relative to the package, class, method) allowed to bind `.data`.
BINDS_DATA = {
    ("nn/tensor.py", "Tensor", "__init__"),
    ("nn/optim.py", "Optimizer", "__init__"),
}

# (file relative to the package, function) allowed to use the environment.
USES_ENVIRON = {("__init__.py", "_hold_blas_at_one_thread")}
ENVIRON_NAMES = ("environ", "getenv")

# Spec keys a `run` flag may name: where the run directories go is a path.
RUN_FLAGS_MAY_SET = {"output_dir"}

# The one file that may spell an event name.
NAMES_EVENTS = "envs/env.py"

# The learner: composite loss and update schedules.
LEARNER = "training/update.py"


def _targets(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            yield target


def walk(tree):
    """Every node of tree with the names of its enclosing class and function."""
    stack = [(tree, None, None)]
    while stack:
        node, cls, fn = stack.pop()
        yield node, cls, fn
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, child.name, None))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, cls, child.name))
            else:
                stack.append((child, cls, fn))


def data_assignments(tree):
    """(line, class, function) of every assignment to a `.data` attribute."""
    return [(node.lineno, cls, fn) for node, cls, fn in walk(tree)
            for target in _targets(node)
            if isinstance(target, ast.Attribute) and target.attr == "data"]


def environ_uses(tree):
    """(line, function) of every `os.environ` or `os.getenv` reference, and
    of every import of either name from `os`."""
    return [(node.lineno, fn) for node, _, fn in walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRON_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os")
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name in ENVIRON_NAMES for alias in node.names))]


def event_names(tree):
    """Line of every string constant that is an `EVENTS` name."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in EVENTS]


def method_names(tree):
    """Line of every string constant that is a `MODES` name, and of every
    `.mode` attribute."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and node.value in MODES)
            or (isinstance(node, ast.Attribute) and node.attr == "mode")]


def source_files():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                yield os.path.relpath(path, SRC).replace(os.sep, "/"), path


def test_only_the_tensor_and_the_optimizer_bind_data():
    bad = []
    for rel, path in source_files():
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        bad += [f"{rel}:{line} ({cls}.{fn})" for line, cls, fn in data_assignments(tree)
                if (rel, cls, fn) not in BINDS_DATA]
    assert not bad, f"`.data` rebound outside {sorted(BINDS_DATA)}: {bad}"


def test_the_check_sees_every_assignment_form():
    code = ("class K:\n"
            "    def f(self, t, u):\n"
            "        t.data = 1\n"
            "        t.data, u.data = 2, 3\n"
            "        t.data += 4\n"
            "        t.data: int = 5\n"
            "        t.data[...] = 6\n"
            "        t.other = 7\n")
    lines = sorted(line for line, _, _ in data_assignments(ast.parse(code)))
    assert lines == [3, 4, 4, 5, 6]


def test_settings_come_only_from_specs_and_flags():
    bad = []
    for rel, path in source_files():
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        bad += [f"{rel}:{line} ({fn})" for line, fn in environ_uses(tree)
                if (rel, fn) not in USES_ENVIRON]
    assert not bad, f"environment read outside {sorted(USES_ENVIRON)}: {bad}"


def test_the_check_sees_every_environment_form():
    code = ("import os\n"
            "from os import path, getenv\n"
            "def f():\n"
            "    os.environ.get('A')\n"
            "    os.environ['B'] = '1'\n"
            "    os.getenv('C')\n"
            "    os.path.join('d', 'e')\n")
    assert sorted(environ_uses(ast.parse(code))) == [(2, None), (4, "f"), (5, "f"), (6, "f")]


def test_only_the_env_names_events():
    bad = []
    for rel, path in source_files():
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        bad += [f"{rel}:{line}" for line in event_names(tree) if rel != NAMES_EVENTS]
    assert not bad, f"event names spelt outside {NAMES_EVENTS}: {bad}"


def test_the_check_sees_an_event_name_anywhere():
    code = ("NAMES = ('apple_collected', 'apples')\n"
            "def f(d):\n"
            "    return d['agent_hit'], 'waste_cleaned '\n")
    assert sorted(event_names(ast.parse(code))) == [1, 3]


def test_the_learner_names_no_method():
    path = os.path.join(SRC, LEARNER)
    with open(path, encoding="utf-8") as f:
        lines = method_names(ast.parse(f.read(), filename=path))
    assert not lines, f"{LEARNER} names a method at lines {lines}"


def test_the_check_sees_a_method_name_and_a_mode_attribute():
    code = ("def f(cfg, view):\n"
            "    if cfg.mode == 'emurel':\n"
            "        return 'ia', 'baseline '\n"
            "    return view['mode']\n")
    assert sorted(method_names(ast.parse(code))) == [2, 2, 3]


def spec_keys_set_by(parser):
    """The spec keys, in any section, that an argument of parser's `run`
    subcommand stores into."""
    keys = {key for hints in _KEYS.values() for key in hints}
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted({a.dest for a in sub.choices["run"]._actions} & keys)


def test_run_flags_name_only_paths():
    bad = sorted(set(spec_keys_set_by(build_parser())) - RUN_FLAGS_MAY_SET)
    assert not bad, f"`marl-lab run` flags override spec keys {bad}"


def test_the_check_sees_a_flag_of_any_section():
    parser = argparse.ArgumentParser()
    run = parser.add_subparsers(dest="command").add_parser("run")
    run.add_argument("spec")
    run.add_argument("--force", action="store_true")
    run.add_argument("--batch-steps", type=int)
    run.add_argument("--lanes", dest="workers", type=int)
    run.add_argument("--output-dir")
    assert spec_keys_set_by(parser) == ["batch_steps", "output_dir", "workers"]
