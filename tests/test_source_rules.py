"""Rules over the library's source text, checked with `ast`.

Each agent's optimizer holds its parameters as one flat vector, and every
parameter Tensor's `.data` is a view into it. Assigning a new array to a
`.data` attribute silently detaches that parameter: the layer then reads an
array the optimizer never steps, and the checkpoint saves it. So only the two
places that bind `.data` by design may assign it; everyone else writes into
the array (`tensor.data[...] = values`)."""

import ast
import os

import marl_lab

SRC = os.path.dirname(marl_lab.__file__)

# (file relative to the package, class, method) allowed to bind `.data`.
BINDS_DATA = {
    ("nn/tensor.py", "Tensor", "__init__"),
    ("nn/optim.py", "Optimizer", "__init__"),
}


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


def data_assignments(tree):
    """(line, class, function) of every assignment to a `.data` attribute."""
    found = []

    def visit(node, cls, fn):
        for target in _targets(node):
            if isinstance(target, ast.Attribute) and target.attr == "data":
                found.append((node.lineno, cls, fn))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                visit(child, cls, fn)

    visit(tree, None, None)
    return found


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
