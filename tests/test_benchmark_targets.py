"""The benchmark wraps named functions and methods of the program from outside
(`perfbench/tracing.py`). A refactor that renames or drops one of them would
otherwise fail only inside a benchmark run; here it fails in the test suite."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import TARGETS, _resolve_owner  # noqa: E402


@pytest.mark.parametrize("name,module,path", TARGETS,
                         ids=[f"{m}.{p}" for _, m, p in TARGETS])
def test_benchmark_target_resolves(name, module, path):
    assert _resolve_owner(module, path) is not None, (
        f"benchmark span {name} wraps {module}.{path}, which no longer exists")
