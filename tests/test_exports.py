"""Package exports: every name a `marl_lab` package lists in `__all__`
resolves, so a removed function cannot linger as a stale export."""

import importlib
import pkgutil

import pytest

import marl_lab

PACKAGES = sorted(name for _, name, is_pkg in
                  pkgutil.walk_packages(marl_lab.__path__, "marl_lab.") if is_pkg)


def test_every_subpackage_is_found():
    assert PACKAGES == ["marl_lab.agents", "marl_lab.cli", "marl_lab.eicm", "marl_lab.envs",
                        "marl_lab.nn", "marl_lab.shaping", "marl_lab.training"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
