"""Every name in an ``__all__`` resolves, in the package and in each module.

A name that is removed but still exported fails here at once, before any
``from critedge... import *`` or documentation build meets it.
"""

import importlib
import pkgutil

import pytest

import critedge

MODULES = ["critedge"] + [
    info.name for info in pkgutil.walk_packages(critedge.__path__, "critedge.")
]


def test_the_walk_sees_the_packages_and_their_modules():
    assert {"critedge.flow", "critedge.flow.construct", "critedge.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
