"""``tools/reach.py`` on a small package: the function inventory's keys
and line counts, and which functions a traced step reaches (functions a
module calls while it is imported included). The full reachability pass
runs in CI, not here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

REACH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"

SOURCE = '''\
import functools


def at_import():
    return 1


VALUE = at_import()


class Box:
    def method(self):
        return 2


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


def outer():
    def inner():
        return 4

    return inner()
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inventory_and_traced_reach(reach, tmp_path, monkeypatch):
    package = tmp_path / "reach_sample"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(SOURCE)
    path = str(package / "mod.py")

    inventory = reach.function_inventory(tmp_path)
    assert inventory == {
        (path, 4): ("at_import", 2),
        (path, 12): ("Box.method", 2),
        (path, 16): ("decorated", 3),  # keyed by its decorator's line
        (path, 21): ("outer", 5),  # the nested function's lines included
        (path, 22): ("outer.inner", 2),
    }

    def import_and_call_outer():
        importlib.import_module("reach_sample.mod").outer()

    monkeypatch.syspath_prepend(str(tmp_path))
    statuses = {}
    try:
        reached = reach.run_traced(
            [("import", import_and_call_outer)], statuses
        )
    finally:
        sys.modules.pop("reach_sample.mod", None)
        sys.modules.pop("reach_sample", None)
    assert statuses == {"import": 0}
    assert sorted(key for key in inventory if key in reached) == [
        (path, 4), (path, 21), (path, 22)
    ]


STUBS = '''\
import abc


class Base(abc.ABC):
    @abc.abstractmethod
    def shape(self):
        """Abstract, with a docstring only."""

    def area(self):
        """Left to subclasses."""
        raise NotImplementedError

    def volume(self):
        raise NotImplementedError("no volume")

    def refused(self):
        """Real code: it decides before it raises."""
        if self:
            raise NotImplementedError
        return 0

    def other_error(self):
        raise ValueError
'''


def test_abstract_stubs_are_set_apart(reach, tmp_path):
    package = tmp_path / "stub_sample"
    package.mkdir()
    (package / "mod.py").write_text(STUBS)
    path = str(package / "mod.py")

    inventory = reach.function_inventory(tmp_path)
    stubs = reach.abstract_stubs(tmp_path)
    assert sorted(inventory[key][0] for key in stubs) == [
        "Base.area", "Base.shape", "Base.volume"
    ]
    assert (path, 5) in stubs  # keyed by the decorator's line
    assert len(inventory) == 5
