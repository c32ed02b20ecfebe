"""The package's public names: each is read from its submodule on use,
and none is copied into the package."""

import importlib
from pathlib import Path

import pytest

import inghamsum as ig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_public_name_is_its_defining_modules_object():
    assert ig.__all__ == sorted(ig._EXPORTS)
    for name in ig.__all__:
        module = importlib.import_module(f"inghamsum.{ig._EXPORTS[name]}")
        value = getattr(ig, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__qualname__"):
            assert value.__module__ == module.__name__, name


def test_public_names_are_not_cached_in_the_package():
    ig.build_sieve
    assert not set(ig.__all__) & set(vars(ig))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from inghamsum import *", namespace)
    assert {name: namespace[name] for name in ig.__all__} == {name: getattr(ig, name) for name in ig.__all__}


def test_dir_lists_every_name():
    listed = set(dir(ig))
    assert set(ig.__all__) <= listed
    assert "__version__" in listed


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'inghamsum' has no attribute 'no_such_name'$"):
        ig.no_such_name
    assert not hasattr(ig, "_block_sum")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from inghamsum import no_such_name", {})


def test_tracer_install_and_uninstall_leave_the_submodule_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    sieve = importlib.import_module("inghamsum.sieve")
    before = sieve.build_sieve
    tr = tracer.Tracer()
    tr.install(ig)
    try:
        assert ig.build_sieve is sieve.build_sieve is not before
    finally:
        tr.uninstall()
    assert ig.build_sieve is ig.sieve.build_sieve is before
