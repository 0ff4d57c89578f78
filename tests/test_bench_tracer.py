"""The benchmark's tracer against the package it wraps.

bench/layers.py wraps, from outside, the functions and constructors its
LAYERS table names, and rebinds each wrapper in every sslift module that
holds the original.  A name the package no longer has would crash a
traced run, and an attribute left wrapped would slow every later call.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


def sslift_namespaces():
    """Every sslift module's namespace, and every class dict in them."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "sslift" or name.startswith("sslift."):
            out[name] = dict(vars(mod))
            for key, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}:{key}"] = dict(value.__dict__)
    return out


def test_every_layer_resolves_and_uninstall_restores_it(layers):
    import sslift.cli  # noqa: F401  (install loads every submodule)

    for module_name, attr, _, _ in layers.LAYERS:
        owner = sys.modules[f"sslift.{module_name}"]
        cls_name, _, meth = attr.partition(".")
        assert hasattr(getattr(owner, cls_name), meth or "__init__"), attr
    before = sslift_namespaces()
    tracer = layers.Tracer()
    tracer.install()
    try:
        wrapped = {
            (name, key)
            for name, space in sslift_namespaces().items()
            for key, value in space.items()
            if before[name].get(key) is not value
        }
        for module_name, attr, kind, _ in layers.LAYERS:
            if kind in ("init", "method"):
                cls_name, _, meth = attr.partition(".")
                key = (f"sslift.{module_name}:{cls_name}", meth or "__init__")
            else:
                key = (f"sslift.{module_name}", attr)
            assert key in wrapped, key
    finally:
        tracer.uninstall()
    after = sslift_namespaces()
    assert after.keys() == before.keys()
    for name, space in before.items():
        assert after[name].keys() == space.keys(), name
        changed = [k for k, v in space.items() if after[name][k] is not v]
        assert changed == [], name
