import os
from pathlib import Path

import pytest

from sslift.cat import nerve, nerve_functor
from sslift.corpus import circle, collapse_tower, double_cover, pseudo_circle


@pytest.fixture(scope="session")
def c4():
    return pseudo_circle()


@pytest.fixture(scope="session")
def c4_nerve(c4):
    return nerve(c4)


@pytest.fixture(scope="session")
def cover():
    return double_cover()


@pytest.fixture(scope="session")
def cover_map(cover):
    m, _, _ = nerve_functor(cover)
    return m


@pytest.fixture(scope="session")
def tower_map():
    m, _, _ = nerve_functor(collapse_tower())
    return m


@pytest.fixture(scope="session")
def circle_sset():
    return circle()


@pytest.fixture(scope="session")
def src_env():
    """Environment for a subprocess that imports sslift from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
