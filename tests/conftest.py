import os
from pathlib import Path

import numpy as np
import pytest

from convexinfo import build_model

# pytest puts src/ on sys.path (pyproject's pythonpath); CLI subprocesses
# started by the tests must import the same package, so they get it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def simplex2():
    return build_model("simplex", n=2)


@pytest.fixture(scope="session")
def simplex3():
    return build_model("simplex", n=3)


@pytest.fixture(scope="session")
def simplex4():
    return build_model("simplex", n=4)


@pytest.fixture(scope="session")
def square():
    return build_model("regular_polygon", n=4)


@pytest.fixture(scope="session")
def pentagon():
    return build_model("regular_polygon", n=5)


@pytest.fixture(scope="session")
def quadrilateral():
    # the non-regular four-vertex model used throughout the fixtures
    return build_model("custom_polytope", vertices=[(1, 0), (-1, 0), (0, 1), (0, -2)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
