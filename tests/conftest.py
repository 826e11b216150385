from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from nbdisc.data import load_csv

DATA_DIR = Path(__file__).parent / "data"

# Property tests draw the same examples on every run and have no per-example
# time limit, so a slow shared machine cannot turn them flaky.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def iris_path() -> Path:
    return DATA_DIR / "iris.csv"


@pytest.fixture(scope="session")
def iris(iris_path):
    return load_csv(iris_path)


@pytest.fixture(scope="session")
def toy_mixed_path() -> Path:
    return DATA_DIR / "toy_mixed.csv"


@pytest.fixture(scope="session")
def toy_mixed(toy_mixed_path):
    return load_csv(toy_mixed_path)
