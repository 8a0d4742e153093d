"""Fixtures for the benchmark's own tests: the package under src/ of this checkout."""

from pathlib import Path

import pytest

import bench


@pytest.fixture(scope="session")
def program():
    return bench.load_program(Path(__file__).resolve().parent.parent)
