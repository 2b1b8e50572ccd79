"""Fixtures shared by more than one test module."""

import time

import pytest

from morn.cli import main


@pytest.fixture(scope="session")
def bench_run(tmp_path_factory):
    """One timed full benchmark through the CLI (500 episodes, 5 variants)."""
    out = tmp_path_factory.mktemp("bench_a")
    t0 = time.perf_counter()
    assert main(["bench", "--workers", "1", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    return out, elapsed
