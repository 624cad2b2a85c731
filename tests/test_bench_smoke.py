"""Timing smoke run: one 8^3 ``homogenize``, three rounds.

It reports the time through pytest-benchmark (the ``bench`` extra) and never
fails on it; without the plugin the test is skipped. Each round homogenizes
a freshly built cell, so the operator core's set-up is timed too.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from cellhom import homogenize  # noqa: E402
from cellhom.microstructures import random_two_phase_cell  # noqa: E402


def test_homogenize_8_cubed(benchmark):
    def fresh_cell():
        return (random_two_phase_cell(dims=(8, 8, 8)),), {}

    result = benchmark.pedantic(homogenize, setup=fresh_cell, rounds=3)
    assert result.CH.shape == (6, 6)
