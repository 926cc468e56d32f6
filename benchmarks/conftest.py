"""Shared fixtures for the benchmark suite.

Run with ``pytest benchmarks/ --benchmark-only``.  Each ``bench_table*``
module regenerates one table/figure of the paper; the ``bench_ablation_*``
modules quantify design choices DESIGN.md calls out.  Formatted
paper-vs-measured tables go to a temporary directory of the session;
``--bench-output benchmarks/output`` rewrites the tables kept in the
repository instead.
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-output",
        default=None,
        metavar="DIR",
        help="write the formatted benchmark tables here (default: a "
        "temporary directory, so a run leaves the checkout unchanged)",
    )


@pytest.fixture(scope="session")
def output_dir(request, tmp_path_factory):
    path = request.config.getoption("--bench-output")
    if path is None:
        return str(tmp_path_factory.mktemp("output"))
    os.makedirs(path, exist_ok=True)
    return path


def pytest_collection_modifyitems(items):
    # Benchmarks are ordered: micro-benchmarks first, tables last, so a
    # partial run still exercises the core operations.
    items.sort(key=lambda it: ("table" in it.nodeid, it.nodeid))
