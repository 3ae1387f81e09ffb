"""Shared fixtures for the static-analysis tests."""

import pytest

from repro.analysis.ir.project import Project
from repro.analysis.runall import REPRO_ROOT


@pytest.fixture(scope="session")
def shipped_project():
    """One IR build of the shipped tree, for tests that only read a
    default-config report of it.

    KeyFlow and KeyRecon memoise their shared fixpoint on the project,
    so every such report reads one run.  Determinism tests, which
    compare fresh runs, and ablations build their own."""
    return Project.load([REPRO_ROOT])
