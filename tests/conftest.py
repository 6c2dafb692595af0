"""Marks the acceptance criteria and the demo scripts as ``slow``, so
``pytest -m "not slow"`` runs the quick part of the suite."""

import pytest

SLOW_FILES = {"test_acceptance.py", "test_demos.py"}


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name in SLOW_FILES:
            item.add_marker(pytest.mark.slow)
