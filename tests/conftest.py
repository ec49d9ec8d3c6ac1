"""The ``long`` marker, on the cases that take seconds or more: n = 8 and
n = 9, and the n = 6 geometric-order oracle.

A test marked ``long`` is skipped unless ``GEOPOSET_ACCEPT_LONG=1``;
``GEOPOSET_ACCEPT_LONG=1 pytest -m long`` runs exactly those tests.  This
is the one place that reads the flag.
"""

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "long: a slow case, run only with GEOPOSET_ACCEPT_LONG=1")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("GEOPOSET_ACCEPT_LONG") == "1":
        return
    skip = pytest.mark.skip(reason="a long case; set GEOPOSET_ACCEPT_LONG=1")
    for item in items:
        if item.get_closest_marker("long"):
            item.add_marker(skip)
