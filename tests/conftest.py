"""Shared fixtures: synthetic entities, frames, and the builtin validator."""

from __future__ import annotations

import importlib
import logging
import logging.handlers
import pkgutil

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import repro
from repro.crawler import Crawler
from repro.rules import load_builtin_validator
from repro.workloads import ubuntu_host_entity


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_caches_warm():
    """Pay Hypothesis' one-time set-up costs before any test's clock runs.

    With no ``.hypothesis/`` directory, as on a fresh checkout, two
    first draws are slow, and each counts against whichever test draws
    first, failing its ``too_slow`` health check:

    * the first ``st.text()`` draw builds the table of characters its
      codec can encode (about a second on a 2-core VM);
    * the first draw after ``sys.modules`` grows scans the source of
      every new local module for literal constants.

    So import every ``repro`` module once the tests are collected, then
    draw text and integers until both have run.  A draw asks for a
    constant with probability 0.05, so 300 draws all decline with
    probability about 2e-7.  Only this warm-up is exempt from
    ``too_slow``, since taking that time is its job; every test keeps
    its own health checks.
    """
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)

    @settings(max_examples=300, database=None, deadline=None,
              phases=[Phase.generate],
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.text(), st.integers())
    def draw(_text, _number):
        pass

    draw()


@pytest.fixture(scope="session")
def crawler():
    return Crawler()


@pytest.fixture(scope="session")
def hardened_host():
    return ubuntu_host_entity(
        "hardened",
        hardening=1.0,
        with_nginx=True,
        with_mysql=True,
        with_apache=True,
        with_hadoop=True,
    )


@pytest.fixture(scope="session")
def stock_host():
    return ubuntu_host_entity(
        "stock", hardening=0.0, with_nginx=True, with_mysql=True
    )


@pytest.fixture(scope="session")
def hardened_frame(crawler, hardened_host):
    return crawler.crawl(hardened_host)


@pytest.fixture(scope="session")
def stock_frame(crawler, stock_host):
    return crawler.crawl(stock_host)


@pytest.fixture()
def validator():
    # Function-scoped: tests mutate rule enablement.
    return load_builtin_validator()


@pytest.fixture()
def kept_log_records():
    """The warnings the ``repro`` loggers emit, kept as pytest's capture
    or a buffering log shipper keeps them: whatever a record's ``args``
    hold lives as long as the record."""
    logger = logging.getLogger("repro")
    handler = logging.handlers.BufferingHandler(capacity=10_000)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    yield handler.buffer
    logger.setLevel(level)
    logger.removeHandler(handler)
