"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.automata import Alphabet
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.figure1 import build_scenario
from repro.workloads.traffic import generate_fecs

SYMBOLS = ["x1", "A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "D1", "D2", "y1", "x2", "y2"]


@pytest.fixture()
def alphabet() -> Alphabet:
    """A small alphabet covering the Figure 1 location names."""
    return Alphabet(SYMBOLS)


@pytest.fixture(scope="session")
def figure1():
    """The Figure 1 case-study scenario (session-scoped; it is immutable)."""
    return build_scenario()


@pytest.fixture(scope="session")
def small_backbone():
    """A small synthetic backbone with simulated forwarding state."""
    backbone = generate_backbone(
        BackboneParams(regions=3, routers_per_group=2, parallel_links=2, prefixes_per_region=2)
    )
    fecs = generate_fecs(backbone, max_classes=12)
    snapshot = backbone.simulator().snapshot(fecs, name="pre")
    return backbone, fecs, snapshot


@pytest.fixture(scope="session")
def distinct_graph_world():
    """A backbone and 48 FECs whose forwarding graphs are pairwise distinct.

    Every FEC is its own dedup group under default options, so a worker
    pool gets one work item per FEC (48 items, 6 per batch at 2 workers)
    to crash, bisect and resubmit, and a fault keyed on any FEC targets a
    check that actually runs.
    """
    backbone = generate_backbone(
        BackboneParams(regions=6, routers_per_group=2, parallel_links=1, prefixes_per_region=2)
    )
    fecs = generate_fecs(backbone)[:48]
    snapshot = backbone.simulator().snapshot(fecs, name="distinct")
    assert snapshot.distinct_graph_count() == len(fecs) == 48
    return backbone, fecs
