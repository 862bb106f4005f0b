"""Combinatorial sweep scale-out: incremental derivation, first-worst.

Two mechanisms let ``ContingencySweep`` take on the k=2/k=3 failure
spaces, and each carries a byte-identity obligation this suite pins:

* **Incremental lattice derivation** — a k-failure snapshot derived from
  its (k−1)-failure parent must be content-identical to the from-baseline
  scan (and to full re-simulation), at every k.  A stale ``under_failure``
  memo or an unsound changed-router criterion shows up here first.
* **Prioritized first-worst search** — ``run(first_worst=True)`` is a
  search *order*, not a semantics change: run to completion it must agree
  with the exhaustive sweep on every order-independent fact, and the
  ``on_contingency`` callback must see every unit and be able to stop the
  sweep early (composably with checkpoint/resume).
"""

from __future__ import annotations

import itertools

import pytest

from repro.network.simulator import Simulator, group_fec_combos
from repro.verifier import VerificationOptions, k_link_failures, single_link_failures
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.contingencies import (
    drain_sweep_scenario,
    intra_region_bundles,
    refactor_sweep_scenario,
)
from repro.workloads.traffic import generate_fecs


def report_facts(report) -> dict:
    """Everything observable about a per-contingency report."""
    return {
        "holds": report.holds,
        "total_fecs": report.total_fecs,
        "violating_fecs": report.violating_fecs,
        "branch_violation_counts": dict(report.branch_violation_counts),
        "counterexamples": [
            {
                "fec_id": ce.fec_id,
                "fec_description": ce.fec_description,
                "pre_paths": list(ce.pre_paths),
                "post_paths": list(ce.post_paths),
            }
            for ce in report.counterexamples
        ],
    }


@pytest.fixture(scope="module")
def world():
    backbone = generate_backbone(
        BackboneParams(regions=4, routers_per_group=2, parallel_links=2, prefixes_per_region=2)
    )
    fecs = generate_fecs(backbone)
    return backbone, fecs


def sweep_facts(report) -> dict:
    """Everything order- and timing-independent about a sweep report."""
    return {
        "results": [
            (
                result.contingency.contingency_id,
                result.expected_holds,
                report_facts(result.report),
                result.report.unique_checks,
            )
            for result in sorted(
                report.results, key=lambda r: r.contingency.contingency_id
            )
        ],
        "distinct_graphs": report.distinct_graphs,
        "naive_checks": report.naive_checks,
        "executed_checks": report.executed_checks,
        "cached_checks": report.cached_checks,
    }


# ----------------------------------------------------------------------
# Incremental derivation: parent-derived == from-baseline == re-simulated
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [2, 3])
def test_incremental_derivation_is_byte_identical(world, k):
    """The memo-staleness regression test: chained ``under_failure`` +
    parent-derived snapshots must match the from-baseline scan and full
    re-simulation, fingerprint for fingerprint, at k=2 and k=3."""
    backbone, fecs = world
    base = Simulator(backbone.topology, backbone.config)
    base_snapshot = base.snapshot(fecs, name="base")
    combos = group_fec_combos(fecs)
    candidates = intra_region_bundles(backbone)[:3]
    for links in itertools.combinations(candidates, k):
        # Derive the parent chain incrementally, one link at a time.
        parent: tuple[Simulator, object] | None = None
        for depth in range(1, k + 1):
            prefix = links[:depth]
            sim = base.under_failure(prefix)
            incremental = sim.derive_snapshot(
                base, base_snapshot, combos=combos, parent=parent
            )
            parent = (sim, incremental)
        from_baseline = base.under_failure(links).derive_snapshot(
            base, base_snapshot, combos=combos
        )
        resimulated = base.under_failure(links).snapshot(fecs, name="resim")
        assert parent is not None
        for fec in fecs:
            fp = parent[1].graph(fec.fec_id).fingerprint()
            assert fp == from_baseline.graph(fec.fec_id).fingerprint(), fec.fec_id
            assert fp == resimulated.graph(fec.fec_id).fingerprint(), fec.fec_id


@pytest.mark.parametrize(
    "buggy,workers",
    [(False, 1), (True, 1), (True, 2)],
    ids=["clean", "buggy", "buggy-workers2"],
)
def test_incremental_sweep_equals_legacy_sweep(world, buggy, workers):
    """The sweep-level differential: ``incremental=True`` (the default
    lattice path, serial or through the worker pool) and
    ``incremental=False`` (from-baseline derivation, serial) agree on every
    report fact, dedup accounting and execution order included."""
    backbone, _ = world
    candidates = intra_region_bundles(backbone)
    contingencies = single_link_failures(backbone.topology, candidates=candidates)
    contingencies += k_link_failures(backbone.topology, 2, candidates=candidates, limit=4)

    def run(incremental, workers=1):
        scenario = drain_sweep_scenario(backbone, num_fecs=96, buggy=buggy)
        options = VerificationOptions(granularity=scenario.granularity, workers=workers)
        sweep = scenario.sweep(
            list(contingencies), options=options, incremental=incremental
        )
        return sweep.run()

    lattice, legacy = run(True, workers), run(False)
    assert sweep_facts(lattice) == sweep_facts(legacy)
    assert [r.contingency.contingency_id for r in lattice.results] == [
        r.contingency.contingency_id for r in legacy.results
    ]


# ----------------------------------------------------------------------
# First-worst search and the per-contingency callback
# ----------------------------------------------------------------------
def test_first_worst_agrees_with_exhaustive_sweep(world):
    """Run to completion, the prioritized sweep reports the same worst
    contingency (and all order-independent facts) as the exhaustive one."""
    backbone, _ = world
    candidates = intra_region_bundles(backbone)
    contingencies = single_link_failures(backbone.topology, candidates=candidates)
    contingencies += k_link_failures(backbone.topology, 2, candidates=candidates)

    def scenario():
        return refactor_sweep_scenario(backbone, num_fecs=96, buggy=True)

    exhaustive = scenario().sweep(list(contingencies)).run()
    seen: list[tuple[int, str, bool]] = []
    prioritized = scenario().sweep(list(contingencies)).run(
        first_worst=True,
        on_contingency=lambda index, result, resumed: seen.append(
            (index, result.contingency.contingency_id, resumed)
        ),
    )
    assert prioritized.prioritized and not exhaustive.prioritized
    assert sweep_facts(prioritized) == sweep_facts(exhaustive)
    assert [w.contingency.contingency_id for w in prioritized.most_violating(3)] == [
        w.contingency.contingency_id for w in exhaustive.most_violating(3)
    ]
    # The callback saw every unit, live, in execution order.
    assert [entry[0] for entry in seen] == list(range(len(prioritized.results)))
    assert all(not entry[2] for entry in seen)
    assert [entry[1] for entry in seen] == [
        r.contingency.contingency_id for r in prioritized.results
    ]
    # The baseline+single head keeps input order; only the k>=2 tail moves.
    head = len([c for c in prioritized.results if len(c.contingency.failed_links) <= 1])
    assert all(
        len(c.contingency.failed_links) <= 1 for c in prioritized.results[:head]
    )
    position = prioritized.first_worst_after()
    assert position is not None and 1 <= position <= len(prioritized.results)


def test_callback_stops_the_sweep_early_and_resume_completes(world, tmp_path):
    """Returning True from ``on_contingency`` stops after that unit; a
    later checkpointed resume finishes the sweep with the full report."""
    backbone, _ = world
    candidates = intra_region_bundles(backbone)
    contingencies = single_link_failures(backbone.topology, candidates=candidates)
    path = tmp_path / "sweep.ckpt"

    def scenario():
        return drain_sweep_scenario(backbone, num_fecs=96, buggy=True)

    full = scenario().sweep(list(contingencies)).run()
    stopped = scenario().sweep(list(contingencies)).run(
        checkpoint=path, on_contingency=lambda index, result, resumed: index >= 1
    )
    assert len(stopped.results) == 2
    assert len(full.results) > 2
    replayed: list[bool] = []
    resumed = scenario().sweep(list(contingencies)).run(
        checkpoint=path,
        resume=True,
        on_contingency=lambda index, result, is_replay: replayed.append(is_replay),
    )
    assert sweep_facts(resumed) == sweep_facts(full)
    # The stopped prefix replays from the journal; the rest ran live.
    assert replayed[:2] == [True, True]
    assert not any(replayed[2:])


# ----------------------------------------------------------------------
# Failure-model determinism (the k_link_failures bugfix)
# ----------------------------------------------------------------------
def test_k_link_failures_dedups_before_limit(world):
    backbone, _ = world
    bundles = sorted(set(backbone.topology.link_bundles()))[:4]
    # Duplicate and reversed candidates collapse to the same bundle set.
    noisy = list(bundles) + [(b, a) for a, b in bundles] + list(bundles[:2])
    clean = k_link_failures(backbone.topology, 2, candidates=bundles)
    deduped = k_link_failures(backbone.topology, 2, candidates=noisy)
    assert [c.contingency_id for c in deduped] == [c.contingency_id for c in clean]
    assert len(deduped) == 6  # C(4, 2), no duplicate combinations
    # The limit counts *distinct* contingencies, applied after dedup.
    limited = k_link_failures(backbone.topology, 2, candidates=noisy, limit=5)
    assert [c.contingency_id for c in limited] == [
        c.contingency_id for c in clean[:5]
    ]


def test_single_link_failures_order_is_sorted_without_candidates(world):
    backbone, _ = world
    contingencies = single_link_failures(backbone.topology)
    pairs = [c.failed_links[0] for c in contingencies]
    assert pairs == sorted(pairs)
