"""Rolling-maintenance change streams: the workload of verification sessions.

The paper's operators do not validate isolated changes — they validate
*sequences*: a maintenance window rolls drains and restores across regions
night after night, a prefix migration lands in waves, a flaky link flaps a
router in and out of service.  Between consecutive epochs the network barely
moves, and across epochs whole states *recur* (every restore returns to the
pre-drain state), which is exactly the regime
:class:`~repro.verifier.session.VerificationSession` exploits.

This module generates those streams synthetically, in the style of the
60-scenario change dataset (:mod:`repro.workloads.changes`): every stream is
a pure function of its seed, every epoch carries its own spec and an
asserted ``expect_holds``, and buggy variants (a drain that leaves traffic
behind, a migration wave that keeps forwarding) are available for tests and
baselines.  Three families are provided:

* :func:`rolling_drain_stream` — drain/restore cycles over a rotation of
  regions: all traffic through a region's border routers detours onto a
  partner region's borders, then returns.  Restores land back on previously
  seen states, so a session re-verifies nothing from the second cycle on.
* :func:`prefix_migration_stream` — a region's customer prefixes are
  decommissioned in waves under prefix-guarded policies (the Section 7
  example, stretched over time).
* :func:`flapping_link_stream` — one border router flaps: traffic moves to
  its group peer and back, epoch after epoch — the pathological best case
  for cross-epoch caching and the realistic worst case for cold re-runs.

``benchmarks/bench_stream_throughput.py`` drives the rolling-drain family
through a session and through cold per-epoch ``verify_change`` calls and
gates the incremental speedup in CI.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.rela import (
    DstPrefixWithin,
    PSpec,
    RelaSpec,
    SpecPolicy,
    any_hops,
    any_of,
    atomic,
    drop,
    locs,
    nochange,
    seq,
)
from repro.rela.locations import Granularity
from repro.snapshots.forwarding_graph import drop_graph as make_drop_graph
from repro.snapshots.snapshot import Snapshot
from repro.workloads.backbone import Backbone, BackboneParams, generate_backbone
from repro.workloads.changes import _shift_snapshot
from repro.workloads.scale import generate_scale_snapshot


@dataclass(slots=True)
class StreamEpoch:
    """One epoch of a change stream: a (pre, post, spec) triple plus intent."""

    epoch_id: str
    #: Epoch archetype: ``drain`` / ``restore`` / ``migration-wave`` /
    #: ``flap-down`` / ``flap-up``.
    kind: str
    description: str
    #: Network state before this epoch's change (the previous epoch's
    #: ``post``, or the stream's initial snapshot for the first epoch).
    pre: Snapshot
    #: Network state after this epoch's change.
    post: Snapshot
    #: Specification governing this epoch.  Recurring epochs (the second
    #: drain of the same region, every flap) carry the *same spec instance*,
    #: so sessions share compiled forms and cached verdicts across them.
    spec: RelaSpec | SpecPolicy
    #: Whether the epoch's implementation complies with its spec.
    expect_holds: bool = True


@dataclass(slots=True)
class ChangeStream:
    """A seeded sequence of epochs over one network, session-ready.

    ``epochs[i].pre is epochs[i-1].post`` for every ``i`` (and
    ``epochs[0].pre is initial``): the stream is a connected walk through
    snapshot states sharing one copy-on-write graph store, so both a
    verification session and independent per-epoch ``verify_change`` calls
    consume it directly.
    """

    stream_id: str
    initial: Snapshot
    epochs: list[StreamEpoch] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self) -> Iterator[StreamEpoch]:
        return iter(self.epochs)

    @property
    def expect_holds(self) -> bool:
        """Whether every epoch is expected to comply."""
        return all(epoch.expect_holds for epoch in self.epochs)


@dataclass(slots=True)
class StreamProfile:
    """Knobs of the benchmark stream (backbone shape + stream shape)."""

    #: Total flow equivalence classes in the initial snapshot.
    num_fecs: int = 5000
    #: Geographic regions of the underlying backbone.
    regions: int = 10
    #: Routers per group (agg/core/border) in each region.
    routers_per_group: int = 2
    #: Parallel link members between connected routers.
    parallel_links: int = 2
    #: Customer prefixes originated per region.
    prefixes_per_region: int = 2
    #: Epochs in the stream (a drain and a restore are one epoch each).
    epochs: int = 20
    #: Number of regions the rolling drain rotates through before the cycle
    #: repeats (each rotated region contributes a drain + restore pair).
    rotation: int = 2
    #: Seed for backbone generation and rotation order.
    seed: int = 47

    def __post_init__(self) -> None:
        if self.num_fecs < 1:
            raise WorkloadError("the stream profile needs at least one traffic class")
        if self.epochs < 1:
            raise WorkloadError("a change stream needs at least one epoch")
        if not 1 <= self.rotation <= self.regions:
            raise WorkloadError("rotation must be between 1 and the region count")

    def backbone_params(self) -> BackboneParams:
        return BackboneParams(
            regions=self.regions,
            routers_per_group=self.routers_per_group,
            parallel_links=self.parallel_links,
            prefixes_per_region=self.prefixes_per_region,
            seed=self.seed,
        )


# ----------------------------------------------------------------------
# Specs shared by the families
# ----------------------------------------------------------------------
def _drain_spec(from_routers: list[str], to_routers: list[str], *, name: str) -> RelaSpec:
    """Traffic through ``from_routers`` must move onto ``to_routers``."""
    shift = atomic(
        seq(any_hops(), locs(set(from_routers)), any_hops()),
        any_of(seq(any_hops(), locs(set(to_routers)), any_hops())),
        name=f"{name}-shift",
    )
    return shift.else_(nochange())


def _restore_spec(
    from_routers: list[str], to_routers: list[str], *, name: str
) -> RelaSpec:
    """Detoured traffic may return: everything on the detour routers ends on
    the original or detour routers, and nothing else changes.

    The zone covers *all* paths through the detour (``to_routers``), which
    includes traffic natively homed there — hence the permissive target set
    ``from ∪ to`` rather than ``from`` alone: native traffic staying put is
    compliant, detoured traffic returning home is compliant, and a restore
    that blackholes or strands traffic elsewhere violates.
    """
    release = atomic(
        seq(any_hops(), locs(set(to_routers)), any_hops()),
        any_of(seq(any_hops(), locs(set(from_routers) | set(to_routers)), any_hops())),
        name=f"{name}-release",
    )
    return release.else_(nochange())


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------
def rolling_drain_stream(
    backbone: Backbone,
    initial: Snapshot,
    *,
    epochs: int = 20,
    rotation: int = 2,
    seed: int = 47,
    stream_id: str = "rolling-drain",
    buggy_epochs: frozenset[int] | set[int] = frozenset(),
) -> ChangeStream:
    """Drain/restore cycles rolling over a rotation of regions.

    Epoch ``2k`` drains rotation region ``k mod rotation`` (all traffic
    through its border routers detours onto a partner region's borders);
    epoch ``2k+1`` restores it.  Restores return to *previously seen*
    snapshots — the same objects, hence the same interned graph refs — so
    from the second cycle on a verification session's epochs are pure cache
    hits, while cold per-epoch verification repays the full check cost every
    night.  Epoch indices in ``buggy_epochs`` (drain epochs only) leave one
    distinct graph group unmoved: an incomplete drain the spec catches.
    """
    regions = backbone.regions()
    if rotation < 1 or rotation > len(regions):
        raise WorkloadError("rotation must be between 1 and the region count")
    rng = random.Random(seed)
    rotated = rng.sample(regions, rotation)
    half = len(regions) // 2

    # Per-region drain plumbing, built once and reused by every cycle:
    # recurring epochs must carry recurring spec instances for a session to
    # recognise them.
    plans: list[dict] = []
    for region in rotated:
        partner = regions[(regions.index(region) + half) % len(regions)]
        if partner == region:
            partner = regions[(regions.index(region) + 1) % len(regions)]
        from_routers = backbone.routers_in(region, "border")
        to_routers = backbone.routers_in(partner, "border")
        if not from_routers or not to_routers:
            raise WorkloadError(f"regions {region}/{partner} have no border routers")
        mapping = {
            src: to_routers[index % len(to_routers)]
            for index, src in enumerate(from_routers)
        }
        plans.append(
            {
                "region": region,
                "partner": partner,
                "mapping": mapping,
                "drain_spec": _drain_spec(from_routers, to_routers, name=f"drain-{region}"),
                "restore_spec": _restore_spec(
                    from_routers, to_routers, name=f"restore-{region}"
                ),
                "drained": None,  # memoized compliant drained snapshot
            }
        )

    stream = ChangeStream(stream_id=stream_id, initial=initial)
    current = initial
    for index in range(epochs):
        plan = plans[(index // 2) % rotation]
        region, partner = plan["region"], plan["partner"]
        draining = index % 2 == 0
        if draining:
            buggy = index in buggy_epochs
            if not buggy and plan["drained"] is not None:
                post, left = plan["drained"], 0
            else:
                post, left = _shift_snapshot(
                    current,
                    plan["mapping"],
                    name=f"{initial.name}-{stream_id}-e{index:03d}",
                    leave_unmoved=1 if buggy else 0,
                )
                if not buggy:
                    plan["drained"] = post
            stream.epochs.append(
                StreamEpoch(
                    epoch_id=f"{stream_id}-e{index:03d}",
                    kind="drain",
                    description=f"drain {region} borders onto {partner}"
                    + (" (incomplete: bug)" if left else ""),
                    pre=current,
                    post=post,
                    spec=plan["drain_spec"],
                    expect_holds=left == 0,
                )
            )
        else:
            # Restore to the state before this region's drain (epochs
            # strictly alternate, so the previous epoch is that drain).
            # After a *buggy* drain the pre state still complies with the
            # release spec (unmoved traffic is untouched traffic), so
            # restores hold either way.
            post = stream.epochs[-1].pre
            stream.epochs.append(
                StreamEpoch(
                    epoch_id=f"{stream_id}-e{index:03d}",
                    kind="restore",
                    description=f"restore {region} borders from {partner}",
                    pre=current,
                    post=post,
                    spec=plan["restore_spec"],
                    expect_holds=True,
                )
            )
        current = stream.epochs[-1].post
    return stream


def prefix_migration_stream(
    backbone: Backbone,
    initial: Snapshot,
    *,
    region: str | None = None,
    waves: int = 4,
    seed: int = 47,
    stream_id: str = "prefix-migration",
    buggy_waves: frozenset[int] | set[int] = frozenset(),
) -> ChangeStream:
    """Decommission a region's prefixes in waves (Section 7, over time).

    Wave ``k`` drops the traffic of its slice of the region's customer
    prefixes under a prefix-guarded policy (``dealloc`` for this wave's
    prefixes, ``nochange`` for everything else — classes dropped by earlier
    waves stay dropped and satisfy ``nochange``).  Waves in ``buggy_waves``
    keep forwarding the traffic they were supposed to drop.
    """
    regions = backbone.regions()
    rng = random.Random(seed)
    region = region or rng.choice(regions)
    prefixes = backbone.region_prefixes.get(region)
    if not prefixes:
        raise WorkloadError(f"region {region!r} originates no prefixes")
    waves = min(waves, len(prefixes))
    slices = [prefixes[index::waves] for index in range(waves)]

    dealloc = atomic(any_hops(), drop(), name="dealloc")
    dropped = make_drop_graph(granularity=initial.granularity)
    stream = ChangeStream(stream_id=stream_id, initial=initial)
    current = initial
    for index, wave_prefixes in enumerate(slices):
        predicates = [DstPrefixWithin(str(prefix)) for prefix in wave_prefixes]
        policy = SpecPolicy(
            default=nochange(),
            guarded=[
                PSpec(predicate, dealloc, name=f"dealloc-w{index}") for predicate in predicates
            ],
        )
        buggy = index in buggy_waves
        post = current.copy(name=f"{initial.name}-{stream_id}-w{index}")
        matched = 0
        for fec in current.fecs():
            if any(predicate.matches(fec) for predicate in predicates):
                matched += 1
                if not buggy:
                    post.replace(fec.fec_id, dropped)
        if matched == 0:
            raise WorkloadError(f"wave {index} matches no flow equivalence class")
        stream.epochs.append(
            StreamEpoch(
                epoch_id=f"{stream_id}-w{index}",
                kind="migration-wave",
                description=f"decommission wave {index}: "
                + ", ".join(str(prefix) for prefix in wave_prefixes)
                + (" (still forwarding: bug)" if buggy else ""),
                pre=current,
                post=post,
                spec=policy,
                expect_holds=not buggy,
            )
        )
        current = post
    return stream


def flapping_link_stream(
    backbone: Backbone,
    initial: Snapshot,
    *,
    flaps: int = 6,
    region: str | None = None,
    seed: int = 47,
    stream_id: str = "flapping",
) -> ChangeStream:
    """One border router flaps in and out of service, ``flaps`` epochs long.

    Down epochs move the router's traffic onto its group peer; up epochs
    return to the exact previous state.  The whole stream visits two
    snapshots and two spec instances — after the first down/up pair a
    session verifies nothing new, which is the point.
    """
    regions = backbone.regions()
    rng = random.Random(seed)
    region = region or rng.choice(regions)
    borders = backbone.routers_in(region, "border")
    if len(borders) < 2:
        raise WorkloadError("flapping needs at least two border routers in the region")
    router, peer = borders[0], borders[1]
    mapping = {router: peer}

    down_spec = _drain_spec([router], [peer], name=f"flap-{router}")
    up_spec = _restore_spec([router], [peer], name=f"flap-{router}")
    down_snapshot, _ = _shift_snapshot(
        initial, mapping, name=f"{initial.name}-{stream_id}-down"
    )

    stream = ChangeStream(stream_id=stream_id, initial=initial)
    current = initial
    for index in range(flaps):
        going_down = index % 2 == 0
        post = down_snapshot if going_down else initial
        stream.epochs.append(
            StreamEpoch(
                epoch_id=f"{stream_id}-e{index:03d}",
                kind="flap-down" if going_down else "flap-up",
                description=f"{router} {'fails onto' if going_down else 'recovers from'} {peer}",
                pre=current,
                post=post,
                spec=down_spec if going_down else up_spec,
                expect_holds=True,
            )
        )
        current = post
    return stream


# ----------------------------------------------------------------------
# Benchmark entry point
# ----------------------------------------------------------------------
def generate_stream(profile: StreamProfile | None = None) -> ChangeStream:
    """The benchmark stream: a rolling drain over a scale-style snapshot.

    The initial snapshot uses the ``scale`` workload's realistic duplication
    (distinct graphs scale with the topology, classes with ``num_fecs``), so
    per-epoch cost is dominated by the distinct graph-pair checks a session
    can cache, exactly as on the paper's backbone.
    """
    profile = profile or StreamProfile()
    backbone = generate_backbone(profile.backbone_params())
    initial = generate_scale_snapshot(
        backbone, num_fecs=profile.num_fecs, name="stream-initial"
    )
    return rolling_drain_stream(
        backbone,
        initial,
        epochs=profile.epochs,
        rotation=profile.rotation,
        seed=profile.seed,
    )


def stream_backbone(profile: StreamProfile | None = None) -> Backbone:
    """The backbone underlying :func:`generate_stream` (for tests/CLI)."""
    profile = profile or StreamProfile()
    return generate_backbone(profile.backbone_params())
