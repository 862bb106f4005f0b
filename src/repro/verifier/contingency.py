"""What-if contingency sweeps: k-failure verification under change.

The paper verifies that a proposed change preserves relational properties
between two snapshots of the *healthy* network.  Operators ask a second
question in the same breath: does the change stay safe when the network is
degraded — "does the drain still hold under any single link failure?"
Answering it naively multiplies the whole verification pipeline by the
number of contingencies: every failed link means a fresh routing
computation, a fresh snapshot pair and a fresh sweep over every flow
equivalence class.

This module turns that blowup into a dedup problem, which the interned
:class:`~repro.snapshots.graphstore.GraphStore` and the
:class:`~repro.verifier.session.VerificationSession` verdict cache already
know how to solve:

1. **Failure models** enumerate contingencies — all single-link failures
   (:func:`single_link_failures`), all k-link combinations over a candidate
   set (:func:`k_link_failures`), or explicit planned-maintenance link sets
   (:func:`maintenance_link_sets`).  The unit of failure is a whole link
   *bundle* (an unordered router pair): failing one parallel member never
   changes router-level forwarding.
2. **Derivation** builds each contingency's pre-change snapshot via the
   simulator's failure-aware entry points
   (:meth:`~repro.network.simulator.Simulator.under_failure` +
   :meth:`~repro.network.simulator.Simulator.derive_snapshot`): BGP/IGP/FIB
   state is recomputed once per contingency, but only the traffic classes
   whose baseline traces the failure can actually touch are re-traced —
   everything else reuses the baseline graph objects.  The change under
   test is then applied to the degraded snapshot, exactly as it would land
   on the degraded network.
3. **Shared interning**: every derived snapshot interns into one
   cross-contingency :class:`~repro.snapshots.graphstore.GraphStore`, so a
   forwarding behaviour exhibited under many contingencies resolves to one
   ref sweep-wide.
4. **One session**: a single :class:`~repro.verifier.session.VerificationSession`
   (rebased per contingency) drives the whole sweep, so each distinct
   ``(context, spec key, pre ref, post ref)`` verdict is computed once and
   served from cache for every other contingency exhibiting it.  Most
   failures do not touch most classes' graphs, so the sweep executes a
   small multiple of one contingency's unique checks instead of
   ``contingencies × unique-pairs-per-contingency`` — the
   :attr:`SweepReport.dedup_ratio` headline, gated in CI.

Scaling past single failures (the combinatorial k=2/k=3 spaces) adds two
coordinated mechanisms on top:

5. **Incremental lattice derivation**: a k-failure contingency's snapshot
   is derived from its (k−1)-failure *parent* in the failure lattice
   (:class:`_DerivationLattice`), not from the healthy baseline — the
   changed-FIB-decision criterion runs against the parent's FIBs and
   traces via the simulator's :meth:`~repro.network.simulator.Simulator.changed_routers`
   delta index, so the per-contingency cost scales with the *marginal*
   effect of the last failed link instead of the cumulative effect of all
   k.  Parents are derived on demand (recursively down to the baseline)
   and cached, so every contingency's parent exists before the contingency
   itself is derived regardless of sweep order.  Derived snapshots are
   fingerprint-identical to full re-simulation (pinned by
   ``tests/verifier/test_sweep_scaleout.py``).
6. **Prioritized first-worst search** (``run(first_worst=True)``): the
   k≥2 contingencies are reordered by a fragility score seeded from the
   single-failure lattice nodes — the fraction of traffic combinations
   each candidate link's failure flips, combined per contingency with the
   risk layer's noisy-OR — so the most-violating contingency tends to
   surface early.  The ordering is a *search order*, not a semantics
   change: run to completion, the report equals the exhaustive sweep's
   (``most_violating`` is order-independent), and the ``on_contingency``
   callback lets operators watch verdicts land (or stop the sweep early).

Per-contingency reports are byte-identical to naive one-shot
``verify_change`` runs over independently simulated snapshots (pinned by
``tests/verifier/test_contingency_sweep.py``).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from repro.errors import StateVersionError, VerificationError
from repro.network.bgp import NetworkConfig
from repro.persist.checkpoint import Checkpoint
from repro.persist.digest import options_digest, stable_digest
from repro.network.simulator import Simulator, group_fec_combos
from repro.network.topology import Topology
from repro.rela.locations import Granularity, LocationDB
from repro.rela.pspec import SpecPolicy
from repro.rela.spec import RelaSpec
from repro.snapshots.fec import FlowEquivalenceClass
from repro.snapshots.graphstore import GraphStore
from repro.snapshots.snapshot import Snapshot
from repro.verifier.engine import VerificationOptions
from repro.verifier.report import VerificationReport
from repro.verifier.session import VerificationSession

#: An unordered router pair naming one link bundle.
LinkPair = tuple[str, str]

#: The change under test, as a transform of a (possibly degraded) pre-change
#: snapshot.  May return just the post snapshot, or ``(post, expect_holds)``
#: when the workload knows whether the change complies *on that snapshot*
#: (buggy variants are only spec-visible under contingencies that leave
#: detectable traffic behind).
ChangeFn = Callable[[Snapshot], "Snapshot | tuple[Snapshot, bool]"]


def _canonical_pair(pair: Iterable[str]) -> LinkPair:
    a, b = sorted(pair)
    return (a, b)


@dataclass(frozen=True, slots=True)
class Contingency:
    """One network condition to verify the change under."""

    contingency_id: str
    #: Failed link bundles, as canonical sorted pairs; empty = the healthy
    #: network (the baseline contingency).
    failed_links: tuple[LinkPair, ...] = ()
    description: str = ""

    @property
    def is_baseline(self) -> bool:
        return not self.failed_links

    def __str__(self) -> str:
        if self.is_baseline:
            return self.contingency_id
        failed = ", ".join(f"{a}~{b}" for a, b in self.failed_links)
        return f"{self.contingency_id} [{failed}]"


def baseline_contingency() -> Contingency:
    """The no-failure contingency (the healthy network)."""
    return Contingency(contingency_id="baseline", description="no failure")


def single_link_failures(
    topology: Topology, *, candidates: Iterable[LinkPair] | None = None
) -> list[Contingency]:
    """Every single-link-bundle failure (over ``candidates`` if given)."""
    pairs = _candidate_pairs(topology, candidates)
    return [
        Contingency(
            contingency_id=f"single-{a}~{b}",
            failed_links=((a, b),),
            description=f"link {a}~{b} down",
        )
        for a, b in pairs
    ]


def k_link_failures(
    topology: Topology,
    k: int,
    *,
    candidates: Iterable[LinkPair] | None = None,
    limit: int | None = None,
) -> list[Contingency]:
    """Every ``k``-combination of link-bundle failures over a candidate set.

    Combinations are enumerated in deterministic sorted order over the
    canonicalized, bundle-deduplicated candidate set — candidates naming
    the same bundle twice (or in both orientations) yield one entry, on
    every platform.  ``limit`` truncates the (combinatorially explosive)
    enumeration, applied *after* bundle-equivalence dedup so ``limit=N``
    always means N distinct contingencies.  ``k=1`` degenerates to
    :func:`single_link_failures`.
    """
    if k < 1:
        raise VerificationError("k-link failure models need k >= 1")
    pairs = _candidate_pairs(topology, candidates)
    if k > len(pairs):
        raise VerificationError(
            f"cannot fail {k} links over a candidate set of {len(pairs)}"
        )
    contingencies: list[Contingency] = []
    seen: set[frozenset[LinkPair]] = set()
    for combo in combinations(pairs, k):
        key = frozenset(combo)
        if key in seen:
            continue
        seen.add(key)
        tag = "+".join(f"{a}~{b}" for a, b in combo)
        contingencies.append(
            Contingency(
                contingency_id=f"k{k}-{tag}",
                failed_links=combo,
                description=f"links {tag} down",
            )
        )
        if limit is not None and len(contingencies) >= limit:
            break
    return contingencies


def maintenance_link_sets(
    link_sets: Iterable[Iterable[LinkPair]], *, prefix: str = "maint"
) -> list[Contingency]:
    """Explicit planned-maintenance contingencies, one per drained link set."""
    contingencies: list[Contingency] = []
    for index, link_set in enumerate(link_sets):
        failed = tuple(sorted(_canonical_pair(pair) for pair in link_set))
        if not failed:
            raise VerificationError("a maintenance link set cannot be empty")
        tag = "+".join(f"{a}~{b}" for a, b in failed)
        contingencies.append(
            Contingency(
                contingency_id=f"{prefix}-{index}",
                failed_links=failed,
                description=f"maintenance set {index}: {tag} drained",
            )
        )
    return contingencies


def _candidate_pairs(
    topology: Topology, candidates: Iterable[LinkPair] | None
) -> list[LinkPair]:
    if candidates is None:
        # Canonicalize the topology's own bundle list too: enumeration order
        # (and therefore contingency ids and any ``limit`` truncation) must
        # not depend on topology insertion order or platform dict/set order.
        return sorted({_canonical_pair(pair) for pair in topology.link_bundles()})
    pairs = sorted({_canonical_pair(pair) for pair in candidates})
    bundles = set(topology.link_bundles())
    unknown = [pair for pair in pairs if pair not in bundles]
    if unknown:
        raise VerificationError(f"candidate links not in the topology: {unknown}")
    return pairs


# ----------------------------------------------------------------------
# Sweep results
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ContingencyResult:
    """The verification outcome of the change under one contingency."""

    contingency: Contingency
    report: VerificationReport
    #: The workload's compliance expectation on this contingency's snapshot
    #: (None when the change transform does not state one).
    expected_holds: bool | None = None
    #: Seconds spent on snapshot *derivation* proper — the change-criterion
    #: screen, affected-trace re-tracing and change application.  This is
    #: the cost the incremental lattice attacks, reported separately from
    #: routing.
    derive_seconds: float = 0.0
    #: Seconds recomputing routing state (BGP fixed point, IGP costs, FIB
    #: build) for this contingency's degraded topology.  Zero when the
    #: snapshot came straight from a cached lattice node.
    route_seconds: float = 0.0

    @property
    def holds(self) -> bool:
        return self.report.holds

    @property
    def verdict(self) -> str:
        """Three-valued per-contingency verdict (see the epoch report)."""
        return self.report.verdict


@dataclass(slots=True)
class SweepReport:
    """Aggregate outcome of a contingency sweep.

    Beyond the per-contingency verdicts, the report quantifies how much of
    the naive ``contingencies × unique-pairs-per-contingency`` work the
    cross-contingency dedup absorbed: :attr:`naive_checks` is what
    independent one-shot runs would each have executed,
    :attr:`executed_checks` is what the shared session actually ran, and
    :attr:`dedup_ratio` is their quotient (CI gates it as a hard floor).
    """

    results: list[ContingencyResult] = field(default_factory=list)
    #: Wall-clock seconds for the whole sweep, including baseline snapshot
    #: simulation and per-contingency derivation.
    elapsed_seconds: float = 0.0
    #: Distinct graphs in the shared cross-contingency store at sweep end.
    distinct_graphs: int = 0
    #: Seconds spent journaling checkpoint records — opening the journal,
    #: pickling unit records, flushing, and the closing fsync.  Zero when
    #: the sweep runs without a checkpoint.  This is the durability layer's
    #: *direct* cost, measured inside the run: a two-arm wall-clock
    #: comparison cannot resolve it against scheduler jitter.
    checkpoint_seconds: float = 0.0
    #: True when the sweep ran in first-worst (fragility-ordered) mode.
    prioritized: bool = False

    def record(self, result: ContingencyResult) -> None:
        self.results.append(result)

    @property
    def contingencies(self) -> int:
        return len(self.results)

    @property
    def holds(self) -> bool:
        """True when the change held under every contingency."""
        return all(result.holds for result in self.results)

    @property
    def verdict(self) -> str:
        """Three-valued sweep verdict: ``"holds"``/``"violated"``/``"unknown"``."""
        if self.violating_contingencies > 0:
            return "violated"
        if self.unknown_contingencies > 0:
            return "unknown"
        return "holds"

    @property
    def violating_contingencies(self) -> int:
        """Contingencies with at least one *proven* violating flow class."""
        return sum(1 for result in self.results if result.verdict == "violated")

    @property
    def unknown_contingencies(self) -> int:
        """Contingencies the runtime could not fully prove (no violation
        found, but some checks degraded to unknown verdicts)."""
        return sum(1 for result in self.results if result.verdict == "unknown")

    @property
    def degraded(self) -> bool:
        """True when any contingency ran degraded (failed checks/fallback)."""
        return any(result.report.degraded for result in self.results)

    @property
    def failed_checks(self) -> int:
        """Unknown-verdict flow-class results across the whole sweep."""
        return sum(result.report.unknown_fecs for result in self.results)

    def unproven(self) -> list[ContingencyResult]:
        """The contingencies the sweep completed but could not prove —
        the "119 verified, these 2 unknown" list operators act on."""
        return [result for result in self.results if result.verdict == "unknown"]

    @property
    def unknown_fec_ids(self) -> list[str]:
        """Flow classes with an unknown verdict under *any* contingency
        (sorted, unique) — the triage list for a degraded sweep."""
        unknown: set[str] = set()
        for result in self.results:
            unknown.update(result.report.unknown_fec_ids)
        return sorted(unknown)

    @property
    def baseline_result(self) -> ContingencyResult | None:
        """The healthy-network contingency's result, when the sweep ran one."""
        for result in self.results:
            if result.contingency.is_baseline:
                return result
        return None

    @property
    def failure_results(self) -> list[ContingencyResult]:
        """Results of the actual failure contingencies (baseline excluded)."""
        return [result for result in self.results if not result.contingency.is_baseline]

    @property
    def flipped_contingencies(self) -> int:
        """Failure contingencies with a proven-violated verdict — for a
        change that holds on the healthy baseline, the contingencies that
        *flip* its verdict (the risk layer's fragility numerator)."""
        return sum(1 for result in self.failure_results if result.verdict == "violated")

    @property
    def flip_fraction(self) -> float:
        """Fraction of failure contingencies with a violated verdict."""
        failures = self.failure_results
        if not failures:
            return 0.0
        return self.flipped_contingencies / len(failures)

    @property
    def expectation_mismatches(self) -> list[ContingencyResult]:
        """Results whose verdict contradicts the workload's expectation."""
        return [
            result
            for result in self.results
            if result.expected_holds is not None and result.holds != result.expected_holds
        ]

    @property
    def total_fecs(self) -> int:
        """Flow-class checks across all contingencies (with repeats)."""
        return sum(result.report.total_fecs for result in self.results)

    @property
    def naive_checks(self) -> int:
        """Distinct checks summed per contingency — the no-dedup cost."""
        return sum(result.report.unique_checks for result in self.results)

    @property
    def executed_checks(self) -> int:
        """Distinct checks the shared session actually executed."""
        return sum(result.report.executed_checks for result in self.results)

    @property
    def cached_checks(self) -> int:
        return sum(result.report.cached_checks for result in self.results)

    @property
    def dedup_ratio(self) -> float:
        """How many times cheaper the sweep was than independent runs."""
        if self.executed_checks == 0:
            return float("inf") if self.naive_checks else 1.0
        return self.naive_checks / self.executed_checks

    @property
    def derive_seconds(self) -> float:
        """Total snapshot-derivation seconds (criterion + re-trace + change)."""
        return sum(result.derive_seconds for result in self.results)

    @property
    def route_seconds(self) -> float:
        """Total routing-recompute seconds (BGP/IGP/FIB) across contingencies.

        ``getattr`` default keeps replay of pre-split checkpoint journals
        readable (their results predate the route/derive attribution).
        """
        return sum(getattr(result, "route_seconds", 0.0) for result in self.results)

    @property
    def check_seconds(self) -> float:
        return sum(result.report.elapsed_seconds for result in self.results)

    def first_worst_after(self) -> int | None:
        """Units completed when the sweep's most-violating contingency landed.

        1-based position of :meth:`most_violating`'s top entry in execution
        order (``None`` when nothing violated) — the first-worst search's
        figure of merit: under fragility ordering this should be a small
        number even when the exhaustive sweep is long.
        """
        worst = self.most_violating(1)
        if not worst:
            return None
        target = worst[0].contingency.contingency_id
        for index, result in enumerate(self.results):
            if result.contingency.contingency_id == target:
                return index + 1
        return None

    def most_violating(self, count: int = 5) -> list[ContingencyResult]:
        """The contingencies with the most violating flow classes, worst first."""
        violating = [result for result in self.results if not result.holds]
        violating.sort(
            key=lambda result: (-result.report.violating_fecs, result.contingency.contingency_id)
        )
        return violating[:count]

    def summary(self) -> str:
        """One-line sweep summary with the dedup headline."""
        if self.holds:
            verdict = "PASS"
        elif self.violating_contingencies > 0:
            verdict = f"FAIL ({self.violating_contingencies} contingencies)"
        else:
            verdict = f"UNKNOWN ({self.unknown_contingencies} contingencies unproven)"
        if self.violating_contingencies > 0 and self.unknown_contingencies > 0:
            verdict += f" [{self.unknown_contingencies} unproven]"
        ratio = self.dedup_ratio
        ratio_text = "inf" if ratio == float("inf") else f"{ratio:.1f}x"
        return (
            f"{verdict}: {self.contingencies} contingencies, {self.total_fecs} FEC checks, "
            f"{self.executed_checks} executed / {self.cached_checks} cached of "
            f"{self.naive_checks} per-contingency unique checks "
            f"(dedup {ratio_text}, {self.distinct_graphs} distinct graphs, "
            f"{self.elapsed_seconds:.2f}s)"
        )


# ----------------------------------------------------------------------
# Incremental derivation: the failure lattice
# ----------------------------------------------------------------------
class _DerivationLattice:
    """On-demand cache of ``(simulator, snapshot)`` nodes along the failure lattice.

    Node ``(l1, …, lk)`` is the degraded network with those bundles failed;
    its snapshot is derived from node ``(l1, …, l(k-1))`` through the
    simulator's ``parent=`` seam, recursively down to the baseline at
    ``()``.  On-demand recursion means a contingency's parent chain always
    exists before the contingency derives, whatever order the sweep visits
    units in — the lattice ordering contract without an explicit sort.

    Nodes the lattice derives itself are always retained (they sit on some
    contingency's parent chain by construction).  Sweep units *offer* their
    own derivations back, retained only when the ``needed`` prefix set says
    a later contingency will use them as a parent — so memory scales with
    the interior of the lattice, not with the (much larger) leaf frontier.
    Nothing is ever evicted below that bound: a sweep's interior is small
    (the k−1 spaces), and dropping a node would force a re-derivation whose
    graphs are already interned anyway.

    ``route_seconds``/``derive_seconds`` accumulate the routing and
    derivation cost of internally-derived nodes, so the sweep can attribute
    lattice work to the contingency that triggered it.
    """

    def __init__(
        self,
        base_sim: Simulator,
        base_pre: Snapshot,
        combos: dict[tuple[str, str], list[str]],
        *,
        needed: set[tuple[LinkPair, ...]],
    ) -> None:
        self._base_sim = base_sim
        self._base_pre = base_pre
        self._combos = combos
        self._needed = needed
        self._nodes: dict[tuple[LinkPair, ...], tuple[Simulator, Snapshot]] = {
            (): (base_sim, base_pre)
        }
        #: One representative FEC per (ingress, destination) combination —
        #: all FECs of a combo share one graph, so one probe per combo
        #: suffices for the fragility fractions.
        self._representatives = [fec_ids[0] for fec_ids in combos.values()]
        self._fractions: dict[LinkPair, float] = {}
        self.route_seconds = 0.0
        self.derive_seconds = 0.0

    def cached(self, links: tuple[LinkPair, ...]) -> tuple[Simulator, Snapshot] | None:
        """The retained node for exactly ``links``, if any."""
        return self._nodes.get(links)

    def parent(self, links: tuple[LinkPair, ...]) -> tuple[Simulator, Snapshot]:
        """The (k−1)-failure reference pair for a contingency failing ``links``."""
        return self.node(links[:-1])

    def siblings(self, links: tuple[LinkPair, ...]) -> list[tuple[Simulator, Snapshot]]:
        """Secondary references for deriving ``links``: the last link's solo node.

        A k≥2 node's parent covers the first k−1 links; the last link's
        single-failure node covers the marginal slice, so between the two
        references only combinations affected by the last link *jointly
        with* an earlier one pay a re-trace.  The solo node is shared by
        every contingency ending in that link (and is usually a k=1 sweep
        unit anyway), so deriving it amortizes to nothing.
        """
        if len(links) < 2:
            return []
        return [self.node((links[-1],))]

    def node(self, links: tuple[LinkPair, ...]) -> tuple[Simulator, Snapshot]:
        """The lattice node for ``links``, deriving the parent chain on demand."""
        hit = self._nodes.get(links)
        if hit is not None:
            return hit
        reference = self.node(links[:-1])
        siblings = self.siblings(links)
        started = time.perf_counter()
        sim = self._base_sim.under_failure(links)
        sim.fib()
        self.route_seconds += time.perf_counter() - started
        started = time.perf_counter()
        tag = "+".join(f"{a}~{b}" for a, b in links)
        snapshot = sim.derive_snapshot(
            self._base_sim,
            self._base_pre,
            name=f"sweep-ref@{tag}",
            combos=self._combos,
            parent=reference,
            siblings=siblings,
        )
        self.derive_seconds += time.perf_counter() - started
        self._nodes[links] = (sim, snapshot)
        return sim, snapshot

    def offer(
        self, links: tuple[LinkPair, ...], sim: Simulator, snapshot: Snapshot
    ) -> None:
        """Retain a sweep unit's derivation when it parents a later contingency."""
        if links in self._needed:
            self._nodes.setdefault(links, (sim, snapshot))

    def changed_fraction(self, link: LinkPair) -> float:
        """Fraction of traffic combinations this single bundle failure flips.

        The first-worst fragility seed: probed per distinct candidate link
        from the k=1 lattice node's graph refs against the baseline's (one
        ref comparison per combo — derivation already interned both).
        """
        fraction = self._fractions.get(link)
        if fraction is None:
            if not self._representatives:
                fraction = 0.0
            else:
                _, snapshot = self.node((link,))
                base = self._base_pre
                changed = sum(
                    1
                    for fec_id in self._representatives
                    if snapshot.graph_ref(fec_id) != base.graph_ref(fec_id)
                )
                fraction = changed / len(self._representatives)
            self._fractions[link] = fraction
        return fraction


@dataclass(slots=True)
class _SweepState:
    """Baseline state shared by every unit of one sweep run."""

    store: GraphStore
    base_sim: Simulator
    base_pre: Snapshot
    combos: dict[tuple[str, str], list[str]]
    lattice: _DerivationLattice
    base_route_seconds: float
    base_derive_seconds: float


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
class ContingencySweep:
    """Verify one change under a family of failure contingencies.

    Parameters
    ----------
    topology, config:
        The network under study (the simulator substrate).
    fecs:
        The traffic classes every contingency snapshot covers.
    change:
        The change under test, as a snapshot transform (see :data:`ChangeFn`).
        It is applied to each contingency's *degraded* pre-change snapshot,
        exactly as the change automation would act on the degraded network.
    spec:
        The Rela spec (or prefix-guarded policy) the change must satisfy
        under every contingency.  One instance, shared sweep-wide, so the
        session can share compiled forms and cached verdicts.
    contingencies:
        Failure model output (see :func:`single_link_failures` and friends).
        The healthy-network baseline is prepended unless already present or
        ``include_baseline=False``.
    db, options, granularity:
        As for :func:`~repro.verifier.engine.verify_change`.  Passing the
        topology's location database keeps the alphabet signature stable
        across contingencies, which maximizes compiled-spec and verdict
        reuse (it is a performance knob only — reports are identical either
        way).
    """

    def __init__(
        self,
        topology: Topology,
        config: NetworkConfig,
        fecs: list[FlowEquivalenceClass],
        change: ChangeFn,
        spec: RelaSpec | SpecPolicy,
        contingencies: Iterable[Contingency],
        *,
        db: LocationDB | None = None,
        options: VerificationOptions | None = None,
        granularity: Granularity = Granularity.ROUTER,
        include_baseline: bool = True,
    ) -> None:
        self.topology = topology
        self.config = config
        self.fecs = fecs
        self.change = change
        self.spec = spec
        self.db = db
        self.options = options
        self.granularity = granularity
        self.contingencies = list(contingencies)
        #: Execution hook handed to the sweep-wide session (see
        #: :attr:`repro.verifier.session.VerificationSession.runner`); the
        #: verification service points it at its daemon-lifetime pool.
        #: ``None`` keeps the default per-call pool.
        self.runner: Callable[..., object] | None = None
        if include_baseline and not any(c.is_baseline for c in self.contingencies):
            self.contingencies.insert(0, baseline_contingency())
        if not self.contingencies:
            raise VerificationError("a contingency sweep needs at least one contingency")

    def signature(self) -> str:
        """The sweep's run signature: what a checkpoint is bound to.

        Covers everything that determines per-contingency verdicts — the
        traffic classes, the contingency list, the change transform (by
        name), the spec (by content digest), the granularity and the
        verdict-relevant engine options.  Two sweeps with the same
        signature verify the same workload; resuming a checkpoint under a
        different signature is refused
        (:class:`~repro.errors.StateVersionError`).
        """
        return stable_digest(
            (
                "sweep/v1",
                [fec.fec_id for fec in self.fecs],
                [
                    (c.contingency_id, c.failed_links)
                    for c in self.contingencies
                ],
                self.change,
                stable_digest(self.spec),
                self.granularity.value,
                options_digest(self.options),
            )
        )

    def run(
        self,
        *,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        first_worst: bool = False,
        on_contingency: Callable[[int, ContingencyResult, bool], object] | None = None,
    ) -> SweepReport:
        """Run the sweep and return the aggregate report.

        With ``checkpoint`` set, every completed contingency is journaled
        to that path as it lands (its result, the session's verdict-cache
        deltas and the graphs it added to the shared store); with
        ``resume=True`` the journal's clean prefix of contingencies is
        replayed instead of re-verified, and the final report is
        byte-identical to an uninterrupted run's.  Degraded contingencies
        (any unknown verdict) are journaled as markers only and retried
        fresh on resume.  A ``KeyboardInterrupt`` flushes a final
        interrupt marker before propagating.

        ``first_worst=True`` reorders the k≥2 contingencies most-fragile
        first (see the module docstring) before the run signature is
        computed — a first-worst run is its own checkpointable unit order,
        and resuming one requires passing ``first_worst=True`` again.

        ``on_contingency(index, result, resumed)`` is invoked for every
        unit, replayed or live, in execution order.  Returning ``True``
        from a live unit stops the sweep early: the report covers the
        completed prefix (checkpointed as usual, so a later ``resume``
        picks up from the stop).
        """
        if resume and checkpoint is None:
            raise VerificationError("resume=True requires a checkpoint path")
        started = time.perf_counter()
        state = self._prepare()
        if first_worst:
            self._prioritize(state)
        ckpt: Checkpoint | None = None
        journal_seconds = 0.0
        if checkpoint is not None:
            journal_started = time.perf_counter()
            ckpt = Checkpoint.open(
                checkpoint, kind="sweep", signature=self.signature(), resume=resume
            )
            journal_seconds = time.perf_counter() - journal_started
        try:
            sweep = self._run(ckpt, state, on_contingency=on_contingency)
        finally:
            if ckpt is not None:
                journal_started = time.perf_counter()
                ckpt.close()
                journal_seconds += time.perf_counter() - journal_started
        sweep.checkpoint_seconds += journal_seconds
        sweep.prioritized = first_worst
        sweep.elapsed_seconds = time.perf_counter() - started
        return sweep

    def _prepare(self) -> _SweepState:
        """Baseline routing, snapshot and lattice shared by the whole run."""
        store = GraphStore()
        base_sim = Simulator(self.topology, self.config)
        route_started = time.perf_counter()
        base_sim.fib()
        base_route_seconds = time.perf_counter() - route_started
        derive_started = time.perf_counter()
        base_pre = base_sim.snapshot(
            self.fecs, name="sweep-pre", granularity=self.granularity, store=store
        )
        combos = group_fec_combos(self.fecs)
        base_derive_seconds = time.perf_counter() - derive_started
        needed = {
            contingency.failed_links[:-1]
            for contingency in self.contingencies
            if contingency.failed_links
        }
        # Sibling references: every k≥2 contingency also screens against
        # its last link's single-failure node.
        needed.update(
            (contingency.failed_links[-1],)
            for contingency in self.contingencies
            if len(contingency.failed_links) >= 2
        )
        needed.discard(())
        return _SweepState(
            store=store,
            base_sim=base_sim,
            base_pre=base_pre,
            combos=combos,
            lattice=_DerivationLattice(base_sim, base_pre, combos, needed=needed),
            base_route_seconds=base_route_seconds,
            base_derive_seconds=base_derive_seconds,
        )

    def _prioritize(self, state: _SweepState) -> None:
        """Reorder the k≥2 tail most-fragile first (the first-worst order).

        The baseline and all single-failure contingencies keep their input
        order at the head — they are cheap, they seed the fragility
        fractions, and keeping them first preserves the lattice-parents-
        first property under the reorder.  The k≥2 tail sorts by descending
        noisy-OR of its links' single-failure flip fractions, contingency id
        as the deterministic tie-break.
        """
        from repro.analytics.risk import _noisy_or  # lazy: risk imports this module

        head = [c for c in self.contingencies if len(c.failed_links) <= 1]
        tail = [c for c in self.contingencies if len(c.failed_links) > 1]
        if not tail:
            return
        lattice = state.lattice

        def fragility(contingency: Contingency) -> float:
            return _noisy_or(
                lattice.changed_fraction(link) for link in contingency.failed_links
            )

        tail.sort(key=lambda c: (-fragility(c), c.contingency_id))
        self.contingencies = head + tail

    def _derive(
        self, contingency: Contingency, state: _SweepState
    ) -> tuple[Snapshot, float, float]:
        """This contingency's pre snapshot with (route, derive) attribution."""
        if contingency.is_baseline:
            return state.base_pre, state.base_route_seconds, state.base_derive_seconds
        links = contingency.failed_links
        lattice = state.lattice
        cached = lattice.cached(links)
        if cached is not None:
            # Already derived — by prioritization's fragility probe or a
            # duplicate failure set.  Its cost was paid where it happened.
            return cached[1], 0.0, 0.0
        route_base = lattice.route_seconds
        derive_base = lattice.derive_seconds
        parent = lattice.parent(links)
        siblings = lattice.siblings(links)
        route_started = time.perf_counter()
        failed_sim = state.base_sim.under_failure(links)
        failed_sim.fib()
        route_seconds = time.perf_counter() - route_started
        derive_started = time.perf_counter()
        pre = failed_sim.derive_snapshot(
            state.base_sim,
            state.base_pre,
            name=f"sweep-pre@{contingency.contingency_id}",
            combos=state.combos,
            parent=parent,
            siblings=siblings,
        )
        derive_seconds = time.perf_counter() - derive_started
        lattice.offer(links, failed_sim, pre)
        # Parent-chain work the lattice did on this unit's behalf is
        # this unit's cost.
        route_seconds += lattice.route_seconds - route_base
        derive_seconds += lattice.derive_seconds - derive_base
        return pre, route_seconds, derive_seconds

    def _run(
        self,
        ckpt: Checkpoint | None,
        state: _SweepState,
        *,
        on_contingency: Callable[[int, ContingencyResult, bool], object] | None = None,
    ) -> SweepReport:
        store, base_pre = state.store, state.base_pre

        session = VerificationSession(
            base_pre, self.spec, db=self.db, options=self.options
        )
        session.runner = self.runner
        sweep = SweepReport()

        completed = ckpt.completed_units if ckpt is not None else []
        if len(completed) > len(self.contingencies):
            raise StateVersionError(
                f"checkpoint records {len(completed)} completed contingencies but "
                f"the sweep only has {len(self.contingencies)}: it belongs to a "
                "different run, refusing to resume"
            )
        if ckpt is not None:
            session.enable_delta_log()
        for index, unit in enumerate(completed):
            contingency = self.contingencies[index]
            if unit.get("id") != contingency.contingency_id:
                raise StateVersionError(
                    f"checkpoint unit {index} is contingency {unit.get('id')!r}, "
                    f"expected {contingency.contingency_id!r}: the contingency "
                    "list changed, refusing to resume"
                )
            # Re-intern the graphs this contingency's derivation added, in
            # their original order — the shared store never evicts, so ref
            # assignment (and the final distinct-graph count) replays
            # exactly.
            for graph in unit.get("store_graphs", ()):
                store.intern(graph)
            session.preload_deltas(unit.get("deltas", ()))
            sweep.record(unit["result"])
            if on_contingency is not None:
                on_contingency(index, unit["result"], True)

        try:
            for index in range(len(completed), len(self.contingencies)):
                contingency = self.contingencies[index]
                watermark = len(store)
                pre, route_seconds, derive_seconds = self._derive(contingency, state)
                apply_started = time.perf_counter()
                post, expected = self._apply_change(pre, contingency)
                derive_seconds += time.perf_counter() - apply_started

                session.rebase(pre)
                report = session.advance(post, self.spec)
                result = ContingencyResult(
                    contingency=contingency,
                    report=report,
                    expected_holds=expected,
                    derive_seconds=derive_seconds,
                    route_seconds=route_seconds,
                )
                sweep.record(result)
                if ckpt is not None:
                    journal_started = time.perf_counter()
                    deltas = session.drain_deltas()
                    if report.degraded:
                        # Result-free marker: any contingency with unknown
                        # verdicts is retried fresh on resume.
                        ckpt.record_unit(
                            index, contingency.contingency_id, degraded=True
                        )
                    else:
                        ckpt.record_unit(
                            index,
                            contingency.contingency_id,
                            result=result,
                            deltas=deltas,
                            store_graphs=[
                                graph
                                for ref, graph in store.items()
                                if ref >= watermark
                            ],
                        )
                    sweep.checkpoint_seconds += time.perf_counter() - journal_started
                if on_contingency is not None:
                    if on_contingency(index, result, False) is True:
                        break
        except KeyboardInterrupt:
            if ckpt is not None:
                ckpt.interrupt()
            raise
        sweep.distinct_graphs = len(store)
        return sweep

    def _apply_change(
        self, pre: Snapshot, contingency: Contingency
    ) -> tuple[Snapshot, bool | None]:
        outcome = self.change(pre)
        if isinstance(outcome, Snapshot):
            return outcome, None
        post, expected = outcome
        if not isinstance(post, Snapshot):
            raise VerificationError(
                f"change transform returned {type(post).__name__}, expected a Snapshot "
                f"(contingency {contingency.contingency_id})"
            )
        return post, bool(expected)
