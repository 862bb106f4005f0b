"""The Rela verification engine (paper Section 6).

The engine ties the whole pipeline together, mirroring the paper's
implementation strategy:

1. the Rela spec (or prefix-guarded spec policy) is compiled **once** into
   pre-change and post-change relation transducers (plus one transducer pair
   per ``else`` branch, used for counterexample attribution);
2. each flow equivalence class is checked **independently**: its forwarding
   graphs become ``PreState``/``PostState`` automata at the requested
   granularity, the relations are applied via the image operation, and the
   resulting path sets are compared;
3. violations are reported per FEC with pre/post paths and the violated
   sub-spec (Section 6.3); classes can be checked in parallel worker
   processes, as the paper does for its 10^6-class backbone.

Three engine-level optimizations keep backbone-scale runs cheap:

* **Dedup-first grouping**: a verdict depends only on the compiled spec and
  the pre/post forwarding graphs, and snapshots intern their graphs (see
  :mod:`repro.snapshots.graphstore`), so FECs are grouped by
  ``(spec_key, pre ref, post ref)`` with integer comparisons — no per-FEC
  re-hashing — and each distinct graph pair is checked once.  The thousands
  of identical or unchanged graphs in a backbone change share one check,
  generalizing the preserve-only fast path to every spec; memoized
  counterexamples are re-attributed to each member FEC.  The per-FEC
  oracle this grouping is pinned against is
  :func:`repro.testing.reference.naive_verify`.
* **Streaming the all-pass common case**: per-FEC descriptions
  (``str(fec)``) and counterexample relabeling are built lazily, only for
  violating FECs, so a change over 10^5 classes that holds allocates
  O(#unique graph pairs), not O(#FECs).
* **Token-addressed workers with an id-indexed graph table**: the compiled
  specs, builder and options are pickled once and cached inside each worker
  process under a token; work batches carry the token, ``(fec_id,
  spec_key, pre id, post id)`` tuples and a table of the *distinct* graphs
  those ids name — a graph crosses the process boundary about once per
  run, however many FECs share it.  Results stream back as they complete
  (no head-of-line blocking); the report is sorted at the end so the output
  is order-independent.  The execution itself — serial and pooled, with
  per-check deadlines/retries, crash recovery and graceful degradation —
  lives in :mod:`repro.verifier.runtime`; this module contributes the check
  function.

Since the session restructuring, the engine's *lifecycle* lives in
:mod:`repro.verifier.session`: a :class:`~repro.verifier.session.VerificationSession`
owns the cross-epoch graph store, the compiled-spec contexts and the
persistent verdict cache, and :func:`verify_change` is a thin session of
length 1 (one cold ``advance``).  This module keeps the per-epoch
machinery the session drives: spec compilation and the single-FEC check.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.automata.alphabet import Alphabet
from repro.automata.equivalence import compare
from repro.automata.fsa import FSA
from repro.automata.lazy import LazyFST, LazyUnion
from repro.errors import VerificationError
from repro.rela.compile import branch_relations, hash_expansions, zone
from repro.rela.locations import Granularity, LocationDB
from repro.rela.modifiers import Preserve
from repro.rela.pspec import SpecPolicy
from repro.rela.spec import AtomicSpec, ElseSpec, RelaSpec, SeqSpec, flatten_else
from repro.rir import RIRContext, compile_rel_lazy
from repro.rir import ast as rir
from repro.snapshots.forwarding_graph import ForwardingGraph
from repro.snapshots.snapshot import Snapshot
from repro.verifier.counterexample import BranchViolation, Counterexample, rewrite_hash
from repro.verifier.report import VerificationReport
from repro.verifier.state_automata import StateAutomatonBuilder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testing.faults import FaultPlan


@dataclass(slots=True)
class VerificationOptions:
    """Tunable knobs of a verification run."""

    #: Granularity at which paths are compared (paper Figure 7's sweep axis).
    granularity: Granularity = Granularity.ROUTER
    #: Maximum number of witness paths per violated assertion.
    max_witnesses: int = 10
    #: Bound on enumerated pre/post paths attached to counterexamples.
    max_paths: int = 50
    #: Bound on witness path length during extraction.
    max_witness_length: int = 64
    #: Worker processes; 1 means run serially in-process.
    workers: int = 1
    #: Attach full counterexample detail (set False for timing-only runs).
    collect_counterexamples: bool = True
    #: Wall-clock budget (seconds) for one FEC check; ``None`` disables the
    #: per-check deadline.  Enforced with ``SIGALRM`` where available, on
    #: the serial path and inside worker processes alike; a check that keeps
    #: exceeding its budget is retried, then recorded as an *unknown*
    #: :class:`~repro.verifier.runtime.CheckFailure`.
    check_timeout: float | None = None
    #: Retry budget per check for transient failures (exceptions, timeouts);
    #: also bounds how many worker deaths a single check may cause before it
    #: is declared poisonous.  0 disables retries.
    max_retries: int = 2
    #: Base of the exponential retry backoff in seconds (attempt *n* sleeps
    #: ``retry_backoff * 2**(n-1)``, capped at 2s).  0 retries immediately.
    retry_backoff: float = 0.05
    #: Degrade gracefully: record failed checks as ``unknown`` outcomes and
    #: fall back to serial execution after repeated pool loss.  Set False
    #: (CLI ``--no-degrade``) to raise
    #: :class:`~repro.errors.DegradedExecutionError` at the first check the
    #: runtime cannot complete.
    allow_degraded: bool = True
    #: Worker-pool rebuilds tolerated after ``BrokenProcessPool`` before the
    #: remaining work falls back to serial in-process execution.
    max_pool_rebuilds: int = 8
    #: Deterministic fault-injection schedule
    #: (:class:`repro.testing.faults.FaultPlan`) applied at the check seam,
    #: worker-side and serial alike.  Test/benchmark harness only; ``None``
    #: (the default) injects nothing.
    fault_plan: FaultPlan | None = None


@dataclass(slots=True)
class CompiledBranch:
    """One ``else`` branch, compiled on demand for counterexample attribution.

    Branch transducers are only needed once the *overall* equation of a flow
    equivalence class fails, so the all-pass common case never pays for
    them: this holds the branch's shadowed RIR relations and compiles the
    transducers on first access (memoized thereafter, including inside
    worker processes, each of which owns its own copy).
    """

    name: str
    pre_rel: rir.Rel
    post_rel: rir.Rel
    hash_expansion: str | None
    ctx: RIRContext
    _pre_fst: LazyFST | None = None
    _post_fst: LazyFST | None = None

    @property
    def pre_fst(self) -> LazyFST:
        if self._pre_fst is None:
            self._pre_fst = compile_rel_lazy(self.pre_rel, self.ctx)
        return self._pre_fst

    @property
    def post_fst(self) -> LazyFST:
        if self._post_fst is None:
            self._post_fst = compile_rel_lazy(self.post_rel, self.ctx)
        return self._post_fst


@dataclass(slots=True)
class CompiledSpec:
    """A Rela spec compiled to relation transducers over a fixed alphabet."""

    spec: RelaSpec
    pre_fst: LazyFST
    post_fst: LazyFST
    branches: list[CompiledBranch] = field(default_factory=list)
    preserve_only: bool = False


def _union_rels(rels: list[LazyFST]) -> LazyFST:
    """The delayed union of compiled relations (a single relation unwrapped)."""
    if len(rels) == 1:
        return rels[0]
    return LazyUnion(*rels)


def _is_preserve_only(spec: RelaSpec) -> bool:
    if isinstance(spec, AtomicSpec):
        return isinstance(spec.modifier, Preserve)
    if isinstance(spec, SeqSpec):
        return all(_is_preserve_only(part) for part in spec.parts)
    if isinstance(spec, ElseSpec):
        return _is_preserve_only(spec.primary) and _is_preserve_only(spec.fallback)
    return False


def compile_spec(spec: RelaSpec, alphabet: Alphabet) -> CompiledSpec:
    """Compile a Rela spec over ``alphabet`` (done once per run).

    The overall pre/post relations become delayed-operation DAGs — branch
    shadowing never materializes the product — and the per-branch
    attribution relations are recorded symbolically, to be compiled only on
    the first violation of that branch.  The test oracle
    (:func:`repro.testing.reference.naive_verify`) compiles the nested
    Figure 4 translation instead of this flat union.
    """
    empty = FSA.empty_language(alphabet)
    ctx = RIRContext(alphabet, empty, empty)
    shadowed = branch_relations(spec)

    # The nested Figure 4 translation R1 | (I(¬Z1) ∘ (R2 | ...)) is
    # algebraically the flat prioritized union of shadowed branches
    # ⋃_i I(¬(Z1|...|Z_{i-1})) ∘ R_i, because composed identity
    # restrictions intersect: I(¬Z1) ∘ I(¬Z2) = I(¬(Z1|Z2)).  The flat form
    # keeps a delayed product state at one (shadow, branch) pair instead of
    # stacking one zone automaton per enclosing else level, and the n-ary
    # LazyUnion dispatches in one hop.
    pre_fst = _union_rels([compile_rel_lazy(pre, ctx) for _, pre, _ in shadowed])
    post_fst = _union_rels([compile_rel_lazy(post, ctx) for _, _, post in shadowed])

    branches: list[CompiledBranch] = []
    for index, (branch, branch_pre, branch_post) in enumerate(shadowed):
        expansions = hash_expansions(branch)
        branches.append(
            CompiledBranch(
                name=branch.name or f"branch-{index + 1}",
                pre_rel=branch_pre,
                post_rel=branch_post,
                hash_expansion=str(expansions[0]) if expansions else None,
                ctx=ctx,
            )
        )
    return CompiledSpec(
        spec=spec,
        pre_fst=pre_fst,
        post_fst=post_fst,
        branches=branches,
        preserve_only=_is_preserve_only(spec),
    )


def _as_policy(spec_or_policy: RelaSpec | SpecPolicy) -> SpecPolicy:
    if isinstance(spec_or_policy, SpecPolicy):
        return spec_or_policy
    if isinstance(spec_or_policy, RelaSpec):
        return SpecPolicy(default=spec_or_policy)
    raise VerificationError(
        f"expected a RelaSpec or SpecPolicy, got {type(spec_or_policy).__name__}"
    )


def _graphs_identical(pre: ForwardingGraph, post: ForwardingGraph) -> bool:
    # Interned snapshots hand the verifier the *same* frozen object for
    # identical pre/post behaviour, so the common unchanged-FEC case is a
    # single identity test.
    if pre is post:
        return True
    return (
        pre.nodes == post.nodes
        and pre.edges == post.edges
        and pre.sources == post.sources
        and pre.sinks == post.sinks
    )


def _check_one_fec(
    compiled: CompiledSpec,
    fec_id: str,
    fec_description: str,
    pre_graph: ForwardingGraph,
    post_graph: ForwardingGraph,
    builder: StateAutomatonBuilder,
    options: VerificationOptions,
) -> Counterexample | None:
    """Check one flow equivalence class; return a counterexample on failure."""
    pre_converted = builder.convert(pre_graph)
    post_converted = builder.convert(post_graph)
    graphs_identical = _graphs_identical(pre_converted, post_converted)

    # Preserve-only specs relate a path set to itself, so identical graphs
    # hold without building an automaton; under any other spec identical
    # graphs still share one state FSA.
    if compiled.preserve_only and graphs_identical:
        return None

    pre_fsa = pre_converted.to_fsa(builder.alphabet)
    post_fsa = pre_fsa if graphs_identical else post_converted.to_fsa(builder.alphabet)

    lhs = compiled.pre_fst.image(pre_fsa)
    rhs = compiled.post_fst.image(post_fsa)
    overall = compare(
        lhs,
        rhs,
        max_witnesses=options.max_witnesses,
        max_witness_length=options.max_witness_length,
    )
    if overall.equal:
        return None

    violations: list[BranchViolation] = []
    if options.collect_counterexamples:
        for branch in compiled.branches:
            branch_lhs = branch.pre_fst.image(pre_fsa)
            branch_rhs = branch.post_fst.image(post_fsa)
            branch_result = compare(
                branch_lhs,
                branch_rhs,
                max_witnesses=options.max_witnesses,
                max_witness_length=options.max_witness_length,
            )
            if branch_result.equal:
                continue
            violations.append(
                BranchViolation(
                    branch=branch.name,
                    expected=[
                        rewrite_hash(path, branch.hash_expansion)
                        for path in branch_result.missing
                    ],
                    observed=[
                        rewrite_hash(path, branch.hash_expansion)
                        for path in branch_result.unexpected
                    ],
                )
            )
        if not violations:
            # The overall equation failed but no single branch explains it
            # (possible for seq-composed specs without else); report the
            # overall diff under the spec's own name.
            violations.append(
                BranchViolation(
                    branch=compiled.spec.name or "spec",
                    expected=list(overall.missing),
                    observed=list(overall.unexpected),
                )
            )

    if not options.collect_counterexamples:
        return Counterexample(
            fec_id=fec_id, fec_description=fec_description, pre_paths=[], post_paths=[]
        )
    return Counterexample(
        fec_id=fec_id,
        fec_description=fec_description,
        pre_paths=sorted(
            pre_converted.path_set(
                max_paths=options.max_paths, max_length=options.max_witness_length
            )
        ),
        post_paths=sorted(
            post_converted.path_set(
                max_paths=options.max_paths, max_length=options.max_witness_length
            )
        ),
        violations=violations,
    )


def _relabel(
    counterexample: Counterexample, fec_id: str, fec_description: str
) -> Counterexample:
    """Re-attribute a memoized per-FEC result to another identical FEC."""
    if counterexample.fec_id == fec_id and counterexample.fec_description == fec_description:
        return counterexample
    return Counterexample(
        fec_id=fec_id,
        fec_description=fec_description,
        pre_paths=list(counterexample.pre_paths),
        post_paths=list(counterexample.post_paths),
        violations=list(counterexample.violations),
    )


def _policy_specs(policy: SpecPolicy) -> dict[str, RelaSpec]:
    """The specs a policy can apply, keyed the way work items reference them.

    The ``"default"`` / ``"guard-N"`` keys are the stable per-run naming the
    dedup grouping, the worker batches and the session's verdict cache all
    share.
    """
    specs: dict[str, RelaSpec] = {"default": policy.default}
    for index, guarded in enumerate(policy.guarded):
        specs[f"guard-{index}"] = guarded.spec
    return specs


def _spec_symbols(specs: Iterable[RelaSpec]) -> set[str]:
    """Every location symbol any spec (or any of its branches) can mention.

    These must be interned into the alphabet before any complement is
    compiled, so they are gathered up front and passed to
    :func:`~repro.verifier.state_automata.build_alphabet` as extra symbols.
    """
    symbols: set[str] = set()
    for spec in specs:
        symbols |= zone(spec).symbols()
        for branch in flatten_else(spec):
            symbols |= zone(branch).symbols()
    return symbols


def verify_change(
    pre: Snapshot,
    post: Snapshot,
    spec: RelaSpec | SpecPolicy,
    *,
    db: LocationDB | None = None,
    options: VerificationOptions | None = None,
) -> VerificationReport:
    """Verify a change (pre/post snapshot pair) against a Rela specification.

    Parameters
    ----------
    pre, post:
        The pre-change and post-change snapshots.
    spec:
        A :class:`~repro.rela.spec.RelaSpec` applied to every flow
        equivalence class, or a :class:`~repro.rela.pspec.SpecPolicy` that
        picks a spec per class based on prefix predicates.
    db:
        Location database; required when the snapshots are finer-grained than
        the requested analysis granularity.
    options:
        Engine options (granularity, witnesses, parallelism).

    Returns
    -------
    VerificationReport
        Overall verdict, counterexamples and per-sub-spec violation counts.

    Notes
    -----
    One-shot verification is a :class:`~repro.verifier.session.VerificationSession`
    of length 1: the session starts at ``pre`` with a cold cache and
    advances once to ``post``.  Operators validating a *sequence* of
    changes should hold a session open instead — recurring graph pairs and
    unchanged classes then hit the cross-epoch verdict cache.
    """
    from repro.verifier.session import VerificationSession

    session = VerificationSession(pre, spec, db=db, options=options)
    return session.advance(post)
