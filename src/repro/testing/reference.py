"""A naive per-FEC reference verifier, for differential tests.

:func:`~repro.verifier.engine.verify_change` runs a one-epoch
:class:`~repro.verifier.session.VerificationSession`: it interns every
forwarding graph, groups flow equivalence classes by ``(spec key, pre ref,
post ref)`` so each distinct graph pair is checked once, serves repeats
from a verdict cache, skips automaton construction when a preserve-only
spec meets identical graphs, and compiles specs into delayed-operation
DAGs.  :func:`naive_verify` computes the same report the slow, obvious
way, so a test can assert that the two agree:

* every FEC is checked on its own, in snapshot order, with no graph store,
  grouping, cache, worker pool or identical-graph shortcut — both state
  automata are always built;
* the overall relations are the nested Figure 4 translation
  (:func:`~repro.rela.compile.pre_relation` /
  :func:`~repro.rela.compile.post_relation`), ``R1 | (I(¬Z1) ∘ (R2 | ...))``,
  where production compiles the flat union of shadowed branches
  :func:`~repro.rela.compile.branch_relations`; the two are equal as
  relations, so every verdict and witness must agree.  Both go through
  :func:`~repro.rir.compile_rel_lazy`, whose own oracle is the set semantics
  of :mod:`repro.rir.semantics`.

The reference ignores the resilience knobs (timeouts, retries, fault plans,
workers): it is the clean run.  Its ``unique_checks`` is the number of FECs
and its ``cached_checks`` is 0, so compare reports with those two fields
(and timing) stripped.  Nothing is shared between FECs but the compiled
spec, so the reference is slow; keep its inputs small.
"""

from __future__ import annotations

import time

from repro.automata.alphabet import Alphabet
from repro.automata.equivalence import compare
from repro.automata.fsa import FSA
from repro.rela.compile import post_relation, pre_relation, zone
from repro.rela.locations import LocationDB
from repro.rela.pspec import SpecPolicy
from repro.rela.spec import RelaSpec, flatten_else
from repro.rir import RIRContext, compile_rel_lazy
from repro.snapshots.forwarding_graph import ForwardingGraph
from repro.snapshots.snapshot import Snapshot
from repro.verifier.counterexample import BranchViolation, Counterexample, rewrite_hash
from repro.verifier.engine import CompiledSpec, VerificationOptions, compile_spec
from repro.verifier.report import VerificationReport
from repro.verifier.state_automata import StateAutomatonBuilder, build_alphabet


def compile_spec_nested(spec: RelaSpec, alphabet: Alphabet) -> CompiledSpec:
    """:func:`~repro.verifier.engine.compile_spec`, but with the overall
    relations compiled from the nested Figure 4 lowering, in a context of
    their own.  Branch attribution is production's."""
    compiled = compile_spec(spec, alphabet)
    empty = FSA.empty_language(alphabet)
    ctx = RIRContext(alphabet, empty, empty)
    compiled.pre_fst = compile_rel_lazy(pre_relation(spec), ctx)
    compiled.post_fst = compile_rel_lazy(post_relation(spec), ctx)
    return compiled


def _check(
    compiled: CompiledSpec,
    fec_id: str,
    description: str,
    pre_graph: ForwardingGraph,
    post_graph: ForwardingGraph,
    builder: StateAutomatonBuilder,
    options: VerificationOptions,
) -> Counterexample | None:
    """Check one FEC from scratch; a counterexample when it violates."""
    pre_state = builder.convert(pre_graph)
    post_state = builder.convert(post_graph)
    pre_fsa = pre_state.to_fsa(builder.alphabet)
    post_fsa = post_state.to_fsa(builder.alphabet)
    bounds = dict(
        max_witnesses=options.max_witnesses, max_witness_length=options.max_witness_length
    )
    overall = compare(compiled.pre_fst.image(pre_fsa), compiled.post_fst.image(post_fsa), **bounds)
    if overall.equal:
        return None
    if not options.collect_counterexamples:
        return Counterexample(
            fec_id=fec_id, fec_description=description, pre_paths=[], post_paths=[]
        )
    violations = []
    for branch in compiled.branches:
        result = compare(branch.pre_fst.image(pre_fsa), branch.post_fst.image(post_fsa), **bounds)
        if not result.equal:
            violations.append(
                BranchViolation(
                    branch=branch.name,
                    expected=[rewrite_hash(p, branch.hash_expansion) for p in result.missing],
                    observed=[rewrite_hash(p, branch.hash_expansion) for p in result.unexpected],
                )
            )
    if not violations:
        violations.append(
            BranchViolation(
                branch=compiled.spec.name or "spec",
                expected=list(overall.missing),
                observed=list(overall.unexpected),
            )
        )
    path_bounds = dict(max_paths=options.max_paths, max_length=options.max_witness_length)
    return Counterexample(
        fec_id=fec_id,
        fec_description=description,
        pre_paths=sorted(pre_state.path_set(**path_bounds)),
        post_paths=sorted(post_state.path_set(**path_bounds)),
        violations=violations,
    )


def naive_verify(
    pre: Snapshot,
    post: Snapshot,
    spec: RelaSpec | SpecPolicy,
    *,
    db: LocationDB | None = None,
    options: VerificationOptions | None = None,
) -> VerificationReport:
    """Verify ``pre`` → ``post`` against ``spec`` one FEC at a time.

    Takes :func:`~repro.verifier.engine.verify_change`'s arguments and
    returns the report it should produce, modulo timing, ``unique_checks``
    and ``cached_checks``.
    """
    options = options or VerificationOptions()
    started = time.perf_counter()
    policy = spec if isinstance(spec, SpecPolicy) else SpecPolicy(default=spec)
    specs = [policy.default] + [guarded.spec for guarded in policy.guarded]
    symbols: set[str] = set()
    for each in specs:
        for part in [each, *flatten_else(each)]:
            symbols |= zone(part).symbols()
    alphabet = build_alphabet(
        pre, post, db=db, granularity=options.granularity, extra_symbols=symbols
    )
    builder = StateAutomatonBuilder(alphabet=alphabet, granularity=options.granularity, db=db)
    compiled = [compile_spec_nested(each, alphabet) for each in specs]

    report = VerificationReport(granularity=options.granularity, workers=max(1, options.workers))
    for fec_id in dict.fromkeys(pre.fec_ids() + post.fec_ids()):
        fec = pre.fec(fec_id) if fec_id in pre else post.fec(fec_id)
        chosen = next(
            (
                compiled[index + 1]
                for index, guarded in enumerate(policy.guarded)
                if guarded.applies_to(fec)
            ),
            compiled[0],
        )
        report.unique_checks += 1
        report.record(
            _check(
                chosen, fec_id, str(fec), pre.graph(fec_id), post.graph(fec_id), builder, options
            )
        )
    if not options.collect_counterexamples:
        report.counterexamples = []
    report.finalize()
    report.elapsed_seconds = time.perf_counter() - started
    return report
