"""Ablation: equivalence-checking strategy inside the decision procedure.

DESIGN.md calls out the choice between (a) comparing path-set automata
directly via product-with-complement difference checks (what the engine does)
and (b) determinizing and minimizing both sides first and comparing the
minimal DFAs.  This benchmark measures both strategies on the images produced
while verifying the Figure 1 change and checks they agree, quantifying the
cost of the extra minimization.
"""

from __future__ import annotations

import time

from repro.verifier import build_alphabet, compile_spec
from repro.verifier.state_automata import StateAutomatonBuilder


def build_image_pairs(scenario):
    """The (lhs, rhs) automaton pairs the verifier compares for iteration v2."""
    pre = scenario.pre_change()
    post = scenario.iteration_v2()
    spec = scenario.refined_spec()
    alphabet = build_alphabet(pre, post, db=scenario.db)
    compiled = compile_spec(spec, alphabet)
    builder = StateAutomatonBuilder(alphabet=alphabet, db=scenario.db)
    pairs = []
    for fec_id in pre.fec_ids()[:12]:
        pre_fsa = builder.build(pre.graph(fec_id))
        post_fsa = builder.build(post.graph(fec_id))
        pairs.append((compiled.pre_fst.image(pre_fsa), compiled.post_fst.image(post_fsa)))
    return pairs


def direct_strategy(pairs):
    return [lhs.difference(rhs).is_empty() and rhs.difference(lhs).is_empty() for lhs, rhs in pairs]


def minimize_strategy(pairs):
    results = []
    for lhs, rhs in pairs:
        results.append(lhs.minimize().equivalent(rhs.minimize()))
    return results


def test_ablation_equivalence_strategies(figure1_scenario):
    pairs = build_image_pairs(figure1_scenario)

    direct = direct_strategy(pairs)

    started = time.perf_counter()
    minimized = minimize_strategy(pairs)
    minimize_time = time.perf_counter() - started
    started = time.perf_counter()
    direct_again = direct_strategy(pairs)
    direct_time = time.perf_counter() - started

    assert direct == minimized == direct_again

    print()
    print("Ablation: equivalence-checking strategy over Figure 1 v2 image pairs")
    print(f"  direct difference checks : {direct_time*1000:8.1f} ms")
    print(f"  minimize-then-compare    : {minimize_time*1000:8.1f} ms")
    print(f"  verdicts agree on all {len(pairs)} flow equivalence classes")
