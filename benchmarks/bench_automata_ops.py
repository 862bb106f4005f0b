"""Microbenchmarks for the automata operations on the verification hot path.

Every flow equivalence class check is ``image`` → ``compare`` (plus the
occasional ``minimize`` inside spec compilation), so these three operations
dominate end-to-end validation time.  The benchmarks run them on synthetic
automata sized like backbone FECs — small layered DAG path sets over an
alphabet with hundreds of locations — and print the op counts of the lazy
constructions next to their eager reference oracles, so the speedup (and its
cause: no full-``Sigma`` completion, product bounded by local out-degree)
stays visible in CI output.
"""

from __future__ import annotations

import time

from repro.automata import FSA, Alphabet, compare
from repro.automata.fst import FST
from repro.automata.lazy import difference_dfa

#: Locations in a synthetic backbone at router granularity.
ALPHABET_SIZE = 120
#: Hops per synthetic forwarding path (source → core → core → sink).
LAYERS = 5
#: ECMP fan-out per layer.
WIDTH = 3


def backbone_alphabet() -> Alphabet:
    return Alphabet([f"r{index}" for index in range(ALPHABET_SIZE)])


def fec_path_set(alphabet: Alphabet, *, offset: int = 0) -> FSA:
    """A layered ECMP DAG path set, the shape of one backbone FEC."""
    words = []
    for lane in range(WIDTH):
        word = [f"r{(offset + layer * WIDTH + lane) % ALPHABET_SIZE}" for layer in range(LAYERS)]
        words.append(word)
    # Shared-core interleavings, as ForwardingGraph compaction produces.
    words.append([f"r{(offset + layer * WIDTH) % ALPHABET_SIZE}" for layer in range(LAYERS - 1)])
    return FSA.from_words(alphabet, words)


def preserve_relation(alphabet: Alphabet) -> FST:
    """The identity relation over ``Sigma*`` — what ``preserve .*`` compiles to."""
    return FST.identity(FSA.any_symbol(alphabet).star())


def test_bench_image_fused_vs_compose():
    alphabet = backbone_alphabet()
    relation = preserve_relation(alphabet)
    path_set = fec_path_set(alphabet)

    fused = relation.image(path_set)
    eager = relation.image_via_compose(path_set)
    assert fused.language() == eager.language()

    print()
    print("image (P ▷ R) on one synthetic FEC, preserve relation over "
          f"|Sigma|={len(alphabet)}:")
    print(f"  fused product : {fused.num_states:>5} states, {fused.num_transitions:>6} transitions")
    print(f"  via compose   : {eager.num_states:>5} states, {eager.num_transitions:>6} transitions")


def test_bench_compare_lazy_vs_eager():
    alphabet = backbone_alphabet()
    relation = preserve_relation(alphabet)
    lhs = relation.image(fec_path_set(alphabet))
    rhs = relation.image(fec_path_set(alphabet))

    result = compare(lhs, rhs)
    assert result.equal

    lazy_product = difference_dfa(lhs, rhs)
    started = time.perf_counter()
    eager_product = lhs.difference(rhs)
    eager_seconds = time.perf_counter() - started

    print()
    print("compare on two equal synthetic FEC path sets:")
    print(f"  lazy product  : {lazy_product.num_states:>5} states, "
          f"{lazy_product.num_transitions:>6} transitions (implicit sink, no completion)")
    print(f"  eager product : {eager_product.num_states:>5} states, "
          f"{eager_product.num_transitions:>6} transitions "
          f"(one difference pass: {eager_seconds * 1000:.1f} ms)")
    # The lazy product never materializes the Sigma-sized completion rows.
    assert lazy_product.num_transitions < eager_product.num_transitions


def test_bench_compare_violation_early_exit():
    alphabet = backbone_alphabet()
    relation = preserve_relation(alphabet)
    lhs = relation.image(fec_path_set(alphabet))
    rhs = relation.image(fec_path_set(alphabet, offset=1))

    result = compare(lhs, rhs)
    assert not result.equal
    assert result.missing and result.unexpected


def test_bench_minimize_smaller_half():
    alphabet = backbone_alphabet()
    union = fec_path_set(alphabet)
    for offset in range(1, 8):
        union = union.union(fec_path_set(alphabet, offset=offset * 7))

    minimal = union.minimize()
    assert minimal.equivalent(union)

    dfa = union.determinize()
    print()
    print("minimize on the union of 8 synthetic FEC path sets:")
    print(f"  input NFA     : {union.num_states:>5} states")
    print(f"  determinized  : {dfa.num_states:>5} states")
    print(f"  minimal DFA   : {minimal.num_states:>5} states")
