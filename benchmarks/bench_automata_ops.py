"""Microbenchmarks for the automata operations on the verification hot path.

Every flow equivalence class check is ``relation_image`` → ``compare``
(plus the occasional ``minimize`` inside spec compilation), so these three
operations dominate end-to-end validation time.  The benchmarks run them on
synthetic automata sized like backbone FECs — small layered DAG path sets
over an alphabet with hundreds of locations — and print the sizes of the
lazy constructions (next to the eager reference oracle for ``compare``), so
the cause of their speed — no full-``Sigma`` completion, products bounded by
local out-degree — stays visible in CI output.
"""

from __future__ import annotations

import time

from repro.automata import FSA, Alphabet, LazyIdentity, compare, relation_image
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


def preserve_relation(alphabet: Alphabet) -> LazyIdentity:
    """The identity relation over ``Sigma*`` — what ``preserve .*`` compiles to."""
    return LazyIdentity(FSA.any_symbol(alphabet).star())


def test_bench_image_preserve():
    alphabet = backbone_alphabet()
    relation = preserve_relation(alphabet)
    path_set = fec_path_set(alphabet)

    started = time.perf_counter()
    image = relation_image(relation, path_set)
    seconds = time.perf_counter() - started
    # Preserve relates every path to itself: the image is the acceptor.
    assert image.language() == path_set.language()

    print()
    print("image (P ▷ R) on one synthetic FEC, preserve relation over "
          f"|Sigma|={len(alphabet)}:")
    print(f"  acceptor      : {path_set.num_states:>5} states, "
          f"{path_set.num_transitions:>6} transitions")
    print(f"  fused product : {image.num_states:>5} states, "
          f"{image.num_transitions:>6} transitions ({seconds * 1000:.2f} ms)")


def test_bench_compare_lazy_vs_eager():
    alphabet = backbone_alphabet()
    relation = preserve_relation(alphabet)
    lhs = relation_image(relation, fec_path_set(alphabet))
    rhs = relation_image(relation, fec_path_set(alphabet))

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
    lhs = relation_image(relation, fec_path_set(alphabet))
    rhs = relation_image(relation, fec_path_set(alphabet, offset=1))

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
