"""Unit tests for the relations the delayed transducer nodes denote.

Each node is checked against its relation written out by hand, as a set of
bounded ``(input, output)`` word pairs (:func:`repro.testing.pairs.relation_pairs`).
"""

import pytest

from repro.automata import (
    FSA,
    Alphabet,
    LazyCompose,
    LazyConcat,
    LazyCross,
    LazyIdentity,
    LazyStar,
    LazyUnion,
    check_equal,
    relation_image,
)
from repro.testing.pairs import relation_pairs


@pytest.fixture()
def ab() -> Alphabet:
    return Alphabet(["a", "b", "c"])


def pairs(relation, max_length: int = 4):
    return relation_pairs(relation, max_length=max_length)


def test_empty_and_epsilon_relations(ab):
    assert pairs(LazyIdentity(FSA.empty_language(ab))) == set()
    assert pairs(LazyIdentity(FSA.epsilon_language(ab))) == {((), ())}


def test_identity_relates_paths_to_themselves(ab):
    fsa = FSA.from_words(ab, [["a", "b"], ["c"]])
    assert pairs(LazyIdentity(fsa)) == {(("a", "b"), ("a", "b")), (("c",), ("c",))}


def test_cross_product_relates_all_pairs(ab):
    left = FSA.from_words(ab, [["a"], ["b"]])
    right = FSA.from_words(ab, [["c"], ["a", "a"]])
    assert pairs(LazyCross(left, right)) == {
        (("a",), ("c",)),
        (("a",), ("a", "a")),
        (("b",), ("c",)),
        (("b",), ("a", "a")),
    }


def test_union_and_concat_of_relations(ab):
    a_to_b = LazyCross(FSA.symbol(ab, "a"), FSA.symbol(ab, "b"))
    c_ident = LazyIdentity(FSA.symbol(ab, "c"))
    assert pairs(LazyUnion(a_to_b, c_ident)) == {(("a",), ("b",)), (("c",), ("c",))}
    assert pairs(LazyConcat(a_to_b, c_ident)) == {(("a", "c"), ("b", "c"))}


def test_star_of_relation(ab):
    a_to_b = LazyCross(FSA.symbol(ab, "a"), FSA.symbol(ab, "b"))
    assert pairs(LazyStar(a_to_b), max_length=3) == {
        (("a",) * n, ("b",) * n) for n in range(4)
    }


def test_compose_chains_relations(ab):
    a_to_b = LazyCross(FSA.symbol(ab, "a"), FSA.symbol(ab, "b"))
    b_to_c = LazyCross(FSA.symbol(ab, "b"), FSA.symbol(ab, "c"))
    assert pairs(LazyCompose(a_to_b, b_to_c)) == {(("a",), ("c",))}


def test_compose_with_identity_is_identity_on_domain(ab):
    fsa = FSA.from_words(ab, [["a", "b"], ["b", "c"]])
    ident = LazyIdentity(fsa)
    assert pairs(LazyCompose(ident, ident)) == pairs(ident)


def test_image_distributes_over_union(ab):
    p1 = FSA.from_words(ab, [["a", "b"]])
    p2 = FSA.from_words(ab, [["c"]])
    rel = LazyIdentity(FSA.from_words(ab, [["a", "b"], ["c"], ["b"]]))
    union_image = relation_image(rel, p1.union(p2))
    separate = relation_image(rel, p1).union(relation_image(rel, p2))
    assert check_equal(union_image, separate)


def test_identity_image_restricts_to_domain(ab):
    domain = FSA.from_words(ab, [["a", "b"], ["c"]])
    candidates = FSA.from_words(ab, [["a", "b"], ["b"], ["c", "c"]])
    restricted = relation_image(LazyIdentity(domain), candidates)
    assert restricted.language() == {("a", "b")}


def test_enumerate_pairs_deduplicates(ab):
    fsa = FSA.symbol(ab, "a").union(FSA.symbol(ab, "a"))
    assert pairs(LazyIdentity(fsa)) == {(("a",), ("a",))}
