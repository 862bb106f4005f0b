"""Tests for the delayed-operation transducer layer (repro.automata.lazy).

Relations are checked against the paper's Appendix A set semantics
(:mod:`repro.rir.semantics`), which evaluates the same construction eagerly
over bounded path sets and shares no automata code with the nodes.
"""

from __future__ import annotations

import pickle

from repro.automata import (
    FSA,
    Alphabet,
    LazyComplementZone,
    LazyCompose,
    LazyConcat,
    LazyCross,
    LazyIdentity,
    LazyStar,
    LazyUnion,
    check_equal,
    parse_regex,
)
from repro.rir import (
    PathSet,
    PSComplement,
    RCompose,
    RConcat,
    RCross,
    RIdentity,
    RIRModel,
    RStar,
    RUnion,
    Rel,
    eval_rel,
    union_all,
    word,
)
from repro.testing.pairs import relation_pairs

SIGMA = ("a", "b", "c")
#: Word-length bound of the set semantics and of the pair enumeration.
BOUND = 3


def alphabet() -> Alphabet:
    # No drop/# specials: complement is relative to the alphabet, and the
    # set semantics' universe is built over SIGMA.
    return Alphabet(SIGMA, with_specials=False)


def words(ab: Alphabet, *items: list[str]) -> FSA:
    return FSA.from_words(ab, list(items))


def lit(*items: list[str]) -> PathSet:
    """The RIR path set of ``items`` (the set-semantics twin of :func:`words`)."""
    return union_all([word(item) for item in items])


def assert_same_relation(lazy, expected: Rel) -> None:
    """``lazy`` relates exactly the bounded pairs Appendix A gives ``expected``,
    and its image of ``Sigma*`` is their range."""
    semantic = eval_rel(expected, RIRModel(sigma=SIGMA, max_length=BOUND))
    assert relation_pairs(lazy, max_length=BOUND) == semantic
    sigma_star = FSA.any_symbol(lazy.alphabet).star()
    assert lazy.image(sigma_star).language(max_length=BOUND) == {q for _, q in semantic}


def test_lazy_identity_matches_eager_identity():
    ab = alphabet()
    lazy = LazyIdentity(words(ab, ["a"], ["a", "b"], ["c", "c"]))
    assert_same_relation(lazy, RIdentity(lit(["a"], ["a", "b"], ["c", "c"])))
    probe = words(ab, ["a"], ["b"], ["a", "b"])
    assert lazy.image(probe).language() == {("a",), ("a", "b")}


def test_lazy_identity_image_pairs_each_acceptor_state_with_one_subset():
    # A Thompson NFA for .*b.* has many epsilon-linked states; pairing them
    # all with every acceptor state is what the frontier subset
    # construction avoids.
    ab = alphabet()
    leaf = LazyIdentity(parse_regex(".* b .*").to_fsa(ab))
    path = words(ab, ["a", "b", "c", "a"])
    assert path.num_states == 5
    image = leaf.image(path)
    assert image.num_states <= 2 * path.num_states
    assert image.accepts(["a", "b", "c", "a"])


def test_lazy_complement_zone_is_identity_of_complement():
    ab = alphabet()
    lazy = LazyComplementZone(words(ab, ["a"], ["a", "b"]))
    assert_same_relation(lazy, RIdentity(PSComplement(lit(["a"], ["a", "b"]))))
    # The implicit sink accepts: words far outside the zone map to themselves.
    probe = words(ab, ["c", "c", "c", "c"], ["a"], ["b"])
    image = lazy.image(probe)
    assert image.accepts(["c", "c", "c", "c"])
    assert image.accepts(["b"])
    assert not image.accepts(["a"])


def test_lazy_complement_zone_never_materializes_sigma_rows():
    # A large alphabet: the delayed node must only expand the symbols the
    # acceptor actually presents, independently of |Sigma|.
    ab = Alphabet([f"s{i}" for i in range(500)])
    zone = FSA.from_words(ab, [["s0"]])
    lazy = LazyComplementZone(zone)
    probe = FSA.from_words(ab, [["s1", "s2"]])
    image = lazy.image(probe)
    assert image.accepts(["s1", "s2"])
    # Only the queried symbols were ever expanded.
    assert len(lazy._step_cache) <= 4


def test_lazy_union_flattens_and_matches_eager():
    ab = alphabet()
    parts = [LazyIdentity(words(ab, ["a"])), LazyCross(words(ab, ["b"]), words(ab, ["c"]))]
    nested = LazyUnion(LazyUnion(*parts), LazyIdentity(words(ab, ["c", "c"])))
    assert len(nested.operands) == 3  # flattened, not a chain
    expected = RUnion(
        RUnion(RIdentity(lit(["a"])), RCross(lit(["b"]), lit(["c"]))),
        RIdentity(lit(["c", "c"])),
    )
    assert_same_relation(nested, expected)


def test_lazy_compose_matches_eager_compose():
    ab = alphabet()
    lazy = LazyCompose(
        LazyCross(words(ab, ["a"], ["a", "a"]), words(ab, ["b"])),
        LazyCross(words(ab, ["b"]), words(ab, ["c", "c"])),
    )
    expected = RCompose(
        RCross(lit(["a"], ["a", "a"]), lit(["b"])), RCross(lit(["b"]), lit(["c", "c"]))
    )
    assert_same_relation(lazy, expected)


def test_lazy_concat_and_star_match_eager():
    ab = alphabet()
    a_to_b = LazyCross(words(ab, ["a"]), words(ab, ["b"]))
    c_ident = LazyIdentity(words(ab, ["c"], []))
    rel_a_to_b = RCross(lit(["a"]), lit(["b"]))
    rel_c_ident = RIdentity(lit(["c"], []))
    assert_same_relation(LazyConcat(a_to_b, c_ident), RConcat(rel_a_to_b, rel_c_ident))
    assert_same_relation(LazyStar(a_to_b), RStar(rel_a_to_b))
    assert_same_relation(
        LazyStar(LazyConcat(c_ident, a_to_b)), RStar(RConcat(rel_c_ident, rel_a_to_b))
    )


def test_nested_delayed_graph_matches_eager_pipeline():
    # The branch-shadowing shape: I(not Z1) o (R1 | I(not Z2) o R2).
    ab = alphabet()
    lazy = LazyCompose(
        LazyComplementZone(words(ab, ["a"])),
        LazyUnion(
            LazyIdentity(words(ab, ["b"], ["c"])),
            LazyCompose(
                LazyComplementZone(words(ab, ["b"])),
                LazyCross(words(ab, ["c"]), words(ab, ["a"])),
            ),
        ),
    )
    expected = RCompose(
        RIdentity(PSComplement(lit(["a"]))),
        RUnion(
            RIdentity(lit(["b"], ["c"])),
            RCompose(RIdentity(PSComplement(lit(["b"]))), RCross(lit(["c"]), lit(["a"]))),
        ),
    )
    assert_same_relation(lazy, expected)


def test_flat_shadowed_union_equals_nested_else_chain():
    # I(¬Z1) ∘ I(¬Z2) = I(¬(Z1|Z2)): the flat prioritized union used by the
    # engine is language-equal to the nested Figure 4 translation.
    ab = alphabet()
    zone1 = words(ab, ["a"])
    zone2 = words(ab, ["b"])
    r1 = LazyIdentity(words(ab, ["a"], ["c"]))
    r2 = LazyCross(words(ab, ["b"]), words(ab, ["b", "b"]))
    r3 = LazyIdentity(words(ab, ["c"], ["a", "b"]))
    nested = LazyUnion(
        r1,
        LazyCompose(
            LazyComplementZone(zone1),
            LazyUnion(r2, LazyCompose(LazyComplementZone(zone2), r3)),
        ),
    )
    flat = LazyUnion(
        r1,
        LazyCompose(LazyComplementZone(zone1), r2),
        LazyCompose(LazyComplementZone(zone1.union(zone2)), r3),
    )
    sigma_star = FSA.any_symbol(ab).star()
    assert check_equal(nested.image(sigma_star), flat.image(sigma_star))
    probe = words(ab, ["a"], ["b"], ["c"], ["a", "b"])
    assert check_equal(nested.image(probe), flat.image(probe))


def test_lazy_nodes_pickle_roundtrip():
    # Compiled specs ship to worker processes; delayed nodes must pickle,
    # including half-populated expansion caches.
    ab = alphabet()
    zone = words(ab, ["a"])
    lazy = LazyUnion(
        LazyIdentity(words(ab, ["b"])),
        LazyCompose(LazyComplementZone(zone), LazyIdentity(words(ab, ["c"]))),
        LazyCross(words(ab, ["c"]), words(ab, ["a", "a"])),
        LazyStar(LazyConcat(LazyIdentity(words(ab, ["a"])), LazyIdentity(words(ab, ["b"])))),
    )
    probe = words(ab, ["b"], ["c"], ["a", "b", "a", "b"])
    before = lazy.image(probe)  # populate caches
    # Alphabets are compared by identity, so ship the relation and the
    # acceptor in one payload — exactly how the engine ships compiled specs
    # plus the snapshot builder to worker processes.
    clone, probe_clone = pickle.loads(pickle.dumps((lazy, probe)))
    after = clone.image(probe_clone)
    assert before.language() == after.language()


def test_image_memoization_shared_across_queries():
    ab = alphabet()
    lazy = LazyComplementZone(words(ab, ["a"]))
    first = lazy.image(words(ab, ["b"]))
    expanded = len(lazy._step_cache)
    second = lazy.image(words(ab, ["b"]))
    assert first.language() == second.language()
    assert len(lazy._step_cache) == expanded  # second walk hit the caches
