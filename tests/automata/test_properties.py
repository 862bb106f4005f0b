"""Property-based tests for the automata substrate (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.automata import FSA, Alphabet, check_equal, check_subset, compare
from repro.automata.fsa import EPSILON
from repro.automata.lazy import (
    LazyComplementZone,
    LazyCompose,
    LazyConcat,
    LazyCross,
    LazyFST,
    LazyIdentity,
    LazyStar,
    LazyUnion,
    difference_dfa,
    relation_image,
    shortest_witness,
)
from repro.automata.regex import (
    AnySym,
    Concat,
    Empty,
    Epsilon,
    Regex,
    Star,
    Sym,
    Union,
)
from repro.rir import (
    PathSet,
    PSComplement,
    PSImage,
    PSRegex,
    RCompose,
    RConcat,
    RCross,
    REmpty,
    REpsilon,
    RIdentity,
    RIRContext,
    RIRModel,
    RStar,
    RUnion,
    Rel,
    compile_pathset,
    compile_rel_lazy,
    eval_pathset,
    eval_rel,
    union_all,
    word,
)
from repro.testing.pairs import relation_pairs

SYMBOLS = ["a", "b", "c"]


def regex_strategy(symbols=SYMBOLS) -> st.SearchStrategy[Regex]:
    leaves = st.one_of(
        st.sampled_from(symbols).map(Sym),
        st.just(Epsilon()),
        st.just(Empty()),
        st.just(AnySym()),
    )

    def extend(children: st.SearchStrategy[Regex]) -> st.SearchStrategy[Regex]:
        return st.one_of(
            st.tuples(children, children).map(lambda pair: Union(*pair)),
            st.tuples(children, children).map(lambda pair: Concat(*pair)),
            children.map(Star),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def words_strategy() -> st.SearchStrategy[list[str]]:
    return st.lists(st.sampled_from(SYMBOLS), max_size=4)


def fresh_alphabet() -> Alphabet:
    return Alphabet(SYMBOLS)


@settings(max_examples=40, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_union_with_self_is_idempotent(regex, word):
    ab = fresh_alphabet()
    single = regex.to_fsa(ab)
    doubled = Union(regex, regex).to_fsa(ab)
    assert single.accepts(word) == doubled.accepts(word)


@settings(max_examples=40, deadline=None)
@given(left=regex_strategy(), right=regex_strategy(), word=words_strategy())
def test_union_is_commutative(left, right, word):
    ab = fresh_alphabet()
    assert Union(left, right).to_fsa(ab).accepts(word) == Union(right, left).to_fsa(ab).accepts(word)


@settings(max_examples=40, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_concat_with_epsilon_is_identity(regex, word):
    ab = fresh_alphabet()
    assert Concat(regex, Epsilon()).to_fsa(ab).accepts(word) == regex.to_fsa(ab).accepts(word)
    assert Concat(Epsilon(), regex).to_fsa(ab).accepts(word) == regex.to_fsa(ab).accepts(word)


@settings(max_examples=40, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_concat_with_empty_is_empty(regex, word):
    ab = fresh_alphabet()
    assert not Concat(regex, Empty()).to_fsa(ab).accepts(word)


@settings(max_examples=30, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_complement_flips_membership(regex, word):
    ab = fresh_alphabet()
    fsa = regex.to_fsa(ab)
    comp = fsa.complement()
    assert fsa.accepts(word) != comp.accepts(word)


@settings(max_examples=30, deadline=None)
@given(regex=regex_strategy())
def test_determinize_and_minimize_preserve_language(regex):
    ab = fresh_alphabet()
    fsa = regex.to_fsa(ab)
    assert fsa.determinize().equivalent(fsa)
    assert fsa.minimize().equivalent(fsa)


@settings(max_examples=30, deadline=None)
@given(left=regex_strategy(), right=regex_strategy(), word=words_strategy())
def test_de_morgan_for_languages(left, right, word):
    ab = fresh_alphabet()
    lhs = left.to_fsa(ab).union(right.to_fsa(ab)).complement()
    rhs = left.to_fsa(ab).complement().intersect(right.to_fsa(ab).complement())
    assert lhs.accepts(word) == rhs.accepts(word)


@settings(max_examples=30, deadline=None)
@given(regex=regex_strategy())
def test_difference_with_self_is_empty(regex):
    ab = fresh_alphabet()
    fsa = regex.to_fsa(ab)
    assert fsa.difference(fsa.copy()).is_empty()


@settings(max_examples=30, deadline=None)
@given(regex=regex_strategy(), word=words_strategy())
def test_enumerated_words_are_accepted(regex, word):
    ab = fresh_alphabet()
    fsa = regex.to_fsa(ab)
    for enumerated in fsa.enumerate_words(max_count=10, max_length=6):
        assert fsa.accepts(enumerated)


# ----------------------------------------------------------------------
# Lazy product engine vs. the eager reference oracle, on randomized NFAs
# ----------------------------------------------------------------------
# A randomized NFA description: state count, transition triples (src, symbol
# index or epsilon, dst) and accepting states.  Descriptions are alphabet-
# independent so each test can build them on a fresh Alphabet instance.
NfaDescription = tuple[int, list[tuple[int, int | None, int]], frozenset[int]]


@st.composite
def nfa_strategy(draw) -> NfaDescription:
    num_states = draw(st.integers(min_value=1, max_value=4))
    labels = st.one_of(st.none(), st.integers(min_value=0, max_value=len(SYMBOLS) - 1))
    states = st.integers(min_value=0, max_value=num_states - 1)
    transitions = draw(st.lists(st.tuples(states, labels, states), max_size=10))
    accepting = draw(st.frozensets(states, max_size=num_states))
    return num_states, transitions, accepting


def build_nfa(description: NfaDescription, alphabet: Alphabet) -> FSA:
    num_states, transitions, accepting = description
    fsa = FSA(alphabet)
    while fsa.num_states < num_states:
        fsa.add_state()
    for src, label, dst in transitions:
        symbol = EPSILON if label is None else alphabet.id_of(SYMBOLS[label])
        fsa.add_transition(src, symbol, dst)
    for state in accepting:
        fsa.mark_accepting(state)
    return fsa


@settings(max_examples=60, deadline=None)
@given(left=nfa_strategy(), right=nfa_strategy())
def test_lazy_subset_and_equality_match_eager_oracle(left, right):
    ab = fresh_alphabet()
    left_fsa, right_fsa = build_nfa(left, ab), build_nfa(right, ab)
    assert check_subset(left_fsa, right_fsa) == left_fsa.difference(right_fsa).is_empty()
    assert check_equal(left_fsa, right_fsa) == (
        left_fsa.difference(right_fsa).is_empty()
        and right_fsa.difference(left_fsa).is_empty()
    )


@settings(max_examples=60, deadline=None)
@given(left=nfa_strategy(), right=nfa_strategy())
def test_lazy_difference_matches_eager_language(left, right):
    ab = fresh_alphabet()
    left_fsa, right_fsa = build_nfa(left, ab), build_nfa(right, ab)
    lazy = difference_dfa(left_fsa, right_fsa)
    eager = left_fsa.difference(right_fsa)
    assert lazy.is_empty() == eager.is_empty()
    assert lazy.language(max_count=50, max_length=8) == eager.language(max_count=50, max_length=8)


@settings(max_examples=60, deadline=None)
@given(left=nfa_strategy(), right=nfa_strategy())
def test_lazy_witnesses_lie_in_the_symmetric_difference(left, right):
    ab = fresh_alphabet()
    left_fsa, right_fsa = build_nfa(left, ab), build_nfa(right, ab)
    result = compare(left_fsa, right_fsa)
    assert result.equal == left_fsa.equivalent(right_fsa)
    for word in result.missing:
        assert left_fsa.accepts(word) and not right_fsa.accepts(word)
    for word in result.unexpected:
        assert right_fsa.accepts(word) and not left_fsa.accepts(word)
    # Witness sets agree with the eager enumeration (same words, same order).
    assert result.missing == list(
        left_fsa.difference(right_fsa).enumerate_words(max_count=10, max_length=64)
    )
    assert result.unexpected == list(
        right_fsa.difference(left_fsa).enumerate_words(max_count=10, max_length=64)
    )


@settings(max_examples=60, deadline=None)
@given(left=nfa_strategy(), right=nfa_strategy())
def test_shortest_witness_is_shortest_and_genuine(left, right):
    ab = fresh_alphabet()
    left_fsa, right_fsa = build_nfa(left, ab), build_nfa(right, ab)
    witness = shortest_witness(left_fsa, right_fsa)
    eager = left_fsa.difference(right_fsa)
    if witness is None:
        assert eager.is_empty()
    else:
        assert left_fsa.accepts(witness) and not right_fsa.accepts(witness)
        shortest = eager.shortest_accepted()
        assert shortest is not None and len(witness) == len(shortest)


# ----------------------------------------------------------------------
# Delayed transducer nodes vs. Appendix A set semantics
# ----------------------------------------------------------------------
# Each lazy node is compared with the set semantics of the relation it
# denotes (repro.rir.semantics), which evaluates every operation eagerly on
# a bounded model and shares no automata code with the nodes.  Pairs are
# compared up to PAIR_BOUND symbols per word.  The model is evaluated to
# MODEL_BOUND, so that the middle word of a composition and the source word
# of an image, which the comparison leaves unbounded, fit in the model: leaf
# words have at most two symbols, and a composition has at most three leaves
# on either side, so a word it forces in the middle has at most six.
REL_SIGMA = ("a", "b")
PAIR_BOUND = 3
MODEL_BOUND = 6


def rel_alphabet() -> Alphabet:
    # No drop/# specials: complement is relative to the alphabet, and the
    # model's universe is built over REL_SIGMA.
    return Alphabet(REL_SIGMA, with_specials=False)


def finite_pathset_strategy() -> st.SearchStrategy[PathSet]:
    """Up to three words of at most two symbols, as an RIR path set."""
    words = st.lists(st.sampled_from(REL_SIGMA), max_size=2).map(tuple)
    return st.frozensets(words, max_size=3).map(
        lambda items: union_all([word(item) for item in sorted(items)])
    )


def zone_strategy() -> st.SearchStrategy[PathSet]:
    """An arbitrary regular path set (stars, wildcards) for identity leaves."""
    return regex_strategy(REL_SIGMA).map(PSRegex)


def relation_strategy(max_leaves: int = 4) -> st.SearchStrategy[Rel]:
    """RIR relation terms over every ``Rel`` node, with finite leaf languages
    (or the complement of one, as the branch-shadowing prefix)."""
    pathsets = finite_pathset_strategy()
    leaves = st.one_of(
        pathsets.map(RIdentity),
        pathsets.map(lambda inner: RIdentity(PSComplement(inner))),
        st.tuples(pathsets, pathsets).map(lambda pair: RCross(*pair)),
        st.just(REmpty()),
        st.just(REpsilon()),
    )

    def extend(children: st.SearchStrategy[Rel]) -> st.SearchStrategy[Rel]:
        return st.one_of(
            st.tuples(children, children).map(lambda pair: RUnion(*pair)),
            st.tuples(children, children).map(lambda pair: RConcat(*pair)),
            st.tuples(children, children).map(lambda pair: RCompose(*pair)),
            children.map(RStar),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def context(alphabet: Alphabet) -> RIRContext:
    empty = FSA.empty_language(alphabet)
    return RIRContext(alphabet, empty, empty)


def compile_lazy(rel: Rel, alphabet: Alphabet) -> LazyFST:
    return compile_rel_lazy(rel, context(alphabet))


def assert_matches_semantics(lazy: LazyFST, rel: Rel, source: PathSet) -> None:
    """``lazy`` relates the bounded pairs Appendix A gives ``rel``, and its
    image of ``source`` is the bounded semantic image."""
    model = RIRModel(sigma=REL_SIGMA, max_length=MODEL_BOUND)
    semantic = eval_rel(rel, model)
    assert relation_pairs(lazy, max_length=PAIR_BOUND) == {
        (p, q) for p, q in semantic if len(p) <= PAIR_BOUND and len(q) <= PAIR_BOUND
    }
    inputs = eval_pathset(source, model)
    acceptor = compile_pathset(source, context(lazy.alphabet))
    assert relation_image(lazy, acceptor).language(max_length=PAIR_BOUND) == {
        q for p, q in semantic if p in inputs and len(q) <= PAIR_BOUND
    }


@settings(max_examples=60, deadline=None)
@given(rel=relation_strategy(), source=finite_pathset_strategy())
def test_fused_image_matches_compose_oracle(rel, source):
    """The image walk agrees with Appendix A's image, which composes
    ``I(source)`` with the relation and projects the output tape."""
    image = compile_pathset(PSImage(source, rel), context(rel_alphabet()))
    model = RIRModel(sigma=REL_SIGMA, max_length=MODEL_BOUND)
    expected = eval_pathset(PSImage(source, rel), model)
    assert image.language(max_length=PAIR_BOUND) == {q for q in expected if len(q) <= PAIR_BOUND}


@settings(max_examples=60, deadline=None)
@given(left=relation_strategy(), right=relation_strategy(), source=finite_pathset_strategy())
def test_lazy_union_matches_eager_union(left, right, source):
    ab = rel_alphabet()
    lazy = LazyUnion(compile_lazy(left, ab), compile_lazy(right, ab))
    assert_matches_semantics(lazy, RUnion(left, right), source)


@settings(max_examples=60, deadline=None)
@given(
    left=relation_strategy(max_leaves=3),
    right=relation_strategy(max_leaves=3),
    source=finite_pathset_strategy(),
)
def test_lazy_compose_matches_eager_compose(left, right, source):
    ab = rel_alphabet()
    lazy = LazyCompose(compile_lazy(left, ab), compile_lazy(right, ab))
    assert_matches_semantics(lazy, RCompose(left, right), source)


@settings(max_examples=60, deadline=None)
@given(left=relation_strategy(), right=relation_strategy(), source=finite_pathset_strategy())
def test_lazy_concat_matches_set_semantics(left, right, source):
    ab = rel_alphabet()
    lazy = LazyConcat(compile_lazy(left, ab), compile_lazy(right, ab))
    assert_matches_semantics(lazy, RConcat(left, right), source)


@settings(max_examples=60, deadline=None)
@given(inner=relation_strategy(), source=finite_pathset_strategy())
def test_lazy_star_matches_set_semantics(inner, source):
    ab = rel_alphabet()
    assert_matches_semantics(LazyStar(compile_lazy(inner, ab)), RStar(inner), source)


@settings(max_examples=60, deadline=None)
@given(language=zone_strategy(), source=finite_pathset_strategy())
def test_lazy_identity_and_complement_zone_match_eager(language, source):
    ab = rel_alphabet()
    language_fsa = language.regex.to_fsa(ab)
    assert_matches_semantics(LazyIdentity(language_fsa), RIdentity(language), source)
    assert_matches_semantics(
        LazyComplementZone(language_fsa), RIdentity(PSComplement(language)), source
    )


@settings(max_examples=60, deadline=None)
@given(reader=zone_strategy(), writer=zone_strategy(), source=finite_pathset_strategy())
def test_lazy_cross_matches_eager_cross(reader, writer, source):
    ab = rel_alphabet()
    lazy = LazyCross(reader.regex.to_fsa(ab), writer.regex.to_fsa(ab))
    assert_matches_semantics(lazy, RCross(reader, writer), source)


@settings(max_examples=40, deadline=None)
@given(
    zone=zone_strategy(),
    primary=relation_strategy(),
    fallback=relation_strategy(),
    source=finite_pathset_strategy(),
)
def test_lazy_branch_shadowing_matches_eager_pipeline(zone, primary, fallback, source):
    """The spec-compilation shape R1 | (I(¬Z) ∘ R2), delayed vs. Appendix A."""
    ab = rel_alphabet()
    lazy = LazyUnion(
        compile_lazy(primary, ab),
        LazyCompose(LazyComplementZone(zone.regex.to_fsa(ab)), compile_lazy(fallback, ab)),
    )
    expected = RUnion(primary, RCompose(RIdentity(PSComplement(zone)), fallback))
    assert_matches_semantics(lazy, expected, source)
