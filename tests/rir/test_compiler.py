"""Tests for RIR compilation to automata, including differential testing
against the set-based reference semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import Alphabet, FSA
from repro.errors import CompilationError
from repro.rir import (
    PSComplement,
    PSConcat,
    PSEmpty,
    PSEpsilon,
    PSImage,
    PSIntersect,
    PSPostState,
    PSPreState,
    PSStar,
    PSSymbol,
    PSUnion,
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
    compile_pathset,
    compile_rel_lazy,
    eval_pathset,
    eval_rel,
)
from repro.testing.pairs import relation_pairs

SIGMA = ("a", "b", "c")


def make_context(
    pre: set[tuple[str, ...]], post: set[tuple[str, ...]], *, with_specials: bool = True
) -> RIRContext:
    alphabet = Alphabet(SIGMA, with_specials=with_specials)
    pre_fsa = FSA.from_words(alphabet, [list(p) for p in pre])
    post_fsa = FSA.from_words(alphabet, [list(p) for p in post])
    return RIRContext(alphabet, pre_fsa, post_fsa)


def test_compile_primitives():
    ctx = make_context({("a",)}, {("b",)})
    assert compile_pathset(PSEmpty(), ctx).is_empty()
    assert compile_pathset(PSEpsilon(), ctx).accepts([])
    assert compile_pathset(PSSymbol("a"), ctx).accepts(["a"])
    assert compile_pathset(PSPreState(), ctx).accepts(["a"])
    assert compile_pathset(PSPostState(), ctx).accepts(["b"])


def test_compile_image():
    ctx = make_context({("a", "b")}, set())
    rel = RCross(PSConcat(PSSymbol("a"), PSSymbol("b")), PSSymbol("c"))
    image = compile_pathset(PSImage(PSPreState(), rel), ctx)
    assert image.language() == {("c",)}


def test_compile_relation_operations():
    ctx = make_context(set(), set())

    def pairs(rel):
        return relation_pairs(compile_rel_lazy(rel, ctx), max_length=4)

    assert pairs(REmpty()) == set()
    assert pairs(REpsilon()) == {((), ())}
    rel = RUnion(
        RCross(PSSymbol("a"), PSSymbol("b")),
        RIdentity(PSSymbol("c")),
    )
    assert pairs(rel) == {(("a",), ("b",)), (("c",), ("c",))}
    composed = RCompose(
        RCross(PSSymbol("a"), PSSymbol("b")), RCross(PSSymbol("b"), PSSymbol("c"))
    )
    assert pairs(composed) == {(("a",), ("c",))}
    chained = RConcat(RIdentity(PSSymbol("a")), RCross(PSSymbol("b"), PSSymbol("c")))
    assert pairs(chained) == {(("a", "b"), ("a", "c"))}
    starred = RStar(RCross(PSSymbol("a"), PSEpsilon()))
    assert pairs(starred) == {(("a",) * n, ()) for n in range(5)}


def test_compilation_cache_reuses_results():
    ctx = make_context({("a",)}, set())
    node = PSUnion(PSSymbol("a"), PSSymbol("b"))
    first = compile_pathset(node, ctx)
    second = compile_pathset(node, ctx)
    assert first is second


def test_unknown_node_raises():
    ctx = make_context(set(), set())

    class Bogus(PSSymbol.__mro__[1]):  # a PathSet subclass the compiler ignores
        __slots__ = ()

    with pytest.raises(CompilationError):
        compile_pathset(Bogus(), ctx)


# ----------------------------------------------------------------------
# Differential testing: compiled automata vs. reference semantics
# ----------------------------------------------------------------------
def pathset_strategy(max_depth: int = 3) -> st.SearchStrategy:
    leaves = st.one_of(
        st.sampled_from(SIGMA).map(PSSymbol),
        st.just(PSEpsilon()),
        st.just(PSEmpty()),
        st.just(PSPreState()),
        st.just(PSPostState()),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: PSUnion(*pair)),
            st.tuples(children, children).map(lambda pair: PSConcat(*pair)),
            st.tuples(children, children).map(lambda pair: PSIntersect(*pair)),
            children.map(PSStar),
            children.map(PSComplement),
            st.tuples(children, children).map(lambda pair: PSImage(pair[0], RIdentity(pair[1]))),
            st.tuples(children, children).map(
                lambda pair: PSImage(pair[0], RCross(pair[0], pair[1]))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def snapshot_strategy() -> st.SearchStrategy[set[tuple[str, ...]]]:
    path = st.lists(st.sampled_from(SIGMA), min_size=1, max_size=3).map(tuple)
    return st.sets(path, max_size=3)


@settings(max_examples=40, deadline=None)
@given(node=pathset_strategy(), pre=snapshot_strategy(), post=snapshot_strategy())
def test_compiler_agrees_with_reference_semantics(node, pre, post):
    """The automata compiler and Appendix A semantics agree on bounded words."""
    bound = 4
    model = RIRModel(pre=pre, post=post, sigma=SIGMA, max_length=bound)
    reference = eval_pathset(node, model)

    ctx = make_context(pre, post)
    compiled = compile_pathset(node, ctx)
    # Restrict comparison to words within the reference bound: the automata
    # semantics is exact (unbounded), the reference semantics is bounded.
    compiled_words = {
        w
        for w in compiled.enumerate_words(max_count=5000, max_length=bound)
        if all(symbol in SIGMA for symbol in w)
    }
    reference_words = {w for w in reference if len(w) <= bound}
    assert compiled_words == reference_words


def relation_strategy() -> st.SearchStrategy:
    """Relations over every ``Rel`` node, with finite leaf languages."""
    pathsets = st.one_of(
        st.sampled_from(SIGMA).map(PSSymbol),
        st.just(PSEpsilon()),
        st.just(PSEmpty()),
        st.just(PSPreState()),
    )
    leaves = st.one_of(
        pathsets.map(RIdentity),
        pathsets.map(lambda inner: RIdentity(PSComplement(inner))),
        st.tuples(pathsets, pathsets).map(lambda pair: RCross(*pair)),
        st.just(REmpty()),
        st.just(REpsilon()),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: RUnion(*pair)),
            st.tuples(children, children).map(lambda pair: RConcat(*pair)),
            st.tuples(children, children).map(lambda pair: RCompose(*pair)),
            children.map(RStar),
        )

    return st.recursive(leaves, extend, max_leaves=3)


@settings(max_examples=40, deadline=None)
@given(
    rel=relation_strategy(),
    pre=st.sets(st.lists(st.sampled_from(SIGMA), min_size=1, max_size=2).map(tuple), max_size=3),
)
def test_relation_compiler_agrees_with_reference_semantics(rel, pre):
    """Every ``Rel`` node compiles to a delayed relation with the Appendix A
    pairs, and ``PreState ▷ rel`` to the Appendix A image."""
    bound = 3
    # Evaluate on a longer model, so that a composition's middle word and an
    # image's source word, which the bounded comparison leaves unbounded,
    # fit in it: leaf words have at most two symbols and a term at most
    # three leaves, so a forced middle word has at most four.
    model = RIRModel(pre=pre, sigma=SIGMA, max_length=5)
    semantic = eval_rel(rel, model)
    # No drop/# specials: complement is relative to the alphabet.
    ctx = make_context(pre, set(), with_specials=False)
    assert relation_pairs(compile_rel_lazy(rel, ctx), max_length=bound) == {
        (p, q) for p, q in semantic if len(p) <= bound and len(q) <= bound
    }
    image = compile_pathset(PSImage(PSPreState(), rel), ctx)
    assert set(image.enumerate_words(max_count=5000, max_length=bound)) == {
        q for p, q in semantic if p in pre and len(q) <= bound
    }
