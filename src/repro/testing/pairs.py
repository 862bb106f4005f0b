"""Bounded enumeration of a delayed relation's word pairs.

Differential tests compare a compiled relation with the set semantics of
:mod:`repro.rir.semantics` (paper Appendix A), which denotes a relation as a
finite set of path pairs on a bounded model.  :func:`relation_pairs` produces
the same kind of set from a :class:`~repro.automata.lazy.LazyFST` by walking
its arc-iteration protocol, so no image walk or other production code sits
between the relation and the comparison.
"""

from __future__ import annotations

from repro.automata.fsa import EPSILON
from repro.automata.lazy import LazyFST

Path = tuple[str, ...]


def relation_pairs(relation: LazyFST, *, max_length: int) -> set[tuple[Path, Path]]:
    """Every ``(input, output)`` pair of ``relation`` with both words of at
    most ``max_length`` symbols.

    The walk tries every alphabet symbol at every reachable state — the
    ``|Sigma| * |states|`` expansion the verifier never performs — so keep
    the alphabet and the bound small.  Epsilon cycles terminate because a
    ``(state, input, output)`` triple is visited once.
    """
    start = (relation.initial, (), ())
    seen = {start}
    stack = [start]
    pairs: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    symbols = relation.alphabet.ids()
    while stack:
        state, word_in, word_out = stack.pop()
        if relation.is_accepting(state):
            pairs.add((word_in, word_out))
        moves = [(word_in, out, dst) for out, dst in relation.eps_arcs(state)]
        if len(word_in) < max_length:
            moves += [
                (word_in + (symbol,), out, dst)
                for symbol in symbols
                for out, dst in relation.step(state, symbol)
            ]
        for next_in, out, dst in moves:
            if out is EPSILON:
                next_out = word_out
            elif len(word_out) < max_length:
                next_out = word_out + (out,)
            else:
                continue
            key = (dst, next_in, next_out)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    to_word = relation.alphabet.ids_to_word
    return {(to_word(word_in), to_word(word_out)) for word_in, word_out in pairs}
