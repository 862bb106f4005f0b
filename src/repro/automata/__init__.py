"""Automata substrate: regular languages and rational relations.

This package is the reproduction's stand-in for OpenFST/HFST (Section 7 of
the paper).  It provides finite state automata (:class:`~repro.automata.fsa.FSA`),
delayed finite state transducers (:class:`~repro.automata.lazy.LazyFST`), a
regular expression AST and parser, and the comparison routines the Rela
decision procedure is built on.

Performance architecture
------------------------
The verification hot path (``_check_one_fec`` → ``relation_image`` →
``compare``) runs once per flow equivalence class, over alphabets with
hundreds of network locations, so it avoids every construction whose cost
scales with ``|Sigma|``:

* **Lazy product decision procedures** (:mod:`repro.automata.lazy`): subset,
  equality and difference questions are decided by exploring the product of
  one automaton with the implicitly-completed, implicitly-complemented
  subset construction of the other, on the fly.  Missing moves are an
  implicit sink (the empty subset), the boolean procedures exit on the first
  accepting product state, shortest witnesses come straight off the product
  BFS tree, and the "languages agree" verdict — the common case in change
  validation — costs a single joint pass.  Per-product-state work is bounded
  by the automata's local out-degree, never by ``|Sigma|``.
* **Delayed transducer operations** (the OpenFST-style layer in
  :mod:`repro.automata.lazy`): every relation is a DAG of delayed nodes,
  never a materialized transducer.  :class:`~repro.automata.lazy.LazyFST`
  defines the arc-iteration protocol — ``initial``, ``is_accepting(state)``,
  ``eps_arcs(state)`` (input-epsilon arcs as ``(out, dst)`` pairs) and
  ``step(state, symbol)`` — and seven node types compose over it:

  - :class:`~repro.automata.lazy.LazyIdentity` — ``I(P)``, its language
    determinized along the queried frontier;
  - :class:`~repro.automata.lazy.LazyComplementZone` — ``I(¬Z)``, the same
    with an implicit accepting sink; no completion or complement;
  - :class:`~repro.automata.lazy.LazyCross` — ``P1 × P2``, reader likewise;
  - :class:`~repro.automata.lazy.LazyUnion` /
    :class:`~repro.automata.lazy.LazyCompose` — delayed ``R1 | R2`` and
    ``R1 ∘ R2`` whose pair spaces are interned and expanded on demand, so a
    30+-branch ``else`` chain never builds the multiplicative product;
  - :class:`~repro.automata.lazy.LazyConcat` /
    :class:`~repro.automata.lazy.LazyStar` — delayed ``R1 · R2`` and
    ``R*``, so a sequence spec wrapping an ``else`` chain stays delayed.

  Expansions are memoized per node.
* **One image walk**: :func:`~repro.automata.lazy.relation_image`
  (== ``LazyFST.image``) computes ``P ▷ R`` as a single fused product walk
  over ``(acceptor, relation)`` state pairs, driven by the acceptor's
  (small) transition rows, instead of materializing ``identity(P)``, a full
  composition, and a projection per class per spec branch.  It is the
  decision boundary that forces a delayed relation against a snapshot
  automaton, and it polls the cooperative deadline
  (:mod:`repro.automata.guard`).
* **Oracles**: the textbook FSA constructions (:meth:`FSA.complete`,
  :meth:`FSA.complement`, :meth:`FSA.difference`, :meth:`FSA.equivalent`)
  are kept as the reference for the lazy decision procedures
  (``tests/automata/test_properties.py``); the delayed nodes and the image
  walk are pinned against the paper's Appendix A set semantics
  (:mod:`repro.rir.semantics`) on bounded models.
"""

from repro.automata.alphabet import DROP, HASH, Alphabet
from repro.automata.equivalence import (
    ComparisonResult,
    check_equal,
    check_subset,
    compare,
    symmetric_difference,
)
from repro.automata.fsa import EPSILON, FSA
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
    is_equivalent,
    is_subset,
    relation_image,
    shortest_witness,
)
from repro.automata.regex import (
    AnySym,
    Complement,
    Concat,
    Empty,
    Epsilon,
    Intersect,
    Regex,
    Star,
    Sym,
    SymSet,
    Union,
    concat_all,
    literal,
    parse_regex,
    union_all,
)

__all__ = [
    "Alphabet",
    "DROP",
    "HASH",
    "EPSILON",
    "FSA",
    "Regex",
    "Empty",
    "Epsilon",
    "Sym",
    "SymSet",
    "AnySym",
    "Union",
    "Concat",
    "Star",
    "Intersect",
    "Complement",
    "literal",
    "union_all",
    "concat_all",
    "parse_regex",
    "ComparisonResult",
    "compare",
    "check_equal",
    "check_subset",
    "symmetric_difference",
    "difference_dfa",
    "is_subset",
    "is_equivalent",
    "shortest_witness",
    "LazyFST",
    "LazyIdentity",
    "LazyComplementZone",
    "LazyCross",
    "LazyUnion",
    "LazyConcat",
    "LazyStar",
    "LazyCompose",
    "relation_image",
]
