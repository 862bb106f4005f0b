"""On-the-fly (lazy) product constructions and delayed transducer operations.

The module has two halves, both built on the same idea — explore product
state spaces along the reachable frontier instead of materializing them:

**Decision procedures** (`difference_dfa`, `is_subset`, `is_equivalent`,
`shortest_witness`).  The eager decision procedure in
:mod:`repro.automata.fsa` answers ``L(A) \\ L(B)`` questions with the
textbook pipeline: determinize ``B``, *complete* it over the full alphabet
(one sink transition per missing ``(state, symbol)`` pair), complement it,
and build the product with ``A``.  On verification alphabets with hundreds
of network locations the completion step alone materializes
``|Sigma| * |states|`` transitions, almost all of which a single flow
equivalence class never touches.  The lazy procedures explore the product of
``A`` with the *implicitly completed, implicitly complemented*
determinization of ``B`` on the fly:

* both sides are determinized by the subset construction, but only along the
  product frontier — subsets that no reachable product state needs are never
  created;
* a missing move of ``B`` is represented by the empty subset, which acts as
  the implicit non-accepting sink — ``complete()`` is never called and no
  ``Sigma``-indexed rows exist anywhere;
* only symbols on which ``A`` can actually move are expanded, so the work per
  product state is bounded by ``A``'s local out-degree, not ``|Sigma|``;
* the boolean procedures exit on the *first* accepting product state, and the
  shortest-witness procedure reads the witness straight off the product BFS
  tree.

**Delayed transducer operations** (:class:`LazyFST` and its seven node
types: the leaves :class:`LazyIdentity`, :class:`LazyComplementZone` and
:class:`LazyCross`, and the combinators :class:`LazyUnion`,
:class:`LazyConcat`, :class:`LazyStar` and :class:`LazyCompose`).  Spec
compilation builds deep ``identity(complement(zone)) ∘ (branch | ...)``
chains — one shadowing prefix per ``else`` branch — and composing those
transducers eagerly blows up multiplicatively (an OpenFST-style delayed
composition problem).  A ``LazyFST`` is a *recipe*: it exposes an
arc-iteration interface (``initial`` / ``is_accepting`` / ``eps_arcs`` /
``step``) but expands states on demand and memoizes the expansions, so an
image query only ever touches the part of the product that the acceptor's
actual paths reach; the leaves determinize their language along that
frontier, like the decision procedures above.  Every RIR relation
compiles to these nodes (:func:`repro.rir.compiler.compile_rel_lazy`), and
:func:`relation_image` is the one place where a delayed relation is forced
into a concrete path-set FSA.

The eager constructions on :class:`FSA` (:meth:`FSA.difference`,
:meth:`FSA.complement`, :meth:`FSA.is_subset_of`, :meth:`FSA.equivalent`)
are the reference oracle of the decision procedures; the delayed nodes are
pinned against the paper's Appendix A set semantics
(:mod:`repro.rir.semantics`) on bounded models.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.automata.alphabet import require_same_alphabet
from repro.automata.fsa import EPSILON, FSA, Symbol, Word
from repro.automata.guard import POLL_MASK, active_deadline, check_deadline

__all__ = [
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

_EMPTY: frozenset[int] = frozenset()


def _initial_pair(left: FSA, right: FSA) -> tuple[frozenset[int], frozenset[int]]:
    return (
        left.epsilon_closure([left.initial]),
        right.epsilon_closure([right.initial]),
    )


def _moves(fsa: FSA, subset: frozenset[int]) -> dict[int, set[int]]:
    """Symbol moves of a determinized subset (epsilon moves excluded)."""
    moves: dict[int, set[int]] = {}
    for state in subset:
        for symbol, dsts in fsa.transitions[state].items():
            if symbol is EPSILON:
                continue
            moves.setdefault(symbol, set()).update(dsts)
    return moves


def _right_target(right: FSA, subset: frozenset[int], symbol: int) -> frozenset[int]:
    """Follow ``symbol`` in the implicit completion of determinized ``right``.

    The empty subset is the implicit sink: it absorbs every symbol and is
    never accepting, which is exactly what ``complete()`` would have
    materialized eagerly.
    """
    dsts: set[int] = set()
    for state in subset:
        dsts.update(right.transitions[state].get(symbol, ()))
    return right.epsilon_closure(dsts) if dsts else _EMPTY


def _is_accepting(left: FSA, right: FSA, lsub: frozenset[int], rsub: frozenset[int]) -> bool:
    """Product acceptance for ``L(left) \\ L(right)``: left accepts, right doesn't."""
    return bool(lsub & left.accepting) and not (rsub & right.accepting)


def difference_dfa(left: FSA, right: FSA) -> FSA:
    """The reachable product DFA for ``L(left) \\ L(right)``.

    Equivalent in language to ``left.difference(right)`` but built lazily:
    only product states reachable from the initial pair exist, the sink is
    implicit, and no state ever carries a full-``Sigma`` transition row.  The
    result is a trim-free DFA suitable for :meth:`FSA.enumerate_words`.
    """
    require_same_alphabet(left.alphabet, right.alphabet)
    result = FSA(left.alphabet)
    start = _initial_pair(left, right)
    pair_ids: dict[tuple[frozenset[int], frozenset[int]], int] = {start: result.initial}
    if _is_accepting(left, right, *start):
        result.mark_accepting(result.initial)
    queue: deque[tuple[frozenset[int], frozenset[int]]] = deque([start])
    rows = result.transitions
    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        pair = queue.popleft()
        lsub, rsub = pair
        src = pair_ids[pair]
        for symbol, ldsts in _moves(left, lsub).items():
            ltarget = left.epsilon_closure(ldsts)
            rtarget = _right_target(right, rsub, symbol)
            key = (ltarget, rtarget)
            dst = pair_ids.get(key)
            if dst is None:
                dst = result.add_state()
                pair_ids[key] = dst
                if _is_accepting(left, right, ltarget, rtarget):
                    result.mark_accepting(dst)
                queue.append(key)
            # The product is deterministic by construction, so each
            # (src, symbol) slot is written exactly once; skip the generic
            # validating add_transition.
            rows[src][symbol] = {dst}
    return result


def is_subset(left: FSA, right: FSA) -> bool:
    """Decide ``L(left) ⊆ L(right)`` lazily, exiting on the first violation.

    A violation is an accepting product state — a word accepted by ``left``
    while the (implicitly completed) determinization of ``right`` is in a
    non-accepting subset.
    """
    require_same_alphabet(left.alphabet, right.alphabet)
    start = _initial_pair(left, right)
    if _is_accepting(left, right, *start):
        return False
    seen = {start}
    queue: deque[tuple[frozenset[int], frozenset[int]]] = deque([start])
    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        lsub, rsub = queue.popleft()
        for symbol, ldsts in _moves(left, lsub).items():
            ltarget = left.epsilon_closure(ldsts)
            rtarget = _right_target(right, rsub, symbol)
            key = (ltarget, rtarget)
            if key in seen:
                continue
            if _is_accepting(left, right, ltarget, rtarget):
                return False
            seen.add(key)
            queue.append(key)
    return True


def is_equivalent(left: FSA, right: FSA) -> bool:
    """Decide ``L(left) = L(right)`` with one joint product exploration.

    Both sides are determinized on the fly over the *same* product frontier;
    a reachable pair whose two subsets disagree on acceptance witnesses a
    word in the symmetric difference and exits immediately.  Expanding on the
    union of both sides' locally available symbols keeps the per-state work
    bounded by the automata's actual out-degrees — the "equal" verdict (the
    overwhelmingly common case in change validation) costs a single pass.
    """
    require_same_alphabet(left.alphabet, right.alphabet)
    start = _initial_pair(left, right)
    if bool(start[0] & left.accepting) != bool(start[1] & right.accepting):
        return False
    seen = {start}
    queue: deque[tuple[frozenset[int], frozenset[int]]] = deque([start])
    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        lsub, rsub = queue.popleft()
        lmoves = _moves(left, lsub)
        rmoves = _moves(right, rsub)
        for symbol in lmoves.keys() | rmoves.keys():
            ldsts = lmoves.get(symbol)
            ltarget = left.epsilon_closure(ldsts) if ldsts else _EMPTY
            rdsts = rmoves.get(symbol)
            rtarget = right.epsilon_closure(rdsts) if rdsts else _EMPTY
            key = (ltarget, rtarget)
            if key in seen:
                continue
            if bool(ltarget & left.accepting) != bool(rtarget & right.accepting):
                return False
            seen.add(key)
            queue.append(key)
    return True


def shortest_witness(left: FSA, right: FSA) -> Word | None:
    """A shortest word in ``L(left) \\ L(right)``, or ``None`` if none exists.

    The witness is read directly off the product BFS tree, so the common
    "inclusion holds" case costs one frontier exploration and the failing
    case stops at the first accepting product state.
    """
    require_same_alphabet(left.alphabet, right.alphabet)
    start = _initial_pair(left, right)
    if _is_accepting(left, right, *start):
        return ()
    seen = {start}
    queue: deque[tuple[frozenset[int], frozenset[int], tuple[int, ...]]] = deque(
        [(start[0], start[1], ())]
    )
    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        lsub, rsub, word = queue.popleft()
        for symbol, ldsts in sorted(_moves(left, lsub).items()):
            ltarget = left.epsilon_closure(ldsts)
            rtarget = _right_target(right, rsub, symbol)
            key = (ltarget, rtarget)
            if key in seen:
                continue
            seen.add(key)
            extended = word + (symbol,)
            if _is_accepting(left, right, ltarget, rtarget):
                return left.alphabet.ids_to_word(extended)
            queue.append((ltarget, rtarget, extended))
    return None


# ======================================================================
# Delayed (OpenFST-style) transducer operations
# ======================================================================
#
# A delayed transducer implements the arc-iteration protocol:
#
#   initial                      -- integer identifier of the start state
#   is_accepting(state)          -- acceptance test
#   eps_arcs(state)              -- arcs whose *input* label is epsilon, as
#                                   (output_label, dst) pairs
#   step(state, symbol)          -- arcs consuming ``symbol`` on the input
#                                   tape, as (output_label, dst) pairs
#
# States are integers.  Union and composition intern their (operand, state)
# pairs densely, so a composition of compositions hashes shallow (int, int)
# pairs instead of nested tuples; cross product, concatenation and star
# encode their operands' states arithmetically (a tag bit, an offset).
# Expansions are memoized: across the many flow equivalence classes of one
# verification run, each reachable spec-relation state is expanded once.

ArcList = Sequence[tuple[Symbol, int]]


class LazyFST:
    """Base class of delayed transducer nodes.

    Subclasses implement :meth:`_expand_eps` and :meth:`_expand_step` (and
    :meth:`is_accepting`); the base class memoizes the expansions so repeated
    image queries against the same relation share work.
    """

    __slots__ = ("alphabet", "initial", "_eps_cache", "_step_cache")

    def __init__(self, alphabet) -> None:
        self.alphabet = alphabet
        self.initial: int = 0
        self._eps_cache: dict[int, ArcList] = {}
        self._step_cache: dict[tuple[int, int], ArcList] = {}

    # -- protocol --------------------------------------------------------
    def is_accepting(self, state: int) -> bool:
        raise NotImplementedError

    def eps_arcs(self, state: int) -> ArcList:
        """Arcs with an epsilon input label, expanded on demand."""
        arcs = self._eps_cache.get(state)
        if arcs is None:
            arcs = self._eps_cache[state] = self._expand_eps(state)
        return arcs

    def step(self, state: int, symbol: int) -> ArcList:
        """Arcs consuming ``symbol`` on the input tape, expanded on demand."""
        key = (state, symbol)
        arcs = self._step_cache.get(key)
        if arcs is None:
            arcs = self._step_cache[key] = self._expand_step(state, symbol)
        return arcs

    # -- expansion hooks -------------------------------------------------
    def _expand_eps(self, state: int) -> ArcList:
        raise NotImplementedError

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        raise NotImplementedError

    # -- forcing ---------------------------------------------------------
    def image(self, fsa: FSA) -> FSA:
        """``P ▷ R`` over the delayed graph (the decision boundary)."""
        return relation_image(self, fsa)


class LazyIdentity(LazyFST):
    """``I(P)``, its language determinized along the queried frontier.

    States are interned epsilon-closed subsets of the language automaton, so
    an image pairs an acceptor state with one subset, not with every NFA
    state; a move to the empty subset emits no arc (it can never accept).
    """

    __slots__ = ("language", "_ids", "_subsets", "_closures")

    def __init__(self, language: FSA) -> None:
        super().__init__(language.alphabet)
        self.language = language
        self._ids: dict[frozenset[int], int] = {}
        self._subsets: list[frozenset[int]] = []
        #: Per-state epsilon closures of the (Thompson) NFA, memoized so
        #: subset steps of every image walk do not recompute them.
        self._closures: dict[int, frozenset[int]] = {}
        self.initial = self._intern(language.epsilon_closure([language.initial]))

    def _intern(self, subset: frozenset[int]) -> int:
        state = self._ids.get(subset)
        if state is None:
            state = self._ids[subset] = len(self._subsets)
            self._subsets.append(subset)
        return state

    def _closure(self, state: int) -> frozenset[int]:
        closure = self._closures.get(state)
        if closure is None:
            closure = self._closures[state] = self.language.epsilon_closure((state,))
        return closure

    def _target(self, state: int, symbol: int) -> frozenset[int]:
        target: set[int] = set()
        closure = self._closure
        for member in self._subsets[state]:
            for dst in self.language.transitions[member].get(symbol, ()):
                target |= closure(dst)
        return frozenset(target) if target else _EMPTY

    def is_accepting(self, state: int) -> bool:
        return bool(self._subsets[state] & self.language.accepting)

    def _expand_eps(self, state: int) -> ArcList:
        return ()

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        target = self._target(state, symbol)
        return [(symbol, self._intern(target))] if target else ()


class LazyComplementZone(LazyIdentity):
    """``I(¬L(zone))`` — the branch-shadowing prefix — fully delayed.

    :class:`LazyIdentity` with acceptance flipped: the empty subset is the
    implicit sink, *accepting* here because it lies outside the zone, so no
    completed DFA, complement or ``|Sigma|``-wide row is ever built.
    """

    __slots__ = ()

    def is_accepting(self, state: int) -> bool:
        return not (self._subsets[state] & self.language.accepting)

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        return [(symbol, self._intern(self._target(state, symbol)))]


class LazyCross(LazyFST):
    """``L(reader) × L(writer)`` with a frontier-determinized reader.

    Built as in the paper: the reader reads its language on the input tape
    while writing epsilon, then an accepting reader subset (even ids) takes
    an epsilon arc into the writer, whose states (odd ids) emit the writer
    automaton's moves as input-epsilon arcs.
    """

    __slots__ = ("reader", "writer")

    def __init__(self, reader: FSA, writer: FSA) -> None:
        require_same_alphabet(reader.alphabet, writer.alphabet)
        super().__init__(reader.alphabet)
        self.reader = LazyIdentity(reader)
        self.writer = writer
        self.initial = self.reader.initial << 1

    def is_accepting(self, state: int) -> bool:
        return bool(state & 1) and (state >> 1) in self.writer.accepting

    def _expand_eps(self, state: int) -> ArcList:
        if not state & 1:
            accepting = self.reader.is_accepting(state >> 1)
            return [(EPSILON, self.writer.initial << 1 | 1)] if accepting else ()
        return [
            (symbol, dst << 1 | 1)
            for symbol, dsts in self.writer.transitions[state >> 1].items()
            for dst in dsts
        ]

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        if state & 1:
            return ()
        return [(EPSILON, dst << 1) for _, dst in self.reader.step(state >> 1, symbol)]


class LazyUnion(LazyFST):
    """Delayed relation union, n-ary.

    A fresh initial state (0) carries epsilon arcs into every operand;
    operand states are interned as ``(operand_index, state)`` pairs.  Nested
    ``LazyUnion`` operands are flattened on construction, so a prioritized
    union of 30+ spec branches dispatches through *one* level of delegation
    instead of a chain — the delegation depth of a product walk stays
    constant in the branch count.
    """

    __slots__ = ("operands", "_ids", "_members")

    def __init__(self, *operands: LazyFST) -> None:
        if not operands:
            raise ValueError("LazyUnion needs at least one operand")
        flattened: list[LazyFST] = []
        for operand in operands:
            if isinstance(operand, LazyUnion):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        require_same_alphabet(*[operand.alphabet for operand in flattened])
        super().__init__(flattened[0].alphabet)
        self.operands: tuple[LazyFST, ...] = tuple(flattened)
        self._ids: dict[tuple[int, int], int] = {}
        # State 0 is the fresh initial; _members[0] is a placeholder.
        self._members: list[tuple[int, int]] = [(-1, -1)]

    def _intern(self, operand_index: int, state: int) -> int:
        key = (operand_index, state)
        interned = self._ids.get(key)
        if interned is None:
            interned = self._ids[key] = len(self._members)
            self._members.append(key)
        return interned

    def is_accepting(self, state: int) -> bool:
        if state == 0:
            return False
        index, inner = self._members[state]
        return self.operands[index].is_accepting(inner)

    def _expand_eps(self, state: int) -> ArcList:
        if state == 0:
            return [
                (EPSILON, self._intern(index, operand.initial))
                for index, operand in enumerate(self.operands)
            ]
        index, inner = self._members[state]
        return [
            (out, self._intern(index, dst))
            for out, dst in self.operands[index].eps_arcs(inner)
        ]

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        if state == 0:
            return ()
        index, inner = self._members[state]
        return [
            (out, self._intern(index, dst))
            for out, dst in self.operands[index].step(inner, symbol)
        ]


class LazyConcat(LazyFST):
    """Delayed relation concatenation ``left · right`` (pairwise on both tapes).

    Left operand states are even ids and right operand states odd ids; an
    accepting left state takes an epsilon arc into the right operand's
    initial state, and only right operand states accept.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: LazyFST, right: LazyFST) -> None:
        require_same_alphabet(left.alphabet, right.alphabet)
        super().__init__(left.alphabet)
        self.left = left
        self.right = right
        self.initial = left.initial << 1

    def is_accepting(self, state: int) -> bool:
        return bool(state & 1) and self.right.is_accepting(state >> 1)

    def _expand_eps(self, state: int) -> ArcList:
        inner = state >> 1
        if state & 1:
            return [(out, dst << 1 | 1) for out, dst in self.right.eps_arcs(inner)]
        arcs = [(out, dst << 1) for out, dst in self.left.eps_arcs(inner)]
        if self.left.is_accepting(inner):
            arcs.append((EPSILON, self.right.initial << 1 | 1))
        return arcs

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        tag = state & 1
        operand = self.right if tag else self.left
        return [(out, dst << 1 | tag) for out, dst in operand.step(state >> 1, symbol)]


class LazyStar(LazyFST):
    """Delayed Kleene star ``inner*`` of a relation.

    State 0 is a fresh accepting initial state (the pair ``(ε, ε)``) with an
    epsilon arc into the operand, whose state ``s`` is ``s + 1`` here; every
    accepting operand state takes an epsilon arc back to the operand's
    initial state.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: LazyFST) -> None:
        super().__init__(inner.alphabet)
        self.inner = inner

    def is_accepting(self, state: int) -> bool:
        return state == 0 or self.inner.is_accepting(state - 1)

    def _expand_eps(self, state: int) -> ArcList:
        restart = (EPSILON, self.inner.initial + 1)
        if state == 0:
            return [restart]
        arcs = [(out, dst + 1) for out, dst in self.inner.eps_arcs(state - 1)]
        if self.inner.is_accepting(state - 1):
            arcs.append(restart)
        return arcs

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        if state == 0:
            return ()
        return [(out, dst + 1) for out, dst in self.inner.step(state - 1, symbol)]


class LazyCompose(LazyFST):
    """Delayed relation composition ``left ∘ right``.

    The standard unweighted product with free epsilon moves on either side
    (duplicate epsilon paths are harmless for unweighted relations), but the
    pair space is explored on demand: composing a 30-branch shadowing chain
    never builds the product — an image query walks only the pairs the
    acceptor's paths reach, and interning keeps composite states as dense
    integers so nested compositions stay cheap to hash.
    """

    __slots__ = ("left", "right", "_ids", "_pairs")

    def __init__(self, left: LazyFST, right: LazyFST) -> None:
        require_same_alphabet(left.alphabet, right.alphabet)
        super().__init__(left.alphabet)
        self.left = left
        self.right = right
        self._ids: dict[tuple[int, int], int] = {}
        self._pairs: list[tuple[int, int]] = []
        self.initial = self._intern(left.initial, right.initial)

    def _intern(self, lstate: int, rstate: int) -> int:
        key = (lstate, rstate)
        state = self._ids.get(key)
        if state is None:
            state = self._ids[key] = len(self._pairs)
            self._pairs.append(key)
        return state

    def is_accepting(self, state: int) -> bool:
        lstate, rstate = self._pairs[state]
        return self.left.is_accepting(lstate) and self.right.is_accepting(rstate)

    def _expand_eps(self, state: int) -> ArcList:
        lstate, rstate = self._pairs[state]
        arcs: list[tuple[Symbol, int]] = []
        for mid, ldst in self.left.eps_arcs(lstate):
            if mid is EPSILON:
                # left advances alone, producing nothing for right to read.
                arcs.append((EPSILON, self._intern(ldst, rstate)))
            else:
                for out, rdst in self.right.step(rstate, mid):
                    arcs.append((out, self._intern(ldst, rdst)))
        for out, rdst in self.right.eps_arcs(rstate):
            # right advances alone, reading nothing from left.
            arcs.append((out, self._intern(lstate, rdst)))
        return arcs

    def _expand_step(self, state: int, symbol: int) -> ArcList:
        lstate, rstate = self._pairs[state]
        arcs: list[tuple[Symbol, int]] = []
        for mid, ldst in self.left.step(lstate, symbol):
            if mid is EPSILON:
                arcs.append((EPSILON, self._intern(ldst, rstate)))
            else:
                for out, rdst in self.right.step(rstate, mid):
                    arcs.append((out, self._intern(ldst, rdst)))
        return arcs


def relation_image(relation: LazyFST, fsa: FSA) -> FSA:
    """``P ▷ R`` for any relation implementing the arc-iteration protocol.

    One fused product walk over ``(acceptor, relation)`` state pairs: the
    acceptor consumes the relation's input tape while the output tape
    becomes the result's transitions, so ``identity(P)``, the composition
    and the projection are never built.  The walk is driven through
    ``eps_arcs``/``step`` off the acceptor's (small) rows, so a delayed
    relation is expanded exactly as far as the acceptor reaches.  This is
    the only image walk: every spec relation is forced into a concrete path
    set here, under the cooperative deadline.
    """
    require_same_alphabet(relation.alphabet, fsa.alphabet)
    result = FSA(fsa.alphabet)
    start = (fsa.initial, relation.initial)
    pair_ids: dict[tuple[int, int], int] = {start: result.initial}
    if fsa.initial in fsa.accepting and relation.is_accepting(relation.initial):
        result.mark_accepting(result.initial)
    queue: deque[tuple[int, int]] = deque([start])
    rows = result.transitions

    def state_for(p: int, t: int) -> int:
        key = (p, t)
        state = pair_ids.get(key)
        if state is None:
            state = pair_ids[key] = result.add_state()
            if p in fsa.accepting and relation.is_accepting(t):
                result.mark_accepting(state)
            queue.append(key)
        return state

    def link(src_row: dict, label: Symbol, dst: int) -> None:
        bucket = src_row.get(label)
        if bucket is None:
            src_row[label] = {dst}
        else:
            bucket.add(dst)

    deadline = active_deadline()
    steps = 0
    while queue:
        if deadline is not None:
            steps += 1
            if not steps & POLL_MASK:
                check_deadline(deadline)
        p, t = queue.popleft()
        src_row = rows[pair_ids[(p, t)]]
        # The relation advances alone, emitting its output label.
        for out_label, dst_t in relation.eps_arcs(t):
            link(src_row, out_label, state_for(p, dst_t))
        # Synchronized moves, driven off the acceptor's (small) rows.
        for symbol, p_dsts in fsa.transitions[p].items():
            if symbol is EPSILON:
                for dst_p in p_dsts:
                    link(src_row, EPSILON, state_for(dst_p, t))
                continue
            matches = relation.step(t, symbol)
            if not matches:
                continue
            for out_label, dst_t in matches:
                for dst_p in p_dsts:
                    link(src_row, out_label, state_for(dst_p, dst_t))
    return result
