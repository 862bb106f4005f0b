"""Compilation of RIR expressions to finite automata and delayed transducers.

This is the first half of the decision procedure of Section 6: every path-set
expression becomes an :class:`~repro.automata.fsa.FSA` and every relation
becomes a delayed-operation DAG of :class:`~repro.automata.lazy.LazyFST`
nodes.  The snapshot symbols ``PreState`` / ``PostState`` are supplied by the
caller as already-built automata (typically converted from forwarding DAGs
by :mod:`repro.verifier.state_automata`).

:func:`compile_rel_lazy` lowers every relation node:

* unions, concatenations, stars and compositions become the delayed
  combinators :class:`~repro.automata.lazy.LazyUnion`,
  :class:`~repro.automata.lazy.LazyConcat`,
  :class:`~repro.automata.lazy.LazyStar` and
  :class:`~repro.automata.lazy.LazyCompose`;
* identities and cross products become leaves determinized along the
  queried frontier (:class:`~repro.automata.lazy.LazyIdentity`,
  :class:`~repro.automata.lazy.LazyCross`), and the constants ``0`` and
  ``1`` are identities over the empty and the epsilon language;
* the branch-shadowing pattern ``I(¬Z)`` compiles to a
  :class:`~repro.automata.lazy.LazyComplementZone` that never determinizes,
  completes or complements the zone automaton up front.

Nothing is materialized at compile time: the DAG is forced at the decision
boundary by :func:`~repro.automata.lazy.relation_image`.  The independent
oracle for this compiler is the set semantics of
:mod:`repro.rir.semantics` (paper Appendix A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.alphabet import Alphabet
from repro.automata.fsa import FSA
from repro.automata.lazy import (
    LazyComplementZone,
    LazyCompose,
    LazyConcat,
    LazyCross,
    LazyFST,
    LazyIdentity,
    LazyStar,
    LazyUnion,
    relation_image,
)
from repro.automata.regex import Complement as RegexComplement
from repro.errors import CompilationError
from repro.rir import ast


@dataclass(slots=True)
class RIRContext:
    """Everything needed to compile RIR expressions for one verification task.

    Attributes
    ----------
    alphabet:
        Shared symbol alphabet.  It must already contain every network
        location mentioned by the snapshots or the specification, because
        complementation is relative to the alphabet at compilation time.
    pre / post:
        FSAs denoting the pre-change and post-change forwarding path sets.
    cache:
        Structural memoisation of compiled sub-expressions.  RIR trees
        produced by the Rela front end repeat zone sub-expressions many
        times; caching keeps compilation linear in distinct sub-terms.
    """

    alphabet: Alphabet
    pre: FSA
    post: FSA
    cache: dict[ast.PathSet | ast.Rel, FSA | LazyFST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.pre.alphabet is not self.alphabet or self.post.alphabet is not self.alphabet:
            raise CompilationError(
                "PreState/PostState automata must use the context's alphabet instance"
            )


def compile_pathset(node: ast.PathSet, ctx: RIRContext) -> FSA:
    """Compile a path-set expression to an FSA."""
    cached = ctx.cache.get(node)
    if isinstance(cached, FSA):
        return cached
    result = _compile_pathset(node, ctx)
    try:
        ctx.cache[node] = result
    except TypeError:
        pass  # unhashable (should not happen: all nodes are frozen dataclasses)
    return result


def _compile_pathset(node: ast.PathSet, ctx: RIRContext) -> FSA:
    if isinstance(node, ast.PSSymbol):
        return FSA.symbol(ctx.alphabet, node.name)
    if isinstance(node, ast.PSEmpty):
        return FSA.empty_language(ctx.alphabet)
    if isinstance(node, ast.PSEpsilon):
        return FSA.epsilon_language(ctx.alphabet)
    if isinstance(node, ast.PSPreState):
        return ctx.pre
    if isinstance(node, ast.PSPostState):
        return ctx.post
    if isinstance(node, ast.PSRegex):
        return node.regex.to_fsa(ctx.alphabet)
    if isinstance(node, ast.PSUnion):
        return compile_pathset(node.left, ctx).union(compile_pathset(node.right, ctx))
    if isinstance(node, ast.PSConcat):
        return compile_pathset(node.left, ctx).concat(compile_pathset(node.right, ctx))
    if isinstance(node, ast.PSStar):
        return compile_pathset(node.inner, ctx).star()
    if isinstance(node, ast.PSIntersect):
        return compile_pathset(node.left, ctx).intersect(compile_pathset(node.right, ctx))
    if isinstance(node, ast.PSComplement):
        # Minimize before the automaton is embedded into identities and
        # compositions: the subset construction behind complement() is often
        # far from minimal, and every extra state multiplies through
        # relation products (mirrors regex.Complement.to_fsa).
        return compile_pathset(node.inner, ctx).complement().minimize()
    if isinstance(node, ast.PSImage):
        relation = compile_rel_lazy(node.rel, ctx)
        return relation_image(relation, compile_pathset(node.pathset, ctx))
    raise CompilationError(f"unknown PathSet node: {node!r}")


def compile_rel_lazy(node: ast.Rel, ctx: RIRContext) -> LazyFST:
    """Compile a relation expression into a delayed-operation DAG.

    Structurally equal sub-relations compile once per context and are
    shared, expansion memos included.
    """
    cached = ctx.cache.get(node)
    if isinstance(cached, LazyFST):
        return cached
    result = _compile_rel_lazy(node, ctx)
    try:
        ctx.cache[node] = result
    except TypeError:
        pass
    return result


def _complement_operand(node: ast.PathSet) -> ast.PathSet | None:
    """The path set ``P`` when ``node`` denotes ``¬P``, else ``None``.

    Both spellings produced by the Rela front end are recognized: the RIR
    complement node and a lifted regex whose root is a complement.
    """
    if isinstance(node, ast.PSComplement):
        return node.inner
    if isinstance(node, ast.PSRegex) and isinstance(node.regex, RegexComplement):
        return ast.PSRegex(node.regex.inner)
    return None


def _compile_rel_lazy(node: ast.Rel, ctx: RIRContext) -> LazyFST:
    if isinstance(node, ast.RUnion):
        return LazyUnion(compile_rel_lazy(node.left, ctx), compile_rel_lazy(node.right, ctx))
    if isinstance(node, ast.RCompose):
        return LazyCompose(compile_rel_lazy(node.left, ctx), compile_rel_lazy(node.right, ctx))
    if isinstance(node, ast.RConcat):
        return LazyConcat(compile_rel_lazy(node.left, ctx), compile_rel_lazy(node.right, ctx))
    if isinstance(node, ast.RStar):
        return LazyStar(compile_rel_lazy(node.inner, ctx))
    if isinstance(node, ast.RIdentity):
        inner = _complement_operand(node.pathset)
        if inner is not None:
            # The branch-shadowing prefix I(¬Z): delay determinization,
            # completion and complementation of the zone entirely.
            return LazyComplementZone(compile_pathset(inner, ctx))
        return LazyIdentity(compile_pathset(node.pathset, ctx))
    if isinstance(node, ast.RCross):
        return LazyCross(compile_pathset(node.left, ctx), compile_pathset(node.right, ctx))
    if isinstance(node, ast.REmpty):
        return LazyIdentity(FSA.empty_language(ctx.alphabet))
    if isinstance(node, ast.REpsilon):
        return LazyIdentity(FSA.epsilon_language(ctx.alphabet))
    raise CompilationError(f"unknown Rel node: {node!r}")
