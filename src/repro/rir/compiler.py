"""Compilation of RIR expressions to finite automata and transducers.

This is the first half of the decision procedure of Section 6: every path-set
expression becomes an :class:`~repro.automata.fsa.FSA` and every relation
becomes an :class:`~repro.automata.fst.FST`.  The snapshot symbols
``PreState`` / ``PostState`` are supplied by the caller as already-built
automata (typically converted from forwarding DAGs by
:mod:`repro.verifier.state_automata`).

Relations can be compiled two ways:

* :func:`compile_rel` — fully eager; every union, composition and identity
  is materialized as a concrete FST.  Kept as the reference oracle; its
  one verifier-level caller is the test reference
  :func:`repro.testing.reference.naive_verify`.
* :func:`compile_rel_lazy` — the spec-compilation path.  Unions and
  compositions become delayed nodes (:class:`~repro.automata.lazy.LazyUnion`,
  :class:`~repro.automata.lazy.LazyCompose`), identities and cross products
  become leaves determinized along the queried frontier
  (:class:`~repro.automata.lazy.LazyIdentity`,
  :class:`~repro.automata.lazy.LazyCross`), and the branch-shadowing
  pattern ``I(¬Z)`` compiles to a
  :class:`~repro.automata.lazy.LazyComplementZone` that never determinizes,
  completes or complements the zone automaton up front.  Only the remaining
  small atomic leaves (relation concatenations, stars, constants) are
  materialized eagerly; the resulting delayed DAG is forced at the decision
  boundary by the image operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.alphabet import Alphabet
from repro.automata.fsa import FSA
from repro.automata.fst import FST
from repro.automata.lazy import (
    LazyComplementZone,
    LazyCompose,
    LazyCross,
    LazyFST,
    LazyIdentity,
    LazyUnion,
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
    cache: dict[ast.PathSet | ast.Rel, FSA | FST | LazyFST] = field(default_factory=dict)

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
        relation = compile_rel(node.rel, ctx)
        return relation.image(compile_pathset(node.pathset, ctx))
    raise CompilationError(f"unknown PathSet node: {node!r}")


def compile_rel(node: ast.Rel, ctx: RIRContext) -> FST:
    """Compile a relation expression to an FST."""
    cached = ctx.cache.get(node)
    if isinstance(cached, FST):
        return cached
    result = _compile_rel(node, ctx)
    try:
        ctx.cache[node] = result
    except TypeError:
        pass
    return result


def _compile_rel(node: ast.Rel, ctx: RIRContext) -> FST:
    if isinstance(node, ast.RCross):
        return FST.cross(compile_pathset(node.left, ctx), compile_pathset(node.right, ctx))
    if isinstance(node, ast.RIdentity):
        return FST.identity(compile_pathset(node.pathset, ctx))
    if isinstance(node, ast.REmpty):
        return FST.empty_relation(ctx.alphabet)
    if isinstance(node, ast.REpsilon):
        return FST.epsilon_relation(ctx.alphabet)
    if isinstance(node, ast.RUnion):
        return compile_rel(node.left, ctx).union(compile_rel(node.right, ctx))
    if isinstance(node, ast.RConcat):
        return compile_rel(node.left, ctx).concat(compile_rel(node.right, ctx))
    if isinstance(node, ast.RStar):
        return compile_rel(node.inner, ctx).star()
    if isinstance(node, ast.RCompose):
        # Trim between composition stages so chained RCompose trees (branch
        # shadowing composes one relation per preceding branch) do not
        # accumulate dead product states multiplicatively.
        return compile_rel(node.left, ctx).compose(compile_rel(node.right, ctx)).trim()
    raise CompilationError(f"unknown Rel node: {node!r}")


# ----------------------------------------------------------------------
# Delayed compilation (the spec-compilation path)
# ----------------------------------------------------------------------
def compile_rel_lazy(node: ast.Rel, ctx: RIRContext) -> FST | LazyFST:
    """Compile a relation expression into a delayed-operation DAG.

    Structural memoisation is shared with the eager compiler: a node cached
    as a concrete FST is reused as a lazy leaf, and vice versa a lazily
    compiled node is never recompiled.
    """
    cached = ctx.cache.get(node)
    if isinstance(cached, (FST, LazyFST)):
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


def _compile_rel_lazy(node: ast.Rel, ctx: RIRContext) -> FST | LazyFST:
    if isinstance(node, ast.RUnion):
        return LazyUnion(compile_rel_lazy(node.left, ctx), compile_rel_lazy(node.right, ctx))
    if isinstance(node, ast.RCompose):
        return LazyCompose(compile_rel_lazy(node.left, ctx), compile_rel_lazy(node.right, ctx))
    if isinstance(node, ast.RIdentity):
        inner = _complement_operand(node.pathset)
        if inner is not None:
            # The branch-shadowing prefix I(¬Z): delay determinization,
            # completion and complementation of the zone entirely.
            return LazyComplementZone(compile_pathset(inner, ctx))
        return LazyIdentity(compile_pathset(node.pathset, ctx))
    if isinstance(node, ast.RCross):
        return LazyCross(compile_pathset(node.left, ctx), compile_pathset(node.right, ctx))
    # The remaining atomic leaves (concatenations, stars, constants) are
    # small; materialize them eagerly and let the lazy combinators above
    # consume them through the shared arc-iteration protocol.
    return compile_rel(node, ctx)
