"""Set-based reference semantics for the RIR (paper Appendix A).

These evaluators compute the *denotation* of RIR expressions directly over
finite sets of concrete paths.  They exist for two reasons:

1. they are an executable transcription of the paper's semantics, making the
   formal definitions testable; and
2. they are the differential-testing oracle for the automata-based compiler
   in :mod:`repro.rir.compiler`, its delayed transducer nodes and the image
   walk: on bounded models, compiled path sets must accept exactly the words
   and compiled relations relate exactly the pairs the reference semantics
   computes.  The module shares no automata code with production.

Unbounded constructs (Kleene star, complement) are evaluated relative to an
explicit length bound; evaluating them without a bound raises
:class:`~repro.errors.SemanticsError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.errors import SemanticsError
from repro.rir import ast

Path = tuple[str, ...]
PathPair = tuple[Path, Path]


@dataclass(slots=True)
class RIRModel:
    """A finite interpretation of the RIR's free symbols.

    Attributes
    ----------
    pre:
        The concrete paths of the pre-change snapshot (``PreState``).
    post:
        The concrete paths of the post-change snapshot (``PostState``).
    sigma:
        The full symbol alphabet; needed for complement and the universe of
        bounded star evaluation.
    max_length:
        Length bound used for star, complement and relation star.  Every path
        in ``pre``/``post`` should respect this bound for the semantics to be
        exact on the model.
    """

    pre: set[Path] = field(default_factory=set)
    post: set[Path] = field(default_factory=set)
    sigma: tuple[str, ...] = ()
    max_length: int = 8

    def universe(self) -> set[Path]:
        """All words over ``sigma`` of length at most ``max_length``."""
        if not self.sigma and self.max_length > 0:
            return {()}
        words: set[Path] = {()}
        for length in range(1, self.max_length + 1):
            words.update(product(self.sigma, repeat=length))
        return words


def _bounded(paths: set[Path], bound: int) -> set[Path]:
    return {path for path in paths if len(path) <= bound}


def eval_pathset(node: ast.PathSet, model: RIRModel) -> set[Path]:
    """Evaluate a path-set expression to a finite set of paths."""
    if isinstance(node, ast.PSSymbol):
        return {(node.name,)}
    if isinstance(node, ast.PSEmpty):
        return set()
    if isinstance(node, ast.PSEpsilon):
        return {()}
    if isinstance(node, ast.PSPreState):
        return set(model.pre)
    if isinstance(node, ast.PSPostState):
        return set(model.post)
    if isinstance(node, ast.PSRegex):
        return _eval_regex(node.regex, model)
    if isinstance(node, ast.PSUnion):
        return eval_pathset(node.left, model) | eval_pathset(node.right, model)
    if isinstance(node, ast.PSConcat):
        left = eval_pathset(node.left, model)
        right = eval_pathset(node.right, model)
        return _bounded({p + q for p in left for q in right}, model.max_length)
    if isinstance(node, ast.PSStar):
        return _star(eval_pathset(node.inner, model), model.max_length)
    if isinstance(node, ast.PSIntersect):
        return eval_pathset(node.left, model) & eval_pathset(node.right, model)
    if isinstance(node, ast.PSComplement):
        return model.universe() - eval_pathset(node.inner, model)
    if isinstance(node, ast.PSImage):
        rel = eval_rel(node.rel, model)
        source = eval_pathset(node.pathset, model)
        return {q for (p, q) in rel if p in source}
    raise SemanticsError(f"unknown PathSet node: {node!r}")


def _eval_regex(regex, model: RIRModel) -> set[Path]:
    """Evaluate an embedded :class:`~repro.automata.regex.Regex` to paths."""
    from repro.automata import regex as rx

    if isinstance(regex, rx.Empty):
        return set()
    if isinstance(regex, rx.Epsilon):
        return {()}
    if isinstance(regex, rx.Sym):
        return {(regex.name,)}
    if isinstance(regex, rx.SymSet):
        return {(name,) for name in regex.names}
    if isinstance(regex, rx.AnySym):
        return {(name,) for name in model.sigma}
    if isinstance(regex, rx.Union):
        return _eval_regex(regex.left, model) | _eval_regex(regex.right, model)
    if isinstance(regex, rx.Concat):
        left = _eval_regex(regex.left, model)
        right = _eval_regex(regex.right, model)
        return _bounded({p + q for p in left for q in right}, model.max_length)
    if isinstance(regex, rx.Star):
        return _star(_eval_regex(regex.inner, model), model.max_length)
    if isinstance(regex, rx.Intersect):
        return _eval_regex(regex.left, model) & _eval_regex(regex.right, model)
    if isinstance(regex, rx.Complement):
        return model.universe() - _eval_regex(regex.inner, model)
    raise SemanticsError(f"unknown Regex node: {regex!r}")


def _star(base: set[Path], bound: int) -> set[Path]:
    """Bounded Kleene star: all concatenations of base paths up to ``bound``."""
    result: set[Path] = {()}
    frontier: set[Path] = {()}
    while frontier:
        next_frontier: set[Path] = set()
        for prefix in frontier:
            for piece in base:
                if not piece:
                    continue
                candidate = prefix + piece
                if len(candidate) <= bound and candidate not in result:
                    result.add(candidate)
                    next_frontier.add(candidate)
        frontier = next_frontier
    return result


def eval_rel(node: ast.Rel, model: RIRModel) -> set[PathPair]:
    """Evaluate a relation expression to a finite set of path pairs."""
    if isinstance(node, ast.RCross):
        left = eval_pathset(node.left, model)
        right = eval_pathset(node.right, model)
        return {(p, q) for p in left for q in right}
    if isinstance(node, ast.RIdentity):
        return {(p, p) for p in eval_pathset(node.pathset, model)}
    if isinstance(node, ast.REmpty):
        return set()
    if isinstance(node, ast.REpsilon):
        return {((), ())}
    if isinstance(node, ast.RUnion):
        return eval_rel(node.left, model) | eval_rel(node.right, model)
    if isinstance(node, ast.RConcat):
        left = eval_rel(node.left, model)
        right = eval_rel(node.right, model)
        pairs = {
            (p1 + p2, q1 + q2)
            for (p1, q1) in left
            for (p2, q2) in right
        }
        return {
            (p, q)
            for (p, q) in pairs
            if len(p) <= model.max_length and len(q) <= model.max_length
        }
    if isinstance(node, ast.RStar):
        return _rel_star(eval_rel(node.inner, model), model.max_length)
    if isinstance(node, ast.RCompose):
        by_input: dict[Path, list[Path]] = {}
        for q, r in eval_rel(node.right, model):
            by_input.setdefault(q, []).append(r)
        return {(p, r) for (p, q) in eval_rel(node.left, model) for r in by_input.get(q, ())}
    raise SemanticsError(f"unknown Rel node: {node!r}")


def _rel_star(base: set[PathPair], bound: int) -> set[PathPair]:
    """Bounded star of a relation (pairwise concatenation of pairs)."""
    result: set[PathPair] = {((), ())}
    frontier: set[PathPair] = {((), ())}
    while frontier:
        next_frontier: set[PathPair] = set()
        for (prefix_p, prefix_q) in frontier:
            for (piece_p, piece_q) in base:
                if not piece_p and not piece_q:
                    continue
                candidate = (prefix_p + piece_p, prefix_q + piece_q)
                if (
                    len(candidate[0]) <= bound
                    and len(candidate[1]) <= bound
                    and candidate not in result
                ):
                    result.add(candidate)
                    next_frontier.add(candidate)
        frontier = next_frontier
    return result


def holds(node: ast.Spec, model: RIRModel) -> bool:
    """Decide ``model ⊨ spec`` per the satisfaction relation of Appendix A."""
    if isinstance(node, ast.SpecEqual):
        return eval_pathset(node.left, model) == eval_pathset(node.right, model)
    if isinstance(node, ast.SpecSubset):
        return eval_pathset(node.left, model) <= eval_pathset(node.right, model)
    if isinstance(node, ast.SpecAnd):
        return holds(node.left, model) and holds(node.right, model)
    if isinstance(node, ast.SpecOr):
        return holds(node.left, model) or holds(node.right, model)
    if isinstance(node, ast.SpecNot):
        return not holds(node.inner, model)
    raise SemanticsError(f"unknown Spec node: {node!r}")
