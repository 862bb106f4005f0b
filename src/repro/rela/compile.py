"""Translation from Rela specifications to the RIR (paper Figure 4).

For every Rela spec ``s`` the translation produces:

* a pre-change relation ``Rpre⟦s⟧``;
* a post-change relation ``Rpost⟦s⟧``;
* a zone path set ``Z⟦s⟧`` (used by the prioritized-union translation and by
  counterexample attribution);

and the overall RIR assertion::

    PreState ▷ Rpre⟦s⟧  =  PostState ▷ Rpost⟦s⟧

The zone and modifier arguments are snapshot-independent regular expressions,
so ``Z`` is computed at the regex level; the relations are RIR ``Rel`` trees
whose leaves lift those regexes via :class:`~repro.rir.ast.PSRegex`.
"""

from __future__ import annotations

from repro.automata.alphabet import DROP, HASH
from repro.automata.regex import Complement, Intersect, Regex, Sym, Union
from repro.errors import CompilationError
from repro.rela import spec as rela_spec
from repro.rela import modifiers as mods
from repro.rir import ast as rir


# ----------------------------------------------------------------------
# Zone extraction:  Z⟦s⟧
# ----------------------------------------------------------------------
def zone(spec: rela_spec.RelaSpec) -> Regex:
    """The zone ``Z⟦s⟧`` of a spec, per the bottom block of Figure 4."""
    if isinstance(spec, rela_spec.AtomicSpec):
        return _atomic_zone(spec.zone, spec.modifier)
    if isinstance(spec, rela_spec.SeqSpec):
        result: Regex | None = None
        for part in spec.parts:
            part_zone = zone(part)
            result = part_zone if result is None else result.concat(part_zone)
        if result is None:
            raise CompilationError("empty sequential spec has no zone")
        return result
    if isinstance(spec, rela_spec.ElseSpec):
        return Union(zone(spec.primary), zone(spec.fallback))
    raise CompilationError(f"unknown Rela spec node: {spec!r}")


def _atomic_zone(zone_expr: Regex, modifier: mods.Modifier) -> Regex:
    if isinstance(modifier, mods.Preserve):
        return zone_expr
    if isinstance(modifier, mods.Add):
        return Union(zone_expr, modifier.paths)
    if isinstance(modifier, mods.Remove):
        return zone_expr
    if isinstance(modifier, mods.Replace):
        return Union(zone_expr, modifier.new)
    if isinstance(modifier, mods.Drop):
        return Union(zone_expr, Sym(DROP))
    if isinstance(modifier, mods.Any):
        return Union(zone_expr, modifier.paths)
    raise CompilationError(f"unknown modifier: {modifier!r}")


# ----------------------------------------------------------------------
# Relations:  Rpre⟦s⟧ and Rpost⟦s⟧
# ----------------------------------------------------------------------
def _lift(regex: Regex) -> rir.PathSet:
    return rir.PSRegex(regex)


def _difference(left: Regex, right: Regex) -> Regex:
    return Intersect(left, Complement(right))


def pre_relation(spec: rela_spec.RelaSpec) -> rir.Rel:
    """``Rpre⟦s⟧`` per Figure 4."""
    return _relation(spec, pre=True)


def post_relation(spec: rela_spec.RelaSpec) -> rir.Rel:
    """``Rpost⟦s⟧`` per Figure 4."""
    return _relation(spec, pre=False)


def _relation(spec: rela_spec.RelaSpec, *, pre: bool) -> rir.Rel:
    if isinstance(spec, rela_spec.AtomicSpec):
        return _atomic_relation(spec.zone, spec.modifier, pre=pre)
    if isinstance(spec, rela_spec.SeqSpec):
        result: rir.Rel | None = None
        for part in spec.parts:
            part_rel = _relation(part, pre=pre)
            result = part_rel if result is None else rir.RConcat(result, part_rel)
        if result is None:
            raise CompilationError("empty sequential spec has no relation")
        return result
    if isinstance(spec, rela_spec.ElseSpec):
        primary_rel = _relation(spec.primary, pre=pre)
        fallback_rel = _relation(spec.fallback, pre=pre)
        outside_primary = rir.RIdentity(_lift(Complement(zone(spec.primary))))
        return rir.RUnion(primary_rel, rir.RCompose(outside_primary, fallback_rel))
    raise CompilationError(f"unknown Rela spec node: {spec!r}")


def _atomic_relation(zone_expr: Regex, modifier: mods.Modifier, *, pre: bool) -> rir.Rel:
    drop_re = Sym(DROP)
    hash_re = Sym(HASH)
    if isinstance(modifier, mods.Preserve):
        return rir.RIdentity(_lift(zone_expr))
    if isinstance(modifier, mods.Add):
        zone_or_paths = Union(zone_expr, modifier.paths)
        if pre:
            return rir.RUnion(
                rir.RIdentity(_lift(zone_or_paths)),
                rir.RCross(_lift(zone_expr), _lift(modifier.paths)),
            )
        return rir.RIdentity(_lift(zone_or_paths))
    if isinstance(modifier, mods.Remove):
        if pre:
            return rir.RIdentity(_lift(_difference(zone_expr, modifier.paths)))
        return rir.RIdentity(_lift(zone_expr))
    if isinstance(modifier, mods.Replace):
        zone_or_new = Union(zone_expr, modifier.new)
        if pre:
            return rir.RUnion(
                rir.RIdentity(_lift(_difference(zone_or_new, modifier.old))),
                rir.RCross(
                    _lift(Intersect(zone_expr, modifier.old)), _lift(modifier.new)
                ),
            )
        return rir.RIdentity(_lift(zone_or_new))
    if isinstance(modifier, mods.Drop):
        zone_or_drop = Union(zone_expr, drop_re)
        if pre:
            return rir.RCross(_lift(zone_or_drop), _lift(drop_re))
        return rir.RIdentity(_lift(zone_or_drop))
    if isinstance(modifier, mods.Any):
        zone_or_paths = Union(zone_expr, modifier.paths)
        if pre:
            return rir.RCross(_lift(zone_or_paths), _lift(hash_re))
        return rir.RUnion(
            rir.RCross(_lift(modifier.paths), _lift(hash_re)),
            rir.RIdentity(_lift(_difference(zone_expr, modifier.paths))),
        )
    raise CompilationError(f"unknown modifier: {modifier!r}")


# ----------------------------------------------------------------------
# Top-level spec translation
# ----------------------------------------------------------------------
def to_rir(spec: rela_spec.RelaSpec, *, label: str | None = None) -> rir.Spec:
    """Translate a Rela spec into the RIR equation of Section 5.3."""
    pre_side = rir.PSImage(rir.PSPreState(), pre_relation(spec))
    post_side = rir.PSImage(rir.PSPostState(), post_relation(spec))
    return rir.SpecEqual(pre_side, post_side, label=label or spec.name)


def _shadow_union(zones: list[Regex]) -> Regex | None:
    """The union of prior-branch zones, or ``None`` when there are none."""
    shadow: Regex | None = None
    for prior in zones:
        shadow = prior if shadow is None else Union(shadow, prior)
    return shadow


def _restrict_outside(rel: rir.Rel, shadow: Regex | None) -> rir.Rel:
    """Apply the Figure 4 branch-shadowing prefix ``I(¬shadow) ∘ rel``."""
    if shadow is None:
        return rel
    return rir.RCompose(rir.RIdentity(_lift(Complement(shadow))), rel)


def branch_relations(
    spec: rela_spec.RelaSpec,
) -> list[tuple[rela_spec.RelaSpec, rir.Rel, rir.Rel]]:
    """Per-branch shadowed relations ``(branch, Rpre_i, Rpost_i)``.

    Flattens the ``else`` chain in priority order and applies the cumulative
    ``I(¬(Z1 | ... | Z_{i-1})) ∘ R`` restriction to each branch, exactly as
    the Figure 4 translation does for the overall relation.  This is the RIR
    *description* only — no automata are built — so callers (the verifier's
    counterexample attribution) can defer compiling a branch transducer
    until that branch is actually violated.
    """
    result: list[tuple[rela_spec.RelaSpec, rir.Rel, rir.Rel]] = []
    prior_zones: list[Regex] = []
    for branch in rela_spec.flatten_else(spec):
        shadow = _shadow_union(prior_zones)
        result.append(
            (
                branch,
                _restrict_outside(pre_relation(branch), shadow),
                _restrict_outside(post_relation(branch), shadow),
            )
        )
        prior_zones.append(zone(branch))
    return result


def hash_expansions(spec: rela_spec.RelaSpec) -> list[Regex]:
    """All ``any`` targets in the spec, in syntactic order.

    Counterexample rendering uses these to undo the ``#`` rewriting that the
    ``any`` translation introduces, so violations are reported in terms of
    the user's own path expressions.
    """
    result: list[Regex] = []
    if isinstance(spec, rela_spec.AtomicSpec):
        if isinstance(spec.modifier, mods.Any):
            result.append(spec.modifier.paths)
    elif isinstance(spec, rela_spec.SeqSpec):
        for part in spec.parts:
            result.extend(hash_expansions(part))
    elif isinstance(spec, rela_spec.ElseSpec):
        result.extend(hash_expansions(spec.primary))
        result.extend(hash_expansions(spec.fallback))
    return result
