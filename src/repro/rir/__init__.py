"""The Regular Intermediate Representation (RIR) of Rela.

The RIR (paper Section 5.2) is the layer between the Rela surface language
and the automata-theoretic decision procedure: regular path sets, regular
relations and boolean assertions over them.

* :mod:`repro.rir.ast` — expression nodes;
* :mod:`repro.rir.semantics` — set-based reference semantics (Appendix A);
* :mod:`repro.rir.compiler` — compilation to FSAs and delayed transducers;
* :mod:`repro.rir.checker` — the decision procedure with witnesses.
"""

from repro.rir.ast import (
    PathSet,
    PSComplement,
    PSConcat,
    PSEmpty,
    PSEpsilon,
    PSImage,
    PSIntersect,
    PSPostState,
    PSPreState,
    PSRegex,
    PSStar,
    PSSymbol,
    PSUnion,
    RCompose,
    RConcat,
    RCross,
    REmpty,
    REpsilon,
    RIdentity,
    RStar,
    RUnion,
    Rel,
    Spec,
    SpecAnd,
    SpecEqual,
    SpecNot,
    SpecOr,
    SpecSubset,
    union_all,
    word,
)
from repro.rir.checker import AssertionResult, SpecVerdict, check_spec
from repro.rir.compiler import RIRContext, compile_pathset, compile_rel_lazy
from repro.rir.semantics import RIRModel, eval_pathset, eval_rel, holds

__all__ = [
    "PathSet",
    "PSSymbol",
    "PSEmpty",
    "PSEpsilon",
    "PSPreState",
    "PSPostState",
    "PSRegex",
    "PSUnion",
    "PSConcat",
    "PSStar",
    "PSIntersect",
    "PSComplement",
    "PSImage",
    "Rel",
    "RCross",
    "RIdentity",
    "REmpty",
    "REpsilon",
    "RUnion",
    "RConcat",
    "RStar",
    "RCompose",
    "Spec",
    "SpecEqual",
    "SpecSubset",
    "SpecAnd",
    "SpecOr",
    "SpecNot",
    "word",
    "union_all",
    "RIRContext",
    "compile_pathset",
    "compile_rel_lazy",
    "AssertionResult",
    "SpecVerdict",
    "check_spec",
    "RIRModel",
    "eval_pathset",
    "eval_rel",
    "holds",
]
