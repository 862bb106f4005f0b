"""The Rela surface language (paper Sections 4-5) and its RIR compiler.

Typical usage::

    from repro.rela import (
        LocationDB, Granularity, seq, any_hops, within,
        atomic, seq_spec, nochange, preserve, any_of,
        to_rir,
    )

    a1 = db.where(group="A1")
    d1 = db.where(group="D1")
    path_shift = atomic(seq(a1, any_hops(), d1), any_of(seq(a1, a2, a3, d1)))
    e2e = seq_spec(atomic(within(region_a), preserve()),
                   path_shift,
                   atomic(within(region_d), preserve()), name="e2e")
    change = e2e.else_(nochange())
    rir_spec = to_rir(change)
"""

from repro.rela.compile import (
    hash_expansions,
    post_relation,
    pre_relation,
    to_rir,
    zone,
)
from repro.rela.locations import Granularity, Location, LocationDB
from repro.rela.modifiers import (
    Add,
    Any,
    Drop,
    Modifier,
    Preserve,
    Remove,
    Replace,
    add,
    any_of,
    drop,
    preserve,
    remove,
    replace,
)
from repro.rela.parser import ParsedProgram, RelaParser, parse_program
from repro.rela.pathexpr import (
    alt,
    any_hop,
    any_hops,
    as_regex,
    drop_hop,
    empty,
    epsilon,
    loc,
    locs,
    seq,
    star,
    within,
)
from repro.rela.pspec import (
    DstPrefixWithin,
    IngressIn,
    PredAnd,
    PredNot,
    PredOr,
    PredTrue,
    PrefixPredicate,
    PSpec,
    SpecPolicy,
    SrcPrefixWithin,
)
from repro.rela.spec import (
    AtomicSpec,
    ElseSpec,
    RelaSpec,
    SeqSpec,
    atomic,
    else_chain,
    flatten_else,
    nochange,
    seq_spec,
)

__all__ = [
    # locations
    "Location",
    "LocationDB",
    "Granularity",
    # path expressions
    "loc",
    "locs",
    "seq",
    "alt",
    "star",
    "within",
    "any_hop",
    "any_hops",
    "epsilon",
    "empty",
    "drop_hop",
    "as_regex",
    # modifiers
    "Modifier",
    "Preserve",
    "Add",
    "Remove",
    "Replace",
    "Drop",
    "Any",
    "preserve",
    "add",
    "remove",
    "replace",
    "drop",
    "any_of",
    # specs
    "RelaSpec",
    "AtomicSpec",
    "SeqSpec",
    "ElseSpec",
    "atomic",
    "seq_spec",
    "else_chain",
    "nochange",
    "flatten_else",
    # pspecs
    "PrefixPredicate",
    "PredTrue",
    "DstPrefixWithin",
    "SrcPrefixWithin",
    "IngressIn",
    "PredAnd",
    "PredOr",
    "PredNot",
    "PSpec",
    "SpecPolicy",
    # compilation
    "to_rir",
    "pre_relation",
    "post_relation",
    "zone",
    "hash_expansions",
    # parser
    "RelaParser",
    "ParsedProgram",
    "parse_program",
]
