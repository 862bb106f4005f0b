"""Tests for the verification engine, snapshot automata and counterexamples."""

import pytest

from repro.automata import Alphabet
from repro.errors import VerificationError
from repro.rela import (
    DstPrefixWithin,
    PSpec,
    SpecPolicy,
    any_of,
    atomic,
    drop,
    locs,
    nochange,
    seq,
)
from repro.rela.locations import Granularity, LocationDB
from repro.snapshots import FlowEquivalenceClass, ForwardingGraph, build_snapshot, drop_graph
from repro.verifier import (
    VerificationOptions,
    VerificationReport,
    build_alphabet,
    compile_spec,
    render_path,
    render_path_set,
    rewrite_hash,
    StateAutomatonBuilder,
    verify_change,
)


def make_pair(
    pre_paths: dict[str, list[tuple[str, ...]]], post_paths: dict[str, list[tuple[str, ...]]]
):
    def build(name, mapping):
        entries = []
        for fec_id, paths in mapping.items():
            fec = FlowEquivalenceClass(
                fec_id,
                dst_prefix=f"10.0.{len(entries)}.0/24",
                ingress=paths[0][0] if paths else "",
            )
            entries.append((fec, paths))
        return build_snapshot(name, entries)

    return build("pre", pre_paths), build("post", post_paths)


# ----------------------------------------------------------------------
# State automata and alphabets
# ----------------------------------------------------------------------
def test_build_alphabet_collects_all_locations():
    pre, post = make_pair({"f1": [("a", "b")]}, {"f1": [("a", "c")]})
    alphabet = build_alphabet(pre, post, extra_symbols={"zone-only"})
    for name in ("a", "b", "c", "zone-only", "drop", "#"):
        assert name in alphabet


def test_state_builder_granularity_conversion():
    db = LocationDB()
    db.add_router("r1", group="G1")
    db.add_router("r2", group="G1")
    db.add_router("r3", group="G2")
    graph = ForwardingGraph.from_paths([("r1", "r2", "r3")], granularity=Granularity.ROUTER)
    alphabet = Alphabet(["G1", "G2"])
    builder = StateAutomatonBuilder(alphabet=alphabet, granularity=Granularity.GROUP, db=db)
    fsa = builder.build(graph)
    assert fsa.accepts(["G1", "G2"])
    # Refining is impossible.
    coarse = ForwardingGraph.from_paths([("G1", "G2")], granularity=Granularity.GROUP)
    fine_builder = StateAutomatonBuilder(alphabet=alphabet, granularity=Granularity.ROUTER, db=db)
    with pytest.raises(VerificationError):
        fine_builder.build(coarse)
    # Conversion without a database is rejected.
    no_db = StateAutomatonBuilder(alphabet=alphabet, granularity=Granularity.GROUP, db=None)
    with pytest.raises(VerificationError):
        no_db.build(graph)


# ----------------------------------------------------------------------
# Counterexample rendering helpers
# ----------------------------------------------------------------------
def test_render_and_rewrite_helpers():
    assert render_path(("a", "b")) == "a-b"
    assert render_path(()) == "ε"
    assert render_path_set([("a",), ("b", "c")]) == "{a, b-c}"
    assert rewrite_hash(("x", "#", "y"), "A1 A2") == ("x", "A1 A2", "y")
    assert rewrite_hash(("x", "#"), None) == ("x", "#")


# ----------------------------------------------------------------------
# Engine verdicts
# ----------------------------------------------------------------------
def test_verify_nochange_pass_and_fail():
    pre, post = make_pair({"f1": [("a", "b")], "f2": [("c",)]},
                          {"f1": [("a", "b")], "f2": [("c",)]})
    report = verify_change(pre, post, nochange())
    assert report.holds
    assert report.total_fecs == 2
    assert report.violating_fecs == 0
    assert "PASS" in report.summary()

    _pre, bad_post = make_pair({}, {"f1": [("a", "x")], "f2": [("c",)]})
    report = verify_change(pre, bad_post, nochange())
    assert not report.holds
    assert report.violating_fecs == 1
    assert report.violations_for("nochange") == 1
    counterexample = report.counterexamples[0]
    assert counterexample.fec_id == "f1"
    assert ("a", "b") in counterexample.pre_paths
    assert ("a", "x") in counterexample.post_paths
    assert counterexample.branches == ["nochange"]
    assert "nochange" in counterexample.reason()
    assert "FAIL" in report.summary()
    assert "Cause of violation" in report.table()


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_same_nodes_different_edges_is_a_change(workers):
    """Equal node, source and sink sets do not make two graphs identical:
    rewiring one edge changes the path set, so ``nochange`` is violated."""
    pre, post = make_pair(
        {"f1": [("a", "b", "c", "d"), ("a", "c", "d")]},
        {"f1": [("a", "b", "c", "d"), ("a", "b", "d")]},
    )
    pre_graph, post_graph = pre.graph("f1"), post.graph("f1")
    assert pre_graph.nodes == post_graph.nodes
    assert (pre_graph.sources, pre_graph.sinks) == (post_graph.sources, post_graph.sinks)
    assert pre_graph.edges != post_graph.edges
    report = verify_change(pre, post, nochange(), options=VerificationOptions(workers=workers))
    assert report.verdict == "violated"
    assert report.violating_fecs == 1


def test_verify_missing_fec_counts_as_empty():
    pre, post = make_pair({"f1": [("a", "b")]}, {})
    report = verify_change(pre, post, nochange())
    assert not report.holds
    # And the other direction: a brand-new FEC in post.
    pre2, post2 = make_pair({}, {"f9": [("a", "b")]})
    report2 = verify_change(pre2, post2, nochange())
    assert not report2.holds


def test_verify_shift_spec_with_branch_attribution():
    shift = atomic(
        seq(locs({"a"}), locs({"b"})),
        any_of(seq(locs({"a"}), locs({"c"}))),
        name="shift",
    )
    spec = shift.else_(nochange())
    pre, post = make_pair(
        {"moved": [("a", "b")], "other": [("x", "y")]},
        {"moved": [("a", "c")], "other": [("x", "y")]},
    )
    assert verify_change(pre, post, spec).holds

    # Incomplete move: the flow stays on its old path -> shift branch violated.
    _1, unmoved_post = make_pair({}, {"moved": [("a", "b")], "other": [("x", "y")]})
    report = verify_change(pre, unmoved_post, spec)
    assert not report.holds
    assert report.violations_for("shift") == 1
    assert report.violations_for("nochange") == 0

    # Collateral damage: unrelated flow changes -> nochange branch violated.
    _2, collateral_post = make_pair({}, {"moved": [("a", "c")], "other": [("x", "z")]})
    report = verify_change(pre, collateral_post, spec)
    assert not report.holds
    assert report.violations_for("shift") == 0
    assert report.violations_for("nochange") == 1


def test_verify_with_spec_policy_prefix_guard():
    dealloc = atomic(".*", drop(), name="dealloc")
    policy = SpecPolicy(
        default=nochange(),
        guarded=[PSpec(DstPrefixWithin("10.0.0.0/24"), dealloc, name="deallocP")],
    )
    fec_drop = FlowEquivalenceClass("f-drop", dst_prefix="10.0.0.0/24", ingress="a")
    fec_keep = FlowEquivalenceClass("f-keep", dst_prefix="10.1.0.0/24", ingress="a")
    pre = build_snapshot("pre", [(fec_drop, [("a", "b")]), (fec_keep, [("a", "c")])])
    post = build_snapshot("post", [(fec_drop, []), (fec_keep, [("a", "c")])])
    post.replace("f-drop", drop_graph())
    assert verify_change(pre, post, policy).holds

    # Still forwarding the decommissioned prefix violates the dealloc spec.
    bad_post = pre.copy(name="bad-post")
    report = verify_change(pre, bad_post, policy)
    assert not report.holds
    assert report.violations_for("dealloc") == 1


def test_verify_options_counterexample_collection_toggle():
    pre, post = make_pair({"f1": [("a", "b")]}, {"f1": [("a", "x")]})
    options = VerificationOptions(collect_counterexamples=False)
    report = verify_change(pre, post, nochange(), options=options)
    assert not report.holds
    assert report.counterexamples == []
    assert report.violating_fecs == 1


def test_verify_parallel_workers_match_serial():
    pre_paths = {f"f{i}": [("a", "b", f"t{i}")] for i in range(8)}
    post_paths = dict(pre_paths)
    post_paths["f3"] = [("a", "z", "t3")]
    pre, post = make_pair(pre_paths, post_paths)
    serial = verify_change(pre, post, nochange())
    parallel = verify_change(pre, post, nochange(), options=VerificationOptions(workers=2))
    assert serial.holds == parallel.holds is False
    assert serial.violating_fecs == parallel.violating_fecs == 1
    assert parallel.workers == 2


def test_forwarding_graph_fingerprint_is_canonical():
    one = ForwardingGraph.from_paths([("a", "b"), ("a", "c")])
    other = ForwardingGraph.from_paths([("a", "c"), ("a", "b")])
    assert one.fingerprint() == other.fingerprint()
    # Mutation invalidates the cached digest.
    cached = one.fingerprint()
    one.add_path(("a", "d"))
    assert one.fingerprint() != cached
    # Granularity participates in the fingerprint.
    coarse = ForwardingGraph.from_paths([("a", "b"), ("a", "c")], granularity=Granularity.GROUP)
    assert coarse.fingerprint() != other.fingerprint()


def test_verify_memoizes_identical_fec_pairs():
    # Ten FECs share one forwarding behaviour, one differs; the violating FEC
    # must still be attributed to its own identifier even though the memoized
    # check ran on a representative.
    pre_paths = {f"f{i}": [("a", "b")] for i in range(10)}
    post_paths = {f"f{i}": [("a", "b")] for i in range(10)}
    post_paths["f7"] = [("a", "z")]
    pre, post = make_pair(pre_paths, post_paths)
    report = verify_change(pre, post, nochange())
    assert not report.holds
    assert report.total_fecs == 10
    assert report.violating_fecs == 1
    assert report.counterexamples[0].fec_id == "f7"


def test_verify_memoized_counterexamples_are_relabelled_per_fec():
    # Two FECs with the same violating graph pair: one check, two
    # counterexamples, sorted by FEC id.
    pre, post = make_pair(
        {"x2": [("a", "b")], "x1": [("a", "b")]},
        {"x2": [("a", "z")], "x1": [("a", "z")]},
    )
    report = verify_change(pre, post, nochange())
    assert report.violating_fecs == 2
    assert [ce.fec_id for ce in report.counterexamples] == ["x1", "x2"]
    assert report.counterexamples[0].violations[0].branch == "nochange"
    assert report.counterexamples[0].pre_paths == report.counterexamples[1].pre_paths


def test_verify_rejects_bad_spec_type():
    pre, post = make_pair({}, {})
    with pytest.raises(VerificationError):
        verify_change(pre, post, "not a spec")  # type: ignore[arg-type]


def test_compile_spec_marks_preserve_only():
    alphabet = Alphabet(["a"])
    compiled = compile_spec(nochange(), alphabet)
    assert compiled.preserve_only
    assert len(compiled.branches) == 1
    shifted = compile_spec(
        atomic("a", any_of("a")).else_(nochange()), alphabet
    )
    assert not shifted.preserve_only
    assert len(shifted.branches) == 2


def test_report_table_truncation():
    report = VerificationReport()
    pre, post = make_pair(
        {f"f{i}": [("a", str(i))] for i in range(5)},
        {f"f{i}": [("a", "changed")] for i in range(5)},
    )
    report = verify_change(pre, post, nochange())
    table = report.table(max_rows=2)
    assert "more counterexamples" in table
