"""Section 6.1: DAG-encoded path sets versus explicit path enumeration.

The paper motivates the forwarding-graph exchange format with a flow whose
10^8 interface-level ECMP paths took hours to even deserialize, while the DAG
encoding needs only 38 vertices.  This benchmark builds ECMP fan-out graphs,
shows that the number of encoded paths grows exponentially while the graph
stays linear in size, and compares the cost of constructing the snapshot FSA
directly from the DAG against enumerating the paths first (the ablation of
the design choice).
"""

from __future__ import annotations

import time

from repro.automata import Alphabet, FSA
from repro.rela.locations import Granularity
from repro.snapshots.forwarding_graph import ForwardingGraph


def ecmp_graph(stages: int, width: int) -> ForwardingGraph:
    """A stages×width ECMP ladder: width^stages distinct paths."""
    graph = ForwardingGraph(granularity=Granularity.INTERFACE)
    previous = ["ingress"]
    for stage in range(stages):
        current = [f"s{stage}-{member}" for member in range(width)]
        for src in previous:
            for dst in current:
                graph.add_edge(src, dst)
        previous = current
    for src in previous:
        graph.add_edge(src, "egress")
    graph.sources = {"ingress"}
    graph.sinks = {"egress"}
    return graph


def test_dag_compaction_and_fsa_construction():
    print()
    print("Section 6.1 (reproduced): DAG size vs. number of encoded ECMP paths")
    print(f"  {'stages':>6} {'width':>6} {'nodes':>7} {'edges':>7} {'paths':>14}")
    for stages, width in [(4, 2), (8, 4), (12, 8), (16, 10)]:
        graph = ecmp_graph(stages, width)
        print(
            f"  {stages:>6} {width:>6} {graph.num_nodes:>7} {graph.num_edges:>7} "
            f"{graph.count_paths():>14,}"
        )

    # The paper's headline example: ~10^8 paths from a DAG with tens of nodes.
    big = ecmp_graph(8, 10)
    assert big.count_paths() == 10**8
    assert big.num_nodes <= 100

    # Building the snapshot automaton from the DAG is cheap...
    fsa = big.to_fsa(Alphabet())
    assert fsa.num_states == big.num_nodes + 1

    # ...whereas explicit enumeration of even a tiny fraction of the path set
    # is already slower than the whole DAG-based construction.
    small = ecmp_graph(6, 4)  # 4^6 = 4096 paths: still enumerable
    started = time.perf_counter()
    alphabet = Alphabet()
    enumerated = FSA.from_words(alphabet, list(small.paths(max_paths=5000)))
    enumeration_time = time.perf_counter() - started
    started = time.perf_counter()
    direct = small.to_fsa(Alphabet())
    direct_time = time.perf_counter() - started
    print(
        f"  4096-path flow: enumerate-then-build {enumeration_time*1000:.1f} ms "
        f"vs. DAG-direct {direct_time*1000:.1f} ms"
    )
    assert direct_time < enumeration_time
    assert enumerated.num_states > direct.num_states
