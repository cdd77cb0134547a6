"""E27 — crypto fast-path throughput and the matrix's cost.

Not a paper claim: the paper's cost discussion (E18) is denominated in
DES block *counts*, which the fast path leaves bit-identical.  E27
instead guards the reproduction's own engineering floor: the
table-driven block path must stay at least 5× the retained per-bit
reference.  It also times one serial run of the full attack matrix and
checks that the run's hardened column stayed clean.
"""

from repro.perf import bench_block_throughput, bench_matrix
from repro.analysis import render_table


def run_perf_pair():
    block = bench_block_throughput(iterations=20_000, ref_iterations=2_000)
    matrix = bench_matrix()
    return block, matrix


def test_e27_crypto_perf(benchmark, experiment_output):
    block, matrix = benchmark.pedantic(run_perf_pair, iterations=1, rounds=1)
    table = [
        ("fast path (blocks/s)", f"{block['fast_blocks_per_s']:,}"),
        ("reference (blocks/s)", f"{block['reference_blocks_per_s']:,}"),
        ("speedup", f"{block['speedup']:.2f}x"),
        ("matrix serial (s)", f"{matrix['serial_seconds']:.3f}"),
        ("matrix DES block ops", str(matrix['des_block_ops'])),
        ("hardened column clean", str(matrix['hardened_clean'])),
    ]
    experiment_output("e27_crypto_perf", render_table(
        "E27: crypto fast path vs per-bit reference; matrix timing",
        ["measure", "value"], table,
    ))

    assert block["speedup"] >= 5.0, block
    assert matrix["hardened_clean"], matrix
