"""E27 — crypto fast-path throughput and the matrix's cost.

Not a paper claim: the paper's cost discussion (E18) is denominated in
DES block *counts*, which the fast path leaves bit-identical.  E27
instead guards the reproduction's own engineering floor: the
table-driven block path must stay at least 5× the retained per-bit
reference.  It also times one serial run of the full attack matrix and
checks that the run's hardened column stayed clean.

Each block rate is the best of three timed loops, so one slow loop on
a shared host does not set the ratio.
"""

import time
import timeit

from repro.analysis import render_table
from repro.crypto import des, des_reference
from repro.suite import run_attack_matrix

_KEY = bytes.fromhex("133457799BBCDFF1")
_BLOCK = bytes.fromhex("0123456789ABCDEF")


def _blocks_per_s(stmt, number, **names):
    """Calls of *stmt* per second: the best of three loops of *number*."""
    return number / min(timeit.repeat(stmt, number=number, repeat=3,
                                      globals=dict(block=_BLOCK, **names)))


def run_e27():
    schedule = des.get_schedule(_KEY)
    fast = _blocks_per_s("encrypt(block)", 10_000,
                         encrypt=schedule.encrypt_block)
    reference = _blocks_per_s("crypt(block, subkeys)", 1_000,
                              crypt=des_reference.crypt_block,
                              subkeys=schedule.subkeys)
    ops_before = des.BLOCK_OPS.count
    start = time.perf_counter()
    matrix = run_attack_matrix()
    seconds = time.perf_counter() - start
    return fast, reference, seconds, des.BLOCK_OPS.count - ops_before, matrix


def test_e27_crypto_perf(benchmark, experiment_output):
    fast, reference, seconds, block_ops, matrix = benchmark.pedantic(
        run_e27, iterations=1, rounds=1)
    speedup = fast / reference
    table = [
        ("fast path (blocks/s)", f"{fast:,.0f}"),
        ("reference (blocks/s)", f"{reference:,.0f}"),
        ("speedup", f"{speedup:.2f}x"),
        ("matrix serial (s)", f"{seconds:.3f}"),
        ("matrix DES block ops", str(block_ops)),
        ("hardened column clean", str(matrix.hardened_clean())),
    ]
    experiment_output("e27_crypto_perf", render_table(
        "E27: crypto fast path vs per-bit reference; matrix timing",
        ["measure", "value"], table,
    ))

    assert speedup >= 5.0, table
    assert matrix.hardened_clean(), table
