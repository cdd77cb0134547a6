"""Synthesize the bitsliced DES S-box circuits in ``repro.crypto.sbox_circuits``.

The bitsliced backend (``repro.crypto.des_bitslice``) evaluates each
S-box as straight-line AND/OR/XOR code over six lane integers, so its
cost is the gate count.  This script finds those gates once and writes
them out as a plain module, so importing the backend does no search.

Every function here is a 64-bit truth table: bit *v* of a table is the
function's value on the 6-bit S-box index *v*, and input ``a0`` is the
index's most significant bit.  A table is built by Shannon
decomposition on one of the inputs *s* it depends on:

    f = f0 ^ (s & (f0 ^ f1))

where ``f0`` and ``f1`` are its cofactors at ``s = 0`` and ``s = 1``.
Constant cofactors fold (``f0 == 0`` gives ``s & f1``, ``f1`` all ones
gives ``f0 | s``, ``f1 == ~f0`` gives ``f0 ^ s``, and the other two
use ``~s``).  The difference ``f0 ^ f1`` may also be decomposed
directly instead of through ``f1`` (the Davio form), and the step may
select on ``~s`` with ``f1`` as its base.  Any table already built in
the same box — an input, a cofactor, a difference, another output — is
reused, and so is its complement, at one XOR with the all-lanes mask.

The search: every order of the six inputs is scored by decomposing the
box's four outputs on the first input each table depends on; the best
``SEARCH_ORDERS`` orders are then improved one table at a time (change
that table's input or form, keep the change if the box needs fewer
gates) until no change helps.  The result is deterministic, so
``--check`` can regenerate it and compare.

Usage::

    python tools/synth_sboxes.py            # rewrite the module
    python tools/synth_sboxes.py --check    # exit 1 if it would change

A run takes ~20 s on a 2-vCPU Xeon (CPython 3.11).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULE = ROOT / "src" / "repro" / "crypto" / "sbox_circuits.py"

#: How many of the best-scoring input orders are improved per box.
SEARCH_ORDERS = 8

FULL = (1 << 64) - 1
#: Truth table of input ``a{i}``: bit *v* is bit ``5 - i`` of *v*.
INPUTS = tuple(
    sum(1 << v for v in range(64) if (v >> (5 - i)) & 1) for i in range(6)
)
_LOW = tuple(table ^ FULL for table in INPUTS)
_SPAN = tuple(1 << (5 - i) for i in range(6))

#: The three forms of one decomposition step on input *s*.
SHANNON, DAVIO, NEG_DAVIO = 0, 1, 2

Choice = Tuple[int, int]  # (input, form)
Gate = Tuple[str, str, str, str]  # (target, left, operator, right)


def output_tables(box: Sequence[int]) -> List[int]:
    """The four output bits of one FIPS 46 S-box as truth tables, most
    significant first (row from the outer index bits, column from the
    middle four)."""
    tables = [0, 0, 0, 0]
    for v in range(64):
        value = box[(((v >> 5) << 1) | (v & 1)) * 16 + ((v >> 1) & 0xF)]
        for bit in range(4):
            if (value >> (3 - bit)) & 1:
                tables[bit] |= 1 << v
    return tables


@functools.lru_cache(maxsize=None)
def cofactors(table: int, var: int) -> Tuple[int, int]:
    """*table* with input *var* fixed to 0 and to 1, each as a full
    64-bit table that no longer depends on *var*."""
    low, high = table & _LOW[var], table & INPUTS[var]
    return low | (low << _SPAN[var]), high | (high >> _SPAN[var])


def support(table: int) -> List[int]:
    """The inputs *table* depends on."""
    return [var for var in range(6)
            if cofactors(table, var)[0] != cofactors(table, var)[1]]


class Circuit:
    """The gates that build one box's outputs under one policy.

    *policy* maps a table to the :data:`Choice` that decomposes it;
    a table it does not name is split on the first input of *order* it
    depends on, Shannon form.
    """

    def __init__(self, outputs: Sequence[int], order: Sequence[int],
                 policy: Dict[int, Choice]) -> None:
        self.order = order
        self.policy = policy
        self.names: Dict[int, str] = {FULL: "m"}
        for var, table in enumerate(INPUTS):
            self.names[table] = f"a{var}"
        self.gates: List[Gate] = []
        self.decomposed: List[int] = []
        self.starts: List[int] = []
        self.outputs: List[str] = []
        for table in outputs:
            self.starts.append(len(self.gates))
            self.outputs.append(self.build(table))

    def _gate(self, table: int, left: str, op: str, right: str) -> str:
        name = f"t{len(self.gates)}"
        self.gates.append((name, left, op, right))
        self.names[table] = name
        return name

    def _choice(self, table: int) -> Choice:
        choice = self.policy.get(table)
        if choice is not None:
            return choice
        for var in self.order:
            low, high = cofactors(table, var)
            if low != high:
                return (var, SHANNON)
        raise AssertionError("a constant table is never decomposed")

    def build(self, table: int) -> str:
        """The name of a variable holding *table*, adding its gates."""
        name = self.names.get(table)
        if name is not None:
            return name
        other = self.names.get(table ^ FULL)
        if other is not None:
            return self._gate(table, other, "^", "m")
        self.decomposed.append(table)
        var, form = self._choice(table)
        f0, f1 = cofactors(table, var)
        sel = f"a{var}"
        if f1 == FULL:
            return self._gate(table, self.build(f0), "|", sel)
        if f0 == 0:
            return self._gate(table, sel, "&", self.build(f1))
        diff = f0 ^ f1
        if diff == FULL:
            return self._gate(table, self.build(f0), "^", sel)
        if f0 == FULL:
            return self._gate(table, self.build(f1), "|",
                              self.build(_LOW[var]))
        if f1 == 0:
            return self._gate(table, self.build(f0), "&",
                              self.build(_LOW[var]))
        if form == NEG_DAVIO:
            base, picked = self.build(f1), _LOW[var]
        else:
            base, picked = self.build(f0), INPUTS[var]
        step = self.names.get(picked & diff)
        if step is None:
            if form == SHANNON and diff not in self.names \
                    and diff ^ FULL not in self.names:
                delta = self._gate(diff, base, "^", self.build(f1))
            else:
                delta = self.build(diff)
            step = self._gate(picked & diff, self.build(picked), "&", delta)
        return self._gate(table, base, "^", step)


def improve(outputs: Sequence[int], order: Sequence[int]) -> Circuit:
    """Change one table's decomposition at a time while that saves a
    gate, until a whole pass saves none."""
    best = Circuit(outputs, order, {})
    improved = True
    while improved:
        improved = False
        for table in list(best.decomposed):
            for var in support(table):
                for form in (SHANNON, DAVIO, NEG_DAVIO):
                    if best.policy.get(table) == (var, form):
                        continue
                    trial = Circuit(outputs, order,
                                    {**best.policy, table: (var, form)})
                    if len(trial.gates) < len(best.gates):
                        best, improved = trial, True
    return best


def synthesize(box: Sequence[int]) -> Circuit:
    """The fewest-gate circuit the search finds for one S-box."""
    outputs = output_tables(box)
    scored = sorted(
        (len(Circuit(outputs, order, {}).gates), order)
        for order in itertools.permutations(range(6))
    )
    return min((improve(outputs, order) for _, order in scored[:SEARCH_ORDERS]),
               key=lambda circuit: len(circuit.gates))


_HEADER = '''\
"""Bitsliced DES S-box circuits, generated by ``tools/synth_sboxes.py``.

Do not edit by hand: rerun ``python tools/synth_sboxes.py`` to
regenerate, and ``--check`` to compare.  ``s1`` .. ``s8`` evaluate the
FIPS 46 S-boxes over sliced lanes.  Inputs ``a0`` .. ``a5`` are the six
input bits (``a0`` the most significant of the 6-bit index, in the E
expansion's order) and ``m`` the all-lanes mask, so ``x ^ m`` is NOT x;
each returns the four output bits, most significant first.

Each circuit was found by Shannon decomposition on 64-bit truth tables,
every table already built in the box reused with its complement (see
the generator's docstring).  Gates per box: {counts}; {total} in all.
"""

from __future__ import annotations

from typing import Callable, Tuple

__all__ = ["SBOXES", "SboxCircuit"]

SboxCircuit = Callable[[int, int, int, int, int, int, int],
                       Tuple[int, int, int, int]]
'''


def render_function(index: int, circuit: Circuit) -> List[str]:
    """One box's circuit as an annotated, straight-line function."""
    lines = [
        "",
        "",
        f"def s{index}(a0: int, a1: int, a2: int, a3: int, a4: int, a5: int,",
        f"       m: int) -> Tuple[int, int, int, int]:",
        f'    """S{index}: {len(circuit.gates)} gates."""',
    ]
    for position, gate in enumerate(circuit.gates):
        for bit, start in enumerate(circuit.starts):
            if position == start:
                lines.append(f"    # output bit {bit}")
        name, left, op, right = gate
        lines.append(f"    {name} = {left} {op} {right}")
    lines.append(f"    return ({', '.join(circuit.outputs)})")
    return lines


def render(circuits: Sequence[Circuit]) -> str:
    counts = [len(circuit.gates) for circuit in circuits]
    lines = [_HEADER.format(counts="/".join(map(str, counts)),
                            total=sum(counts)).rstrip("\n")]
    for index, circuit in enumerate(circuits, start=1):
        lines.extend(render_function(index, circuit))
    names = ", ".join(f"s{index}" for index in range(1, len(circuits) + 1))
    lines += ["", "", f"SBOXES: Tuple[SboxCircuit, ...] = ({names})"]
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the committed module differs")
    args = parser.parse_args(argv)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.crypto.des import _SBOXES

    circuits = [synthesize(box) for box in _SBOXES]
    text = render(circuits)
    total = sum(len(circuit.gates) for circuit in circuits)
    relative = MODULE.relative_to(ROOT)
    if args.check:
        if MODULE.read_text(encoding="utf-8") != text:
            print(f"{relative} differs from the synthesized circuits "
                  f"({total} gates); rerun python tools/synth_sboxes.py")
            return 1
        print(f"{relative} unchanged ({total} gates)")
        return 0
    MODULE.write_text(text, encoding="utf-8")
    print(f"wrote {relative} ({total} gates)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
