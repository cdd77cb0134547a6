"""``python -m repro crack`` — the paper's dictionary attack as a benchmark.

    "A guess at the user's password can be confirmed by calculating Kc
    and using it to decrypt the recorded answer."

The attack itself has lived in :mod:`repro.attacks.password_guess` since
the matrix was built; what this workload adds is the *cost* axis.  It
stands up a deterministic testbed, records real login dialogs off the
wire, and grinds the same dictionary against the captured AS replies
twice:

* the **table** path — :func:`try_password_against_reply` per guess,
  exactly as the attack matrix runs it.  Every guess derives a fresh key,
  so the table backend pays its worst case: a fresh ``derive_subkeys``
  (eight table lookups and one unpack, under half a block's cost) for
  every candidate key, plus the trial decryption.

* the **bitslice** path — guesses flow in lanes-wide batches through
  :func:`repro.crypto.keys.string_to_key_many` and
  :mod:`repro.crypto.des_bitslice`, whose S-boxes are the gate circuits
  of :mod:`repro.crypto.sbox_circuits`.  The captured ciphertext is constant
  across lanes (a constant's lane form is free —
  :func:`~repro.crypto.des_bitslice.broadcast_block`), the sealed length
  field is range-checked by a sliced 32-bit comparator, and only the
  rare lanes that pass that sieve are confirmed with the ordinary
  scalar :func:`repro.kerberos.messages.unseal` — the same unambiguous
  oracle the scalar path ends on, so both paths crack exactly the same
  passwords.

Some victims are *planted* — given passwords from the attack dictionary
at known ranks — so the run has ground truth: a report only counts as
healthy if both paths find every planted password and agree with each
other.  The result lands in ``BENCH_crack.json`` (schema
``repro-bench-crack/1``): guesses/s per backend, lane width, and the
speedup the CI perf-smoke job guards (bitsliced >= 3x table-driven).
``docs/performance.md`` walks through every field.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cracking import attack_dictionary
from repro.attacks.password_guess import (
    _extract_as_material,
    clear_guess_memo,
    try_password_against_reply,
)
from repro.crypto import des_bitslice
from repro.crypto.des import clear_schedule_cache, set_odd_parity
from repro.crypto.keys import string_to_key_many
from repro.kerberos import messages
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.kdc import AS_SERVICE
from repro.kerberos.messages import SealError
from repro.testbed import Testbed

__all__ = ["DEFAULT_LANES", "run_crack", "render_crack"]

#: Default lane width.  The big-int boolean core keeps gaining up to a
#: few thousand lanes (``crack --lanes N`` over N traces the curve);
#: 2048 sits at the knee without making batches so large that a short
#: dictionary underfills them.
DEFAULT_LANES = 2048

#: Sized so a --quick run stays under a second yet still exercises
#: multi-batch lane logic and the >= 64-lane regime the CI floor guards.
_QUICK_TARGETS, _QUICK_WORDS, _QUICK_LANES = 6, 512, 512
_FULL_TARGETS, _FULL_WORDS = 24, 4096


def _build_population(
    targets: int, dictionary: Sequence[str], seed: int
) -> List[Tuple[str, str, bool]]:
    """Choose victim passwords: two thirds planted from the dictionary at
    spread ranks, the rest strong (outside any dictionary)."""
    victims: List[Tuple[str, str, bool]] = []
    for index in range(targets):
        name = f"victim{index:02d}"
        if index % 3 != 2:
            rank = (index * 37 + 5) % len(dictionary)
            victims.append((name, dictionary[rank], True))
        else:
            victims.append((name, f"Qz{seed % 997:03d}!{index:02d}vx", False))
    return victims


def _record_material(
    config: ProtocolConfig,
    victims: Sequence[Tuple[str, str, bool]],
    seed: int,
) -> List[Tuple[str, bytes, bytes]]:
    """Run real logins on a testbed and harvest the AS replies off the
    wire, exactly as a passive eavesdropper would."""
    bed = Testbed(config, seed=seed)
    for name, secret_input, _planted in victims:
        bed.add_user(name, secret_input)
    for name, secret_input, _planted in victims:
        ws = bed.add_workstation(f"ws-{name}")
        bed.login(name, secret_input, ws)
    replies = bed.adversary.recorded(service=AS_SERVICE, direction="response")
    return _extract_as_material(config, replies)


def _table_attack(
    config: ProtocolConfig,
    material: Sequence[Tuple[str, bytes, bytes]],
    dictionary: Sequence[str],
) -> Tuple[Dict[str, str], int]:
    """The attack matrix's scalar loop: first matching word per target."""
    cracked: Dict[str, str] = {}
    attempts = 0
    for client, enc_part, handheld_r in material:
        user = client.split("@", 1)[0]
        for guess in dictionary:
            attempts += 1
            if try_password_against_reply(config, enc_part, guess,
                                          handheld_r=handheld_r):
                cracked[user] = guess
                break
    return cracked, attempts


def _le_mask(bit_lanes: Sequence[int], limit: int, mask: int) -> int:
    """Lanes whose 32-bit big-endian sliced value is <= *limit*.

    A textbook sliced comparator: walk the bits most significant first,
    tracking which lanes are still tied with the constant and which have
    already exceeded it.
    """
    gt = 0
    eq = mask
    for t in range(32):
        x = bit_lanes[t]
        if (limit >> (31 - t)) & 1:
            eq &= x
        else:
            gt |= eq & x
            eq &= ~x
    return mask & ~gt


def _head_plain_lanes(
    config: ProtocolConfig,
    enc_part: bytes,
    trial: des_bitslice.BitslicedKeys,
) -> List[int]:
    """Sliced plaintext of the block holding the sealed length field.

    Mirrors ``password_guess._head_plausible``: decrypt leading blocks
    under every lane's key at once.  The ciphertext (and the zero IV) is
    the same in every lane, so the chaining values are broadcast
    constants for CBC and cheap lane XORs for PCBC.
    """
    mask = trial.mask
    nblocks = 2 if config.use_confounder else 1
    chain = [0] * 64  # zero IV, every lane
    plain = chain
    for i in range(nblocks):
        cipher_block = enc_part[8 * i:8 * i + 8]
        cipher_lanes = des_bitslice.broadcast_block(cipher_block, mask)
        decrypted = des_bitslice.decrypt_lanes(trial, cipher_lanes)
        plain = [d ^ c for d, c in zip(decrypted, chain)]
        if config.cipher_mode == "pcbc":
            chain = [p ^ c for p, c in zip(plain, cipher_lanes)]
        else:
            chain = cipher_lanes
    return plain


def _bitslice_attack(
    config: ProtocolConfig,
    material: Sequence[Tuple[str, bytes, bytes]],
    dictionary: Sequence[str],
    lanes: int,
) -> Tuple[Dict[str, str], int]:
    """Lane-parallel dictionary attack, same first-match semantics as the
    scalar loop (batches, then lanes, follow dictionary order)."""
    cracked: Dict[str, str] = {}
    attempts = 0
    for start in range(0, len(dictionary), lanes):
        open_targets = [
            entry for entry in material
            if entry[0].split("@", 1)[0] not in cracked
        ]
        if not open_targets:
            break
        batch = list(dictionary[start:start + lanes])
        derived = string_to_key_many(batch)
        sliced = des_bitslice.BitslicedKeys(derived)
        for client, enc_part, handheld_r in open_targets:
            user = client.split("@", 1)[0]
            attempts += len(batch)
            if handheld_r:
                # The handheld challenge is public: the reply key is
                # {R}Kc, one extra sliced block operation per batch.
                raised = des_bitslice.encrypt_blocks(
                    sliced, [handheld_r] * len(batch)
                )
                candidates = [set_odd_parity(block) for block in raised]
                trial = des_bitslice.BitslicedKeys(candidates)
            else:
                candidates = derived
                trial = sliced
            # _head_plain_lanes returns the block that starts with the
            # sealed length field, so its first 32 lanes are the length.
            plain = _head_plain_lanes(config, enc_part, trial)
            plausible = _le_mask(plain[:32], len(enc_part), trial.mask)
            while plausible:
                low = plausible & -plausible
                plausible ^= low
                lane = low.bit_length() - 1
                try:
                    messages.unseal(enc_part, candidates[lane], config)
                except SealError:
                    continue
                cracked[user] = batch[lane]
                break
    return cracked, attempts


def run_crack(
    quick: bool = False,
    targets: Optional[int] = None,
    words: Optional[int] = None,
    lanes: Optional[int] = None,
    seed: int = 0,
    out_path: Optional[str] = "BENCH_crack.json",
    config: Optional[ProtocolConfig] = None,
) -> Dict[str, object]:
    """Run the cracking benchmark and return (and optionally write) the
    ``repro-bench-crack/1`` report."""
    if config is None:
        config = ProtocolConfig.v4()
    n_targets = targets if targets is not None else (
        _QUICK_TARGETS if quick else _FULL_TARGETS
    )
    n_words = words if words is not None else (
        _QUICK_WORDS if quick else _FULL_WORDS
    )
    n_lanes = lanes if lanes is not None else (
        _QUICK_LANES if quick else DEFAULT_LANES
    )
    if n_targets < 1 or n_words < 1 or n_lanes < 1:
        raise ValueError("targets, words, and lanes must all be positive")

    dictionary = attack_dictionary(n_words)
    victims = _build_population(n_targets, dictionary, seed)
    material = _record_material(config, victims, seed)

    # Cold start for both paths: no memoised guess keys, no cached
    # schedules, so each path's clock covers its whole pipeline.
    clear_guess_memo()
    clear_schedule_cache()
    t0 = time.perf_counter()
    table_cracked, table_attempts = _table_attack(config, material, dictionary)
    table_seconds = time.perf_counter() - t0

    clear_guess_memo()
    clear_schedule_cache()
    t0 = time.perf_counter()
    slice_cracked, slice_attempts = _bitslice_attack(
        config, material, dictionary, n_lanes
    )
    slice_seconds = time.perf_counter() - t0

    planted = {name: word for name, word, is_planted in victims if is_planted}
    planted_found = all(
        slice_cracked.get(name) == word and table_cracked.get(name) == word
        for name, word in planted.items()
    )
    table_gps = table_attempts / table_seconds if table_seconds else 0.0
    slice_gps = slice_attempts / slice_seconds if slice_seconds else 0.0
    report: Dict[str, object] = {
        "schema": "repro-bench-crack/1",
        "quick": quick,
        "config": {
            "column": config.label,
            "cipher_mode": config.cipher_mode,
            "use_confounder": config.use_confounder,
        },
        "workload": {
            "targets": len(material),
            "planted": len(planted),
            "words": len(dictionary),
            "lanes": n_lanes,
            "seed": seed,
        },
        "table": {
            "attempts": table_attempts,
            "seconds": round(table_seconds, 6),
            "guesses_per_s": round(table_gps, 1),
            "cracked": len(table_cracked),
        },
        "bitslice": {
            "attempts": slice_attempts,
            "seconds": round(slice_seconds, 6),
            "guesses_per_s": round(slice_gps, 1),
            "cracked": len(slice_cracked),
        },
        "speedup": round(slice_gps / table_gps, 2) if table_gps else 0.0,
        "agreement": table_cracked == slice_cracked,
        "planted_found": planted_found,
        "cracked": dict(sorted(slice_cracked.items())),
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def render_crack(report: Dict[str, object]) -> str:
    """Human-readable summary of a crack report."""
    workload = report["workload"]
    table = report["table"]
    bitslice = report["bitslice"]
    assert isinstance(workload, dict)
    assert isinstance(table, dict)
    assert isinstance(bitslice, dict)
    lines = [
        "password cracking benchmark "
        f"({workload['targets']} targets, {workload['words']} words, "
        f"{workload['lanes']} lanes)",
        f"  table:    {table['guesses_per_s']:>12,.0f} guesses/s "
        f"({table['attempts']} attempts, {table['cracked']} cracked)",
        f"  bitslice: {bitslice['guesses_per_s']:>12,.0f} guesses/s "
        f"({bitslice['attempts']} attempts, {bitslice['cracked']} cracked)",
        f"  speedup:  {report['speedup']}x"
        f"  agreement: {report['agreement']}"
        f"  planted found: {report['planted_found']}",
    ]
    return "\n".join(lines)
