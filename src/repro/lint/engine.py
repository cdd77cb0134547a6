"""The AST/dataflow engine behind ``python -m repro lint``.

The engine walks a Python source tree (by default ``src/repro``) and
builds a :class:`CodeModel` — a flat, queryable record of the facts the
protocol-misuse rules in :mod:`repro.lint.rules` care about:

* **secret flows** — call sites where a secret-looking value (a
  password, session key, subkey, key share...) reaches a callee, found
  by an intraprocedural taint pass: parameters and locals with
  secret-shaped names seed the taint set, assignments propagate it,
  and any call argument mentioning a tainted name records a
  :class:`SecretFlow`;
* **config reads** — every ``<expr>.<field>`` load whose attribute name
  is a :class:`repro.kerberos.config.ProtocolConfig` field, i.e. the
  places where the protocol implementation consults a knob;
* **call sites, function defs, class defs** — enough structure to ask
  "is ``seal_private`` ever called?", "is there an unauthenticated
  ``sync_host_clock``?", or "does a codec class declare ``name = 'v4'``
  without type tags?";
* **crypto facts** — the raw material of the key-material hygiene
  family in :mod:`repro.lint.cryptorules`: a *second*, sanitizer-aware
  secret-taint domain.  Where the protocol family's flow pass asks only
  "does a secret reach this callee?", the crypto pass asks "does a
  secret reach an *output* unsanitized?"  Digest/fingerprint helpers
  and the sealing/encryption entry points cleanse (their results are
  safe to show anyone); binding a secret-shaped name to a non-secret
  value (``key = (address, service)``, ``for key, value in
  d.items()``) strongly *un-taints* it, so the dict-iteration idiom
  does not drown the signal.  The pass records raw secrets reaching
  telemetry/report sinks (:class:`CryptoFlow`), secrets interpolated
  into strings (:class:`SecretFormat`) or exception constructors
  (:class:`SecretRaise`), variable-time ``==``/``!=`` on secrets
  (:class:`SecretCompare`), secrets captured in defaults and module
  globals (:class:`SecretDefault`), functions that *return* secrets
  (:class:`SecretReturn` — the interprocedural summary the rules join
  against), unsanitized calls inside sink arguments
  (:class:`SinkInnerCall` — the other half of that join), and every
  string key of every dict literal (:class:`DictLiteralKey`, which the
  SEALED_PARTS rule filters down to sealed-only payload fields);
* **simulation facts** — the raw material of the determinism /
  scheduler-safety family in :mod:`repro.lint.simrules`: every dotted
  call chain (``_time.perf_counter`` looks nothing like
  ``perf_counter`` to the flat ``callee`` fact), every ``yield`` with
  its command kind (``wait``/``from``/other), every timer
  created or cancelled on a scheduler, and every place an *unordered*
  value (a ``set``/``frozenset``) is iterated or handed to the
  scheduler.  The unordered pass is a second intraprocedural taint
  domain alongside the secret-name one: set-shaped expressions seed it,
  bare-name assignments strongly update it, and ``sorted()`` (or an
  order-insensitive reducer such as ``any``/``len``/``sum``) cleanses.

Both scans of ``src/repro`` skip :data:`BASE_EXCLUDES`: ``attacks``,
which misuses the primitives and handles stolen keys *on purpose*, and
the analyzers ``lint`` and ``check``, whose predicates and property
gates read config fields (they would count as the protocol code
consulting them, shifting every finding's anchor) and talk about
secrets without holding any.  The protocol family's scan
(:data:`DEFAULT_EXCLUDES`) also skips the operational layer — ``serve``
(the sharded KDC service), ``load`` (its load harness), and the
``__main__`` CLI front door — which composes the protocol engine
rather than implementing protocol, and whose dispatch/reporting paths
would likewise move anchors.  The sim and crypto families scan that
layer, since it is exactly the code they guard, so ``lint --family
all`` builds two models: one over the protocol subtree, and one that
the sim and crypto families share.  Unit tests point the engine at
throwaway trees of minimal vulnerable/fixed snippets instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

__all__ = [
    "SecretFlow", "ConfigRead", "CallSite", "DottedCall", "YieldSite",
    "TimerCreate", "TimerCancel", "UnorderedFlow", "CryptoFlow",
    "SecretReturn", "SinkInnerCall", "SecretFormat", "SecretCompare",
    "SecretRaise", "SecretDefault", "DictLiteralKey", "FunctionInfo",
    "ClassAttr", "ClassInfo", "CodeModel", "is_secret_name",
    "is_crypto_secret_name", "CRYPTO_SANITIZERS", "CRYPTO_SINK_CALLEES",
    "analyze_source", "analyze_tree", "analyze_repro", "BASE_EXCLUDES",
    "DEFAULT_EXCLUDES",
]

#: Subtrees both scans of ``src/repro`` skip, and all that the sim and
#: crypto families' shared scan skips: the attack modules misuse the
#: primitives and handle stolen keys on purpose, and the analyzers read
#: config fields and talk about secrets without holding any.  ``serve``,
#: ``load`` and the CLI front door stay in: they are exactly the code
#: those two families guard.
BASE_EXCLUDES: Tuple[str, ...] = ("attacks", "lint", "check")

#: The protocol family's narrower scan (see module docstring).
DEFAULT_EXCLUDES: Tuple[str, ...] = BASE_EXCLUDES + ("serve", "load",
                                                     "__main__")

_SECRET_EXACT: FrozenSet[str] = frozenset({
    "key", "keys", "kc", "password", "passwd", "passphrase", "subkey",
    "secret",
})


def is_secret_name(name: str) -> bool:
    """Heuristic: does *name* look like it holds key material?"""
    lowered = name.lower()
    return (
        lowered in _SECRET_EXACT
        or lowered.endswith("_key")
        or lowered.endswith("_share")
        or "password" in lowered
        or "secret" in lowered
    )


def is_crypto_secret_name(name: str) -> bool:
    """The crypto family's wider net: also plural key stores.

    Kept separate from :func:`is_secret_name` on purpose — widening the
    protocol family's predicate would move its finding anchors and
    invalidate the recorded baseline fingerprints.
    """
    lowered = name.lower()
    return is_secret_name(name) or lowered.endswith("_keys")


#: Callables whose *result* is safe to show anyone, even when a secret
#: went in: digest/fingerprint helpers (one-way, identifying) and the
#: sealing/encryption entry points (ciphertext out).  The crypto taint
#: walk does not descend into their arguments.  ``hex`` is pointedly
#: absent — ``key.hex()`` is the whole key, re-spelled.
CRYPTO_SANITIZERS: FrozenSet[str] = frozenset({
    # digests and fingerprints
    "digest", "detectability_digest", "trace_digests", "fingerprint",
    "md4", "crc32", "compute", "hexdigest", "constant_time_compare",
    # sealing / encryption: ciphertext is public by design
    "seal", "seal_private", "cbc_encrypt", "pcbc_encrypt", "ecb_encrypt",
    "encrypt_block", "_encrypt",
    # unsealing / decryption: the *key argument* does not flow into the
    # plaintext result — whether that plaintext is itself secret is
    # tracked by the names of the fields later pulled out of it
    "unseal", "unseal_private", "cbc_decrypt", "pcbc_decrypt",
    "ecb_decrypt", "decrypt_block", "_decrypt",
    # the hardware unit's key-import: a secret goes in, an opaque
    # handle comes out
    "load_key",
    # size/shape reducers
    "len", "bool", "type", "isinstance", "sorted", "any", "all", "sum",
})

#: Methods whose result *is* their receiver's content re-spelled, so
#: taint flows through the receiver: ``key.hex()`` is the whole key.
#: Every other method call keeps its receiver out of the walk — the
#: result of ``keys.name(rank)`` is a username, not the key store.
_CRYPTO_TRANSPARENT: FrozenSet[str] = frozenset({
    "hex", "to_bytes", "tobytes",
})

#: Call sites the crypto pass treats as *output* sinks: telemetry
#: (EventBus.emit, tracer spans), report/benchmark writers, stdlib
#: logging, and bare prints.  A raw secret reaching any argument of
#: these is a :class:`CryptoFlow` fact.
CRYPTO_SINK_CALLEES: FrozenSet[str] = frozenset({
    "emit",                                      # EventBus.emit
    "begin", "end", "record", "span", "annotate",  # tracer span attrs
    "print", "write", "write_text",              # reports on disk/stdout
    "dump", "dumps",                             # json writers
    "info", "debug", "warning", "error", "critical", "log",
})


# --------------------------------------------------------------------- #
# facts
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SecretFlow:
    """A secret-tainted value reached a call argument."""

    file: str
    line: int
    function: str
    secret: str    # the tainted name that reached the call
    callee: str    # last dotted component of the called expression


@dataclass(frozen=True)
class ConfigRead:
    """An attribute load of a ProtocolConfig field name."""

    file: str
    line: int
    function: str
    field: str


@dataclass(frozen=True)
class CallSite:
    """Any call, by its last dotted name."""

    file: str
    line: int
    function: str
    callee: str


@dataclass(frozen=True)
class DottedCall:
    """A call recorded with its full dotted receiver chain.

    ``dotted`` is the attribute path as written (``_time.perf_counter``,
    ``self.sched.after``, ``datetime.datetime.now``); bare-name calls
    record the name alone.  Calls whose receiver is not a plain
    name/attribute chain (e.g. ``get_clock().advance``) record the
    chain from the first resolvable component.
    """

    file: str
    line: int
    function: str
    dotted: str

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(self.dotted.split("."))


@dataclass(frozen=True)
class YieldSite:
    """One ``yield`` inside a function, classified by command kind.

    ``command`` is ``"wait"`` for the scheduler's one command,
    ``"from"`` for delegation (``yield from``), and ``"other"`` for
    anything else — including bare ``yield``.
    """

    file: str
    line: int
    function: str
    command: str


@dataclass(frozen=True)
class TimerCreate:
    """A scheduler timer armed via ``<...sched...>.at/after(...)``.

    ``target`` is the last component of the name the timer was bound to
    (``failsafe`` for ``job.failsafe = self.sched.after(...)``), or
    ``""`` when the returned :class:`Timer` was discarded.
    """

    file: str
    line: int
    function: str
    target: str


@dataclass(frozen=True)
class TimerCancel:
    """A timer cancellation: ``X.cancel()`` or ``<sched>.cancel(X)``.

    ``target`` is the last component of ``X``.
    """

    file: str
    line: int
    function: str
    target: str


@dataclass(frozen=True)
class UnorderedFlow:
    """An unordered (set-shaped) value reached an order-sensitive sink.

    ``sink`` is ``"iteration"`` for a ``for`` loop or order-sensitive
    comprehension, ``"scheduling"`` for an argument to a scheduler
    primitive (``spawn``/``at``/``after``).
    """

    file: str
    line: int
    function: str
    name: str    # the unordered-tainted name (or "<set>" for a literal)
    sink: str


@dataclass(frozen=True)
class CryptoFlow:
    """A raw (unsanitized) secret reached a telemetry/report sink."""

    file: str
    line: int
    function: str
    secret: str    # the tainted name that reached the sink
    callee: str    # the sink callee (one of CRYPTO_SINK_CALLEES)


@dataclass(frozen=True)
class SecretReturn:
    """A function returns a secret-tainted expression.

    ``function`` is the plain (last-component) name, so it joins
    against :attr:`SinkInnerCall.inner` and call-site callees — the
    interprocedural summary of the crypto pass.
    """

    file: str
    line: int
    function: str


@dataclass(frozen=True)
class SinkInnerCall:
    """A non-sanitizer call inside a sink call's argument.

    ``emit(Event(kc=key_of(p)))`` records ``inner="key_of"`` under
    ``sink="emit"``; if some :class:`SecretReturn` names ``key_of``,
    the secret crossed a function boundary on its way to the sink.
    """

    file: str
    line: int
    function: str
    sink: str
    inner: str


@dataclass(frozen=True)
class SecretFormat:
    """A secret interpolated into a string.

    ``via`` is ``"fstring"``, ``"repr"``, ``"str"``, ``"format"``, or
    ``"percent"``.
    """

    file: str
    line: int
    function: str
    secret: str
    via: str


@dataclass(frozen=True)
class SecretCompare:
    """``==`` / ``!=`` with a secret side (variable-time equality)."""

    file: str
    line: int
    function: str
    secret: str


@dataclass(frozen=True)
class SecretRaise:
    """A secret reached an exception constructor inside ``raise``."""

    file: str
    line: int
    function: str
    secret: str


@dataclass(frozen=True)
class SecretDefault:
    """Key material captured in a default or a module/class global.

    ``kind`` is ``"default"`` (secret-named parameter with a non-None
    default), ``"module-global"`` (module-level secret name bound to a
    mutable container), or ``"class-attr"`` (same at class level).
    """

    file: str
    line: int
    function: str
    name: str
    kind: str


@dataclass(frozen=True)
class DictLiteralKey:
    """One secret-named string key of one dict literal.

    ``value_empty`` is True when the value carries no raw secret — an
    empty/falsy placeholder constant (``b""``, ``""``, ``0``, ``None``)
    or a sanitized expression like ``digest(key)``.
    """

    file: str
    line: int
    function: str
    key: str
    value_empty: bool


@dataclass(frozen=True)
class FunctionInfo:
    """A function or method definition."""

    file: str
    line: int
    name: str
    qualname: str


@dataclass(frozen=True)
class ClassAttr:
    """A class-level attribute: ``name = <constant>`` or ``name: T``."""

    name: str
    line: int
    value: str     # repr of the constant value, or "" if not a constant


@dataclass(frozen=True)
class ClassInfo:
    """A class definition and its directly declared surface."""

    file: str
    line: int
    name: str
    attrs: Tuple[ClassAttr, ...]
    methods: Tuple[str, ...]

    def attr(self, name: str) -> Optional[ClassAttr]:
        for attr in self.attrs:
            if attr.name == name:
                return attr
        return None


@dataclass
class CodeModel:
    """Everything the rules can ask about a scanned tree."""

    files: List[str] = field(default_factory=list)
    flows: List[SecretFlow] = field(default_factory=list)
    config_reads: List[ConfigRead] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    dotted_calls: List[DottedCall] = field(default_factory=list)
    yields: List[YieldSite] = field(default_factory=list)
    timer_creates: List[TimerCreate] = field(default_factory=list)
    timer_cancels: List[TimerCancel] = field(default_factory=list)
    unordered_flows: List[UnorderedFlow] = field(default_factory=list)
    crypto_flows: List[CryptoFlow] = field(default_factory=list)
    secret_returns: List[SecretReturn] = field(default_factory=list)
    sink_inner_calls: List[SinkInnerCall] = field(default_factory=list)
    secret_formats: List[SecretFormat] = field(default_factory=list)
    secret_compares: List[SecretCompare] = field(default_factory=list)
    secret_raises: List[SecretRaise] = field(default_factory=list)
    secret_defaults: List[SecretDefault] = field(default_factory=list)
    dict_literal_keys: List[DictLiteralKey] = field(default_factory=list)
    functions: List[FunctionInfo] = field(default_factory=list)
    classes: List[ClassInfo] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    # -- queries --------------------------------------------------------

    def reads_of(self, field_name: str) -> List[ConfigRead]:
        return sorted(
            (r for r in self.config_reads if r.field == field_name),
            key=lambda r: (r.file, r.line),
        )

    def calls_of(self, *callees: str) -> List[CallSite]:
        wanted = set(callees)
        return sorted(
            (c for c in self.calls if c.callee in wanted),
            key=lambda c: (c.file, c.line),
        )

    def flows_into(self, *callees: str) -> List[SecretFlow]:
        wanted = set(callees)
        return sorted(
            (f for f in self.flows if f.callee in wanted),
            key=lambda f: (f.file, f.line),
        )

    def process_functions(self) -> FrozenSet[Tuple[str, str]]:
        """``(file, function)`` pairs that yield scheduler commands.

        A function with at least one ``yield wait(...)`` is a scheduler
        process: the scheduler-safety rules hold it to process
        discipline (no direct clock advances, no stray yields, no
        orphaned timers).
        """
        return frozenset(
            (y.file, y.function) for y in self.yields if y.command == "wait"
        )

    def secret_returners(self) -> FrozenSet[str]:
        """Plain names of functions that return secret material.

        This is the crypto pass's interprocedural summary: built over
        the *whole* merged model, so a ``key_of`` defined in
        ``database.py`` convicts an ``emit(...key_of(p)...)`` in
        ``kdc.py``.
        """
        return frozenset(r.function for r in self.secret_returns)

    def files_calling(self, *callees: str) -> FrozenSet[str]:
        """Files with at least one call to any of *callees*."""
        wanted = set(callees)
        return frozenset(c.file for c in self.calls if c.callee in wanted)

    def functions_named(self, name: str) -> List[FunctionInfo]:
        return sorted(
            (f for f in self.functions if f.name == name),
            key=lambda f: (f.file, f.line),
        )

    def classes_with_attr(self, name: str, value: str) -> List[ClassInfo]:
        matched: List[ClassInfo] = []
        for info in self.classes:
            attr = info.attr(name)
            if attr is not None and attr.value == value:
                matched.append(info)
        return sorted(matched, key=lambda c: (c.file, c.line))


# --------------------------------------------------------------------- #
# the walker
# --------------------------------------------------------------------- #


def _config_field_names() -> FrozenSet[str]:
    from dataclasses import fields as dc_fields

    from repro.kerberos.config import ProtocolConfig

    return frozenset(f.name for f in dc_fields(ProtocolConfig))


#: Callables whose result does not depend on iteration order: reducers
#: and re-sorters.  An unordered value flowing straight into one of
#: these is harmless (and ``sorted`` actively cleanses the taint).
_ORDER_INSENSITIVE: FrozenSet[str] = frozenset({
    "any", "all", "sum", "min", "max", "len", "sorted", "set", "frozenset",
})

#: Scheduler primitives: handing an unordered value to one of these
#: turns iteration order into event order.
_SCHEDULING_CALLEES: FrozenSet[str] = frozenset({"spawn", "at", "after"})


class _Analyzer(ast.NodeVisitor):
    """One pass over one module; appends facts to the shared model."""

    def __init__(self, file: str, model: CodeModel,
                 config_fields: FrozenSet[str]) -> None:
        self.file = file
        self.model = model
        self.config_fields = config_fields
        self._scopes: List[str] = []
        self._scope_kinds: List[str] = []    # "func" / "class" per scope
        self._tainted: List[Set[str]] = [set()]
        # Parallel taint domain: names currently bound to unordered
        # (set-shaped) values.  Function scopes inherit lexically.
        self._unordered: List[Set[str]] = [set()]
        # Crypto taint domain: strong updates both ways.  ``_ct_tainted``
        # holds non-secret-shaped names assigned from secret values;
        # ``_ct_cleansed`` holds secret-shaped names assigned from
        # non-secret values (``key = (address, service)``), overriding
        # the name heuristic.
        self._ct_tainted: List[Set[str]] = [set()]
        self._ct_cleansed: List[Set[str]] = [set()]
        # Timer-create Call nodes already recorded (with their bound
        # name) by the enclosing assignment, so visit_Call does not
        # re-record them as discarded.
        self._claimed_timer_calls: Set[int] = set()
        # Comprehension nodes passed directly to an order-insensitive
        # reducer; their unordered iteration is harmless.
        self._exempt_comps: Set[int] = set()

    # -- scope helpers --------------------------------------------------

    @property
    def _function(self) -> str:
        return ".".join(self._scopes) if self._scopes else "<module>"

    def _secret_token(self, expr: ast.expr) -> str:
        """The tainted name inside *expr*, or "" if it carries none."""
        tainted = self._tainted[-1]
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                if sub.id in tainted or is_secret_name(sub.id):
                    return sub.id
            elif isinstance(sub, ast.Attribute):
                if is_secret_name(sub.attr):
                    return sub.attr
        return ""

    def _crypto_token(self, expr: ast.expr,
                      shadow_tainted: FrozenSet[str] = frozenset(),
                      shadow_cleansed: FrozenSet[str] = frozenset()) -> str:
        """The raw-secret name inside *expr* for the crypto domain.

        Unlike :meth:`_secret_token` this walk is sanitizer-aware (it
        does not descend into :data:`CRYPTO_SANITIZERS` calls — their
        result is public by contract), honours the strong-update
        cleansing set so a generic ``key`` rebound to a dict key stops
        counting, treats a secret-*named* callee as a producer
        (``string_to_key(...)`` is key material whatever went in), and
        skips method-call receivers — ``keys.name(rank)`` returns a
        username, not the key store — except for the content-preserving
        :data:`_CRYPTO_TRANSPARENT` spellings like ``key.hex()``.

        The shadow sets are comprehension-local: generator targets are
        (un)tainted for the body of their own comprehension before the
        enclosing scope's update lands, so ``f"{key}={value}" for key,
        value in attrs.items()`` is clean at the site where it appears.
        """
        if isinstance(expr, ast.Call):
            callee = self._last_component(expr.func)
            if callee in CRYPTO_SANITIZERS:
                return ""
            if is_crypto_secret_name(callee):
                return callee
            scan: List[ast.expr] = list(expr.args)
            scan.extend(kw.value for kw in expr.keywords)
            if callee in _CRYPTO_TRANSPARENT and \
                    isinstance(expr.func, ast.Attribute):
                scan.append(expr.func.value)
            for argument in scan:
                token = self._crypto_token(argument, shadow_tainted,
                                           shadow_cleansed)
                if token:
                    return token
            return ""
        if isinstance(expr, ast.Name):
            if expr.id in shadow_cleansed:
                return ""
            if expr.id in self._ct_tainted[-1] or expr.id in shadow_tainted:
                return expr.id
            if is_crypto_secret_name(expr.id) and \
                    expr.id not in self._ct_cleansed[-1] and \
                    expr.id not in self.config_fields:
                return expr.id
            return ""
        if isinstance(expr, ast.Attribute):
            # ProtocolConfig knobs like ``negotiate_session_key`` are
            # booleans *about* keys, not keys.
            if is_crypto_secret_name(expr.attr) and \
                    expr.attr not in self.config_fields:
                return expr.attr
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            tainted = set(shadow_tainted)
            cleansed = set(shadow_cleansed)
            for generator in expr.generators:
                token = self._crypto_token(generator.iter,
                                           frozenset(tainted),
                                           frozenset(cleansed))
                names = set(self._bare_names(generator.target))
                if token:
                    tainted |= names
                    cleansed -= names
                else:
                    cleansed |= names
                    tainted -= names
            body: List[ast.expr] = []
            if isinstance(expr, ast.DictComp):
                body.extend([expr.key, expr.value])
            else:
                body.append(expr.elt)
            for generator in expr.generators:
                body.extend(generator.ifs)
            for sub in body:
                token = self._crypto_token(sub, frozenset(tainted),
                                           frozenset(cleansed))
                if token:
                    return token
            return ""
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.keyword, ast.FormattedValue,
                                  ast.comprehension)):
                token = self._crypto_token(child,  # type: ignore[arg-type]
                                           shadow_tainted, shadow_cleansed)
                if token:
                    return token
        return ""

    def _propagate_crypto(self, targets: Sequence[ast.expr],
                          value: Optional[ast.expr],
                          loop: bool = False) -> None:
        """Strong update of the crypto-taint domain on assignment.

        Both directions matter: binding a secret value taints the
        target, binding a non-secret value *cleanses* it — that is what
        lets ``for key, value in d.items()`` use the most natural name
        in Python without lighting the family up.  Only bare-name
        targets update (``obj.attr = key`` taints neither ``obj`` nor
        ``attr`` — attribute loads are judged by their own names).

        One asymmetry: binding an *unknown* call result (neither a
        sanitizer nor a secret-named producer) to a plain assignment
        target discards taint but does not cleanse, so ``key =
        self._use(handle)`` keeps its name-based suspicion.  Loop and
        comprehension targets (``loop=True``) always update strongly —
        ``for key, value in d.items()`` means a mapping key no matter
        what produced the mapping.
        """
        if value is None:
            return
        inner = value
        while isinstance(inner, (ast.Await, ast.YieldFrom)) or \
                (isinstance(inner, ast.Yield) and inner.value is not None):
            inner = inner.value  # type: ignore[assignment]
            if inner is None:
                return
        token = self._crypto_token(inner)
        unknown_call = (
            isinstance(inner, ast.Call)
            and self._last_component(inner.func) not in CRYPTO_SANITIZERS
        )
        tainted = self._ct_tainted[-1]
        cleansed = self._ct_cleansed[-1]
        for target in targets:
            for name in self._bare_names(target):
                if token:
                    tainted.add(name)
                    cleansed.discard(name)
                elif loop or not unknown_call:
                    tainted.discard(name)
                    cleansed.add(name)
                else:
                    tainted.discard(name)

    @staticmethod
    def _bare_names(target: ast.expr) -> List[str]:
        """Names *target* rebinds: bare names and tuple/list/star
        nests of them — never the base of an attribute or subscript
        store, which binds a slot, not the name."""
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: List[str] = []
            for element in target.elts:
                names.extend(_Analyzer._bare_names(element))
            return names
        if isinstance(target, ast.Starred):
            return _Analyzer._bare_names(target.value)
        return []

    @staticmethod
    def _target_names(target: ast.expr) -> List[str]:
        names: List[str] = []
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
        return names

    @staticmethod
    def _dotted_chain(func: ast.expr) -> str:
        """``a.b.c`` for a plain name/attribute chain, else the longest
        trailing chain that is one (``x().advance`` -> ``advance``)."""
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return ".".join(reversed(parts))

    @staticmethod
    def _last_component(expr: ast.expr) -> str:
        """The last name component of an expression (``failsafe`` for
        ``job.failsafe``), or "" if it has none."""
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        return ""

    # -- unordered-value helpers ----------------------------------------

    @staticmethod
    def _is_set_expr(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in ("set", "frozenset"))

    def _unordered_token(self, expr: ast.expr) -> str:
        """The unordered name/source inside *expr*, or "" if none.

        A call to ``sorted`` or an order-insensitive reducer cleanses:
        its result is a deterministic scalar or sequence even when the
        input was a set.
        """
        if isinstance(expr, ast.Call):
            callee = ""
            if isinstance(expr.func, ast.Name):
                callee = expr.func.id
            elif isinstance(expr.func, ast.Attribute):
                callee = expr.func.attr
            if callee in _ORDER_INSENSITIVE and callee not in (
                    "set", "frozenset"):
                return ""
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            # A list/generator comprehension preserves its source order:
            # the result is unordered only if a source iterable is (a
            # set referenced in an ``if m in seen`` filter is not).
            for generator in expr.generators:
                token = self._unordered_token(generator.iter)
                if token:
                    return token
            return ""
        unordered = self._unordered[-1]
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id in unordered:
                return sub.id
            if self._is_set_expr(sub):
                return "<set>"
        return ""

    def _propagate_unordered(self, targets: Sequence[ast.expr],
                             value: Optional[ast.expr]) -> None:
        """Strong update of the unordered-taint set on assignment.

        Only bare-name targets participate: attribute targets would
        taint whole objects (``self``) and drown the signal.
        """
        if value is None:
            return
        token = self._unordered_token(value)
        unordered = self._unordered[-1]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    if token:
                        unordered.add(sub.id)
                    else:
                        unordered.discard(sub.id)

    # -- definitions ----------------------------------------------------

    def _enter_function(self, node: ast.AST, name: str,
                        args: ast.arguments) -> None:
        self.model.functions.append(FunctionInfo(
            file=self.file, line=getattr(node, "lineno", 0), name=name,
            qualname=".".join(self._scopes + [name]),
        ))
        seeded: Set[str] = set()
        every = (list(args.posonlyargs) + list(args.args)
                 + list(args.kwonlyargs))
        if args.vararg is not None:
            every.append(args.vararg)
        if args.kwarg is not None:
            every.append(args.kwarg)
        for arg in every:
            if is_secret_name(arg.arg):
                seeded.add(arg.arg)
        self._record_secret_defaults(args, ".".join(self._scopes + [name]))
        self._scopes.append(name)
        self._scope_kinds.append("func")
        self._tainted.append(seeded)
        # Lexical inheritance: module-level set constants (and enclosing
        # function locals) stay unordered inside nested scopes.
        self._unordered.append(set(self._unordered[-1]))
        self._ct_tainted.append(set())
        self._ct_cleansed.append(set())

    def _leave_function(self) -> None:
        self._scopes.pop()
        self._scope_kinds.pop()
        self._tainted.pop()
        self._unordered.pop()
        self._ct_tainted.pop()
        self._ct_cleansed.pop()

    def _record_secret_defaults(self, args: ast.arguments,
                                qualname: str) -> None:
        """Secret-named parameters with a baked-in (non-None) default."""
        positional = list(args.posonlyargs) + list(args.args)
        defaults: List[Tuple[ast.arg, Optional[ast.expr]]] = []
        pos_defaults = list(args.defaults)
        for arg, default in zip(positional[len(positional)
                                           - len(pos_defaults):],
                                pos_defaults):
            defaults.append((arg, default))
        defaults.extend(zip(args.kwonlyargs, args.kw_defaults))
        for arg, default in defaults:
            if default is None:
                continue
            if isinstance(default, ast.Constant) and \
                    default.value in (None, b"", "", 0):
                continue
            # A bare name/attribute default references a module constant
            # the caller can see and override — not baked-in material.
            if isinstance(default, (ast.Name, ast.Attribute)):
                continue
            if is_crypto_secret_name(arg.arg) and \
                    arg.arg not in self.config_fields:
                self.model.secret_defaults.append(SecretDefault(
                    file=self.file, line=default.lineno,
                    function=qualname, name=arg.arg, kind="default",
                ))

    @staticmethod
    def _is_mutable_container(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                             ast.ListComp, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in ("dict", "list", "set", "bytearray",
                                     "defaultdict", "OrderedDict"))

    def _record_global_secret(self, targets: Sequence[ast.expr],
                              value: ast.expr) -> None:
        """Module- or class-level secret name bound to a mutable store."""
        if self._scope_kinds and self._scope_kinds[-1] == "func":
            return
        if not self._is_mutable_container(value):
            return
        # A literal container of plain constants is a wordlist/fixture
        # (``COMMON_PASSWORDS = [...]``), not captured runtime keys.
        if isinstance(value, (ast.List, ast.Set, ast.Tuple)) and \
                all(isinstance(e, ast.Constant) for e in value.elts):
            return
        kind = "class-attr" if self._scope_kinds else "module-global"
        for target in targets:
            if isinstance(target, ast.Name) and \
                    is_crypto_secret_name(target.id):
                self.model.secret_defaults.append(SecretDefault(
                    file=self.file, line=value.lineno,
                    function=self._function, name=target.id, kind=kind,
                ))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, node.name, node.args)
        self.generic_visit(node)
        self._leave_function()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, node.name, node.args)
        self.generic_visit(node)
        self._leave_function()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        attrs: List[ClassAttr] = []
        methods: List[str] = []
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                value = (repr(stmt.value.value)
                         if isinstance(stmt.value, ast.Constant) else "")
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        attrs.append(ClassAttr(
                            name=target.id, line=stmt.lineno, value=value,
                        ))
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    value = (repr(stmt.value.value)
                             if isinstance(stmt.value, ast.Constant)
                             else "")
                    attrs.append(ClassAttr(
                        name=stmt.target.id, line=stmt.lineno, value=value,
                    ))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
        self.model.classes.append(ClassInfo(
            file=self.file, line=node.lineno, name=node.name,
            attrs=tuple(attrs), methods=tuple(methods),
        ))
        self._scopes.append(node.name)
        self._scope_kinds.append("class")
        self.generic_visit(node)
        self._scopes.pop()
        self._scope_kinds.pop()

    # -- taint propagation ----------------------------------------------

    def _propagate(self, targets: Sequence[ast.expr],
                   value: Optional[ast.expr]) -> None:
        if value is None:
            return
        if self._secret_token(value):
            tainted = self._tainted[-1]
            for target in targets:
                tainted.update(self._target_names(target))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._propagate(node.targets, node.value)
        self._propagate_unordered(node.targets, node.value)
        self._propagate_crypto(node.targets, node.value)
        self._record_global_secret(node.targets, node.value)
        self._claim_timer_create(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._propagate([node.target], node.value)
        self._propagate_unordered([node.target], node.value)
        if node.value is not None:
            self._propagate_crypto([node.target], node.value)
            self._record_global_secret([node.target], node.value)
            self._claim_timer_create([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._propagate([node.target], node.value)
        # Augmented assignment reads the target too, so it can only add
        # unordered taint (``merged |= other`` keeps ``merged`` a set),
        # never strongly remove it.
        if self._unordered_token(node.value):
            for name in self._target_names(node.target):
                self._unordered[-1].add(name)
        # Same asymmetry for the crypto domain: ``blob += key`` keeps
        # the secret in ``blob``; a non-secret augment cleanses nothing.
        if self._crypto_token(node.value):
            for name in self._bare_names(node.target):
                self._ct_tainted[-1].add(name)
                self._ct_cleansed[-1].discard(name)
        self.generic_visit(node)

    # -- timers ----------------------------------------------------------

    def _is_timer_call(self, call: ast.expr) -> bool:
        """Does *call* arm a scheduler timer (``<...sched...>.at/after``)?"""
        if not isinstance(call, ast.Call):
            return False
        chain = self._dotted_chain(call.func)
        parts = chain.split(".")
        return (len(parts) >= 2 and parts[-1] in ("at", "after")
                and "sched" in parts[-2].lower())

    def _claim_timer_create(self, targets: Sequence[ast.expr],
                            value: ast.expr) -> None:
        """Record a timer create bound to a name, claiming the Call node
        so :meth:`visit_Call` does not re-record it as discarded."""
        if not self._is_timer_call(value):
            return
        target = self._last_component(targets[0]) if targets else ""
        self._claimed_timer_calls.add(id(value))
        self.model.timer_creates.append(TimerCreate(
            file=self.file, line=value.lineno,
            function=self._function, target=target,
        ))

    # -- facts ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        callee = ""
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        if callee:
            self.model.calls.append(CallSite(
                file=self.file, line=node.lineno,
                function=self._function, callee=callee,
            ))
            arguments: List[ast.expr] = list(node.args)
            arguments.extend(kw.value for kw in node.keywords)
            for argument in arguments:
                token = self._secret_token(argument)
                if token:
                    self.model.flows.append(SecretFlow(
                        file=self.file, line=node.lineno,
                        function=self._function, secret=token,
                        callee=callee,
                    ))
        chain = self._dotted_chain(node.func)
        if chain:
            self.model.dotted_calls.append(DottedCall(
                file=self.file, line=node.lineno,
                function=self._function, dotted=chain,
            ))
        if self._is_timer_call(node) and id(node) not in \
                self._claimed_timer_calls:
            self.model.timer_creates.append(TimerCreate(
                file=self.file, line=node.lineno,
                function=self._function, target="",
            ))
        if callee == "cancel":
            target = ""
            if node.args:
                target = self._last_component(node.args[0])
            elif isinstance(node.func, ast.Attribute):
                target = self._last_component(node.func.value)
            if target:
                self.model.timer_cancels.append(TimerCancel(
                    file=self.file, line=node.lineno,
                    function=self._function, target=target,
                ))
        if callee in _SCHEDULING_CALLEES:
            for argument in list(node.args) + \
                    [kw.value for kw in node.keywords]:
                if (isinstance(argument, ast.Name)
                        and argument.id in self._unordered[-1]) \
                        or self._is_set_expr(argument):
                    self.model.unordered_flows.append(UnorderedFlow(
                        file=self.file, line=node.lineno,
                        function=self._function,
                        name=(argument.id if isinstance(argument, ast.Name)
                              else "<set>"),
                        sink="scheduling",
                    ))
        if callee in _ORDER_INSENSITIVE:
            for argument in node.args:
                if isinstance(argument, (ast.ListComp, ast.GeneratorExp,
                                         ast.SetComp, ast.DictComp)):
                    self._exempt_comps.add(id(argument))
        if callee in CRYPTO_SINK_CALLEES:
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                token = self._crypto_token(argument)
                if token:
                    self.model.crypto_flows.append(CryptoFlow(
                        file=self.file, line=node.lineno,
                        function=self._function, secret=token,
                        callee=callee,
                    ))
                for inner in self._inner_callees(argument):
                    self.model.sink_inner_calls.append(SinkInnerCall(
                        file=self.file, line=node.lineno,
                        function=self._function, sink=callee, inner=inner,
                    ))
        if callee in ("repr", "str", "format"):
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                token = self._crypto_token(argument)
                if token:
                    self.model.secret_formats.append(SecretFormat(
                        file=self.file, line=node.lineno,
                        function=self._function, secret=token, via=callee,
                    ))
        self.generic_visit(node)

    def _inner_callees(self, expr: ast.expr) -> List[str]:
        """Last-component names of non-sanitizer calls inside *expr*.

        The walk skips sanitizer subtrees wholesale — ``digest(key_of(p))``
        contributes nothing, because whatever ``key_of`` returned was
        digested before it could leave.
        """
        out: List[str] = []
        if isinstance(expr, ast.Call):
            callee = ""
            if isinstance(expr.func, ast.Name):
                callee = expr.func.id
            elif isinstance(expr.func, ast.Attribute):
                callee = expr.func.attr
            if callee in CRYPTO_SANITIZERS:
                return out
            if callee:
                out.append(callee)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.keyword)):
                out.extend(self._inner_callees(child))  # type: ignore[arg-type]
        return out

    def _flag_unordered_iter(self, iter_expr: ast.expr, line: int) -> None:
        if isinstance(iter_expr, ast.Name) and \
                iter_expr.id in self._unordered[-1]:
            name = iter_expr.id
        elif self._is_set_expr(iter_expr):
            name = "<set>"
        else:
            return
        self.model.unordered_flows.append(UnorderedFlow(
            file=self.file, line=line, function=self._function,
            name=name, sink="iteration",
        ))

    def visit_For(self, node: ast.For) -> None:
        self._flag_unordered_iter(node.iter, node.lineno)
        # Loop targets rebind: ``for key, value in d.items()`` cleanses
        # (or taints) the bound names like an assignment would.
        self._propagate_crypto([node.target], node.iter, loop=True)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.expr, order_sensitive: bool) -> None:
        if order_sensitive and id(node) not in self._exempt_comps:
            for generator in node.generators:   # type: ignore[attr-defined]
                self._flag_unordered_iter(generator.iter, node.lineno)
        # Comprehension targets rebind before the element expression is
        # evaluated; the crypto domain's flat scope model applies the
        # update for the rest of the enclosing function too — a benign
        # over-approximation, since any later assignment re-updates.
        for generator in node.generators:       # type: ignore[attr-defined]
            self._propagate_crypto([generator.target], generator.iter,
                                   loop=True)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, order_sensitive=True)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, order_sensitive=True)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, order_sensitive=True)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set comprehension's result is itself unordered, so the
        # iteration order of its source can never be observed.
        self._visit_comp(node, order_sensitive=False)

    def visit_Yield(self, node: ast.Yield) -> None:
        command = "other"
        if isinstance(node.value, ast.Call):
            callee = ""
            if isinstance(node.value.func, ast.Name):
                callee = node.value.func.id
            elif isinstance(node.value.func, ast.Attribute):
                callee = node.value.func.attr
            if callee == "wait":
                command = callee
        self.model.yields.append(YieldSite(
            file=self.file, line=node.lineno,
            function=self._function, command=command,
        ))
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.model.yields.append(YieldSite(
            file=self.file, line=node.lineno,
            function=self._function, command="from",
        ))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.ctx, ast.Load)
                and node.attr in self.config_fields):
            self.model.config_reads.append(ConfigRead(
                file=self.file, line=node.lineno,
                function=self._function, field=node.attr,
            ))
        self.generic_visit(node)

    # -- crypto facts -----------------------------------------------------

    @staticmethod
    def _is_empty_constant(expr: ast.expr) -> bool:
        """``b""``/``""``/``0``/``None``: an emptiness probe, not a
        value comparison, so timing reveals nothing secret."""
        return isinstance(expr, ast.Constant) and \
            expr.value in (b"", "", 0, None)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._is_empty_constant(left) or \
                    self._is_empty_constant(right):
                continue
            token = self._crypto_token(left) or self._crypto_token(right)
            if token:
                self.model.secret_compares.append(SecretCompare(
                    file=self.file, line=node.lineno,
                    function=self._function, secret=token,
                ))
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        if node.exc is not None:
            token = self._crypto_token(node.exc)
            if token:
                self.model.secret_raises.append(SecretRaise(
                    file=self.file, line=node.lineno,
                    function=self._function, secret=token,
                ))
        self.generic_visit(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                token = self._crypto_token(value.value)
                if token:
                    self.model.secret_formats.append(SecretFormat(
                        file=self.file, line=node.lineno,
                        function=self._function, secret=token,
                        via="fstring",
                    ))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        # ``"key=%r" % key`` — the percent spelling of an f-string leak.
        if isinstance(node.op, ast.Mod) and \
                isinstance(node.left, ast.Constant) and \
                isinstance(node.left.value, str):
            token = self._crypto_token(node.right)
            if token:
                self.model.secret_formats.append(SecretFormat(
                    file=self.file, line=node.lineno,
                    function=self._function, secret=token, via="percent",
                ))
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if key is None or not isinstance(key, ast.Constant) or \
                    not isinstance(key.value, str):
                continue
            if not is_crypto_secret_name(key.value):
                continue
            self.model.dict_literal_keys.append(DictLiteralKey(
                file=self.file, line=node.lineno,
                function=self._function, key=key.value,
                value_empty=self._is_empty_constant(value) or
                self._crypto_token(value) == "",
            ))
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._scopes:
            token = self._crypto_token(node.value)
            if token:
                self.model.secret_returns.append(SecretReturn(
                    file=self.file, line=node.lineno,
                    function=self._scopes[-1],
                ))
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #


def analyze_source(source: str, file: str, model: CodeModel,
                   config_fields: Optional[FrozenSet[str]] = None) -> None:
    """Analyze one module's source text into *model*."""
    if config_fields is None:
        config_fields = _config_field_names()
    try:
        tree = ast.parse(source, filename=file)
    except SyntaxError as exc:
        model.errors.append(f"{file}: {exc.msg} (line {exc.lineno})")
        return
    model.files.append(file)
    _Analyzer(file, model, config_fields).visit(tree)


def analyze_tree(root: Path,
                 exclude: Sequence[str] = DEFAULT_EXCLUDES,
                 prefix: str = "") -> CodeModel:
    """Analyze every ``*.py`` under *root*, in sorted-path order.

    *exclude* names top-level subdirectories (``check``) or top-level
    modules (``load``, matching ``load.py``) of *root* to skip; *prefix*
    is prepended to every recorded (root-relative) path so findings can
    anchor repo-relative (e.g. ``src/repro/``).
    """
    model = CodeModel()
    config_fields = _config_field_names()
    excluded = set(exclude)
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts and relative.parts[0] in excluded:
            continue
        if len(relative.parts) == 1 and relative.stem in excluded:
            continue
        analyze_source(path.read_text(encoding="utf-8"),
                       prefix + relative.as_posix(), model, config_fields)
    return model


def analyze_repro(exclude: Sequence[str] = DEFAULT_EXCLUDES) -> CodeModel:
    """Analyze the installed ``repro`` package itself."""
    import repro

    package_file = repro.__file__
    if package_file is None:  # pragma: no cover - namespace-package guard
        raise RuntimeError("cannot locate the repro package on disk")
    return analyze_tree(Path(package_file).parent, exclude=exclude,
                        prefix="src/repro/")
