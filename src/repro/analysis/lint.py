"""keylint: the static half of KeySan — an AST secret-hygiene linter.

The runtime sanitizer (:mod:`repro.sanitizer`) catches leaks as they
happen; this pass catches the *code patterns* that cause them, derived
from §4 of the paper:

``bn-free``
    ``bn_free()`` of a secret-hinted BIGNUM (a private exponent, a CRT
    prime, anything named like key material) leaves its digit bytes in
    the freed heap chunk.  Secret BIGNUMs must use ``bn_clear_free()``.

``raw-secret-bytes``
    Retaining raw Python ``bytes`` of key material on an object
    attribute keeps a copy *outside* simulated memory, invisible to the
    scanner, the sanitizer, and every countermeasure being evaluated.
    Key bytes belong in simulated memory only.

``snapshot-scope``
    ``PhysicalMemory.snapshot()`` / ``raw_view()`` are the omniscient
    core-dump primitives.  Only attack code (``attacks/``) and the
    sanitizer (``sanitizer/``) may call them; anything else peeking at
    raw RAM is either cheating or leaking.

``memalign-mlock``
    A ``memalign``/``posix_memalign`` of a secret page that is not
    paired with an ``mlock`` in the same function can be swapped out —
    the exact hole ``RSA_memory_align()`` exists to close.

``secret-in-log``
    ``print()`` / ``logging`` calls whose arguments (including
    f-strings) embed raw key bytes — a secret-producer call like
    ``d_bytes()`` or a CRT-part attribute of a key object.  A log line
    is a copy of the key that outlives every scrub: it lands in ring
    buffers, journald, and terminal scrollback where no countermeasure
    reaches.

``swallowed-error``
    A bare ``except:`` anywhere, or an ``except <ReproError type>:``
    whose body does nothing (``pass`` or a lone constant/docstring).
    Silently swallowing a simulator error is how a fault turns into a
    missed scrub: the code path that should have cleaned up key state
    never learns it failed.  Handlers must at least record the failure
    (a counter, a log entry) or re-raise.

``wall-clock-in-sim``
    ``time.time()``/``time.sleep()``/``datetime.now()`` (and friends)
    inside the simulator proper (``faults/``, ``kernel/``, ``apps/``,
    ``core/``).  The simulation runs on :class:`SimClock` virtual
    microseconds; a wall-clock read smuggles host nondeterminism into
    supposedly seeded, byte-identical runs — restart backoffs, soak
    reports and fault schedules must tick virtual time only.  Harness
    code (``analysis/``, the CLI) may time itself with the real clock.

``derived-secret-scrub``
    A teardown path that clear-scrubs the *primary* secret (the
    private exponent, a CRT prime) while the same function also
    touches *derived* key state — CRT exponents ``dmp1``/``dmq1``, the
    coefficient ``iqmp``, Montgomery cache residues — that it never
    scrubs.  Each derived fragment reconstructs the primary secret
    (KeyRecon's reconstruction rules; §3.2 of the paper), so the
    half-scrub buys nothing: scrub the fragments alongside, or call
    ``drop_mont(clear=True)`` for the Montgomery state.

``long-lived-secret``
    A function that mints key material (``d2i_privatekey``,
    ``generate_rsa_key``, a raw ``bn_bin2bn``/``pem_decode``, or an
    ``open_connection`` whose child re-reads the key) and then parks in
    a blocking primitive — a transfer, a request loop, an accept — with
    no scrub in between.  Every tick spent blocked is exposure window
    (KeySpan's metric): a disclosure attack that fires mid-block reads
    the fresh copies.  Scrub first, or hand the copy to a mitigation
    (``rsa_memory_align``/``offload_to_vault``) before blocking; where
    the hold *is* the mitigation's job, say so with a reviewed ignore.

Every rule honours a ``# keylint: ignore[rule]`` comment on the
flagged line (``ignore[*]`` silences all rules for that line); use it
where a violation is deliberate, e.g. in negative-path tests.

Each file is linted in one pre-order pass that visits every node once
(see :class:`_FileLinter` for its scope rule): the per-node rules run
as their node is reached, and memalign-mlock, derived-secret-scrub
and long-lived-secret run when their def or lambda scope ends.

The public entry points are :func:`lint_file` and :func:`lint_paths`;
``python -m repro lint`` is a thin shell over them, and
``python -m repro analyze --layers keylint`` runs them beside the IR
layers.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from repro.analysis.ir.project import ParsedFile

#: Every rule keylint knows, in report order.
RULE_NAMES = (
    "bn-free",
    "raw-secret-bytes",
    "snapshot-scope",
    "memalign-mlock",
    "swallowed-error",
    "mont-clear",
    "secret-in-log",
    "wall-clock-in-sim",
    "derived-secret-scrub",
    "long-lived-secret",
)

#: Identifier tokens that mark a value as key material.  An argument
#: like ``priv_bn``, ``rsa.d`` or ``key_parts`` trips the bn-free rule;
#: ``n_bn`` or ``pub_exp`` does not.
SECRET_TOKENS = frozenset(
    {"d", "p", "q", "dmp1", "dmq1", "iqmp",
     "priv", "private", "secret", "key", "prime", "exponent"}
)

#: Calls producing raw secret bytes (the values the runtime sanitizer
#: registers as taint sources).
SECRET_PRODUCERS = frozenset(
    {"to_bytes", "part_bytes", "d_bytes", "p_bytes", "q_bytes",
     "int_to_bytes", "pem_encode"}
)

#: Logging terminals watched by secret-in-log.  ``print`` is a plain
#: name; the rest are the stdlib ``logging`` method names, matched as
#: the terminal of an attribute call (``logger.debug(...)``).
LOG_SINKS = frozenset(
    {"print", "debug", "info", "warning", "error", "critical",
     "exception", "log"}
)

#: CRT-part attribute names: ``<key>.dmp1`` etc. are unambiguous key
#: material; single-letter ``d``/``p``/``q`` only count when the base
#: object itself looks like a key (see KEY_BASE_TOKENS).
CRT_PART_ATTRS = frozenset({"d", "p", "q", "dmp1", "dmq1", "iqmp"})

#: Base-object tokens that mark ``base.d`` as a private CRT part
#: rather than, say, a loop index namespace.
KEY_BASE_TOKENS = frozenset({"rsa", "key", "priv", "private", "secret"})

#: Raw-RAM primitives restricted by snapshot-scope.
RAW_VIEW_CALLS = frozenset({"snapshot", "raw_view"})

#: Path fragments (POSIX, relative) allowed to call raw-RAM primitives.
SNAPSHOT_ALLOWED = ("attacks/", "sanitizer/")

#: Path fragments where holding raw key bytes on objects is the point:
#: the experiment harness generates the key, attack/oracle code needs
#: the ground-truth patterns to search for.
RAW_BYTES_ALLOWED = ("attacks/", "sanitizer/", "analysis/", "core/simulation.py")

#: Functions that *are* the allocation primitives (wrapper definitions
#: legitimately call the lower layer without an mlock).
MEMALIGN_DEFINERS = frozenset({"memalign", "posix_memalign"})

#: Path fragments that run *inside* the deterministic simulation and
#: therefore must never read the host wall clock.  Harness code
#: (``analysis/``, the CLI, tools) legitimately times itself.
WALL_CLOCK_SCOPED = ("faults/", "kernel/", "apps/", "core/")

#: ``time`` module members that read or burn host wall-clock time.
WALL_CLOCK_TIME_FUNCS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "sleep",
     "perf_counter", "perf_counter_ns", "process_time",
     "process_time_ns"}
)

#: ``datetime``/``date`` constructors that capture "now".
WALL_CLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Calls that actually clear bytes (as opposed to plain frees) — the
#: scrubs derived-secret-scrub audits for completeness.
CLEAR_SCRUB_CALLS = frozenset({"bn_clear_free", "zeroize"})

#: Tokens naming a *primary* secret: the private exponent and the CRT
#: primes, which alone determine the key.
PRIMARY_SECRET_TOKENS = frozenset(
    {"d", "p", "q", "priv", "private", "secret", "prime", "exponent"}
)

#: Tokens naming *derived* key state: CRT exponents, the CRT
#: coefficient, and Montgomery residues.  Each reconstructs the
#: primary secret, so a scrub that skips them is incomplete.
DERIVED_SECRET_TOKENS = frozenset({"dmp1", "dmq1", "iqmp", "mont"})

#: Calls after which fresh key-material copies are live in the calling
#: scope.  ``open_connection`` counts because the stock (re-exec) sshd
#: path re-reads the key file per connection inside it.
KEY_MINT_CALLS = frozenset(
    {"d2i_privatekey", "generate_rsa_key", "bn_bin2bn", "pem_decode",
     "open_connection"}
)

#: Primitives that park the caller for an unbounded stretch of virtual
#: time: network waits and whole-session drivers.  Key copies held
#: across one of these are exposed for the full block (the
#: long-lived-secret rule).
BLOCKING_CALLS = frozenset(
    {"accept", "recv", "recv_all", "select", "poll", "serve_forever",
     "wait", "wait_for", "transfer", "handle_request",
     "cycle_connections", "hold_connections"}
)

#: Calls that discharge a minted copy before a block: real scrubs, the
#: freeing teardown, and the mitigation handoffs that take ownership of
#: the copy's lifetime.
HOLD_SCRUB_CALLS = CLEAR_SCRUB_CALLS | frozenset(
    {"rsa_free", "scrub_slot", "rsa_memory_align", "offload_to_vault"}
)

_IGNORE_RE = re.compile(r"#\s*keylint:\s*ignore\[([\w*,\s-]+)\]")


def _repro_error_names() -> frozenset:
    """Every exception class name in the simulator hierarchy."""
    import repro.errors as errors_module

    return frozenset(
        name
        for name, obj in vars(errors_module).items()
        if isinstance(obj, type) and issubclass(obj, errors_module.ReproError)
    )


#: Names the swallowed-error rule watches in ``except`` clauses.
REPRO_ERROR_NAMES = _repro_error_names()


def _handler_exception_names(node: ast.ExceptHandler) -> Set[str]:
    """Exception class names an ``except`` clause catches."""
    if node.type is None:
        return set()
    exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    names: Set[str] = set()
    for expr in exprs:
        if isinstance(expr, ast.Name):
            names.add(expr.id)
        elif isinstance(expr, ast.Attribute):
            names.add(expr.attr)
    return names


def _is_silent_body(body: Sequence[ast.stmt]) -> bool:
    """True when a handler body does nothing observable: only ``pass``
    and bare constants (docstrings, ``...``)."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def _ignored_rules(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rules silenced by ``# keylint: ignore[...]``."""
    ignored: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(text)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            ignored[lineno] = rules
    return ignored


def _identifier_tokens(node: ast.expr) -> Set[str]:
    """Lower-cased name parts of an expression: ``rsa.dmp1`` ->
    ``{"rsa", "dmp1"}``, ``priv_key_bn`` -> ``{"priv", "key", "bn"}``."""
    names: List[str] = []
    for sub in _subtree(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    tokens: Set[str] = set()
    for name in names:
        tokens.update(part for part in name.lower().split("_") if part)
    return tokens


def _name_tokens(name: str) -> Set[str]:
    """Lower-cased underscore-split parts of one identifier."""
    return {part for part in name.lower().split("_") if part}


def _root_name(node: ast.expr) -> Optional[str]:
    """The identifier an attribute chain hangs off (``dt.datetime`` ->
    ``dt``), or None when the chain starts at a call or subscript."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


#: AST node type -> its ``_fields`` in reverse, ``ctx`` left out.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _push_children(node: ast.AST, stack: List[ast.AST]) -> None:
    """``ast.iter_child_nodes(node)`` onto ``stack`` in reverse, so the
    children pop in source order."""
    kind = type(node)
    fields = _CHILD_FIELDS.get(kind)
    if fields is None:
        fields = _CHILD_FIELDS[kind] = tuple(
            name for name in reversed(kind._fields) if name != "ctx"
        )
    for name in fields:
        value = getattr(node, name, None)
        if type(value) is list:
            for item in reversed(value):
                if isinstance(item, ast.AST):
                    stack.append(item)
        elif isinstance(value, ast.AST):
            stack.append(value)


def _subtree(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and every node under it, as ``ast.walk`` finds them but
    in another order (every caller folds them into a set)."""
    stack = [node]
    while stack:
        sub = stack.pop()
        yield sub
        _push_children(sub, stack)


def _call_name(node: ast.Call) -> Optional[str]:
    """The called function's terminal name (``x.y.f(...)`` -> ``f``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _secret_exposures(node: ast.expr) -> List[str]:
    """Descriptions of key-material expressions inside ``node``:
    secret-producer calls (``d_bytes()``) and CRT-part attributes on
    key-looking bases (``rsa.dmp1``, ``key.d``).  f-strings are plain
    expression trees, so ``f"d={rsa.d}"`` is covered by the same walk."""
    found: Set[str] = set()
    for sub in _subtree(node):
        if isinstance(sub, ast.Call):
            name = _call_name(sub)
            if name in SECRET_PRODUCERS:
                found.add(f"{name}()")
        elif isinstance(sub, ast.Attribute) and sub.attr in CRT_PART_ATTRS:
            base_tokens = _identifier_tokens(sub.value)
            if sub.attr in ("dmp1", "dmq1", "iqmp") or (
                base_tokens & KEY_BASE_TOKENS
            ):
                found.add(f".{sub.attr}")
    return sorted(found)


def _clears_mont(node: ast.Call) -> bool:
    """True when a ``drop_mont()`` call passes ``clear=True``."""
    clear = next((kw.value for kw in node.keywords if kw.arg == "clear"), None)
    return isinstance(clear, ast.Constant) and clear.value is True


#: The node types that open a scope of their own.
_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class _Scope:
    """A def or lambda while the pass is inside it: what the rules that
    read a whole scope need of the nodes filed under it."""

    __slots__ = ("name", "calls", "idents")

    def __init__(self, name: str) -> None:
        self.name = name
        #: ``(terminal name, call)`` for each named call, in pre-order.
        self.calls: List[Tuple[str, ast.Call]] = []
        #: Every ``Name`` id and attribute name.
        self.idents: Set[str] = set()


class _FileLinter:
    """One pre-order pass over a module collecting every rule's
    violations.

    Each node is visited once, from an explicit stack.  Call, Import,
    ImportFrom, ExceptHandler and the assignments run their rules as
    they are reached, so import aliases are known in source order.
    Each node is also filed under its innermost def or lambda scope: a
    nested def's decorators, defaults and annotations belong to that
    def, a lambda is a scope of its own, a class body belongs to the
    enclosing scope and module-level code to none.  (Not the scope
    rule of :func:`repro.analysis.ir.project.iter_own_nodes`, which
    descends into lambdas and skips classes; merging the two would
    move keylint's findings.)  When a scope ends, the rules that read
    all of it run: derived-secret-scrub, long-lived-secret and
    memalign-mlock."""

    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.violations: List[LintViolation] = []
        self._snapshot_exempt = any(
            frag in rel_path for frag in SNAPSHOT_ALLOWED
        )
        self._raw_bytes_exempt = any(
            frag in rel_path for frag in RAW_BYTES_ALLOWED
        )
        self._wall_clock_scoped = any(
            frag in rel_path for frag in WALL_CLOCK_SCOPED
        )
        #: Local aliases of the ``time`` / ``datetime`` modules and of
        #: wall-clock functions imported by name (``from time import
        #: sleep as nap`` -> ``nap``).
        self._time_aliases: Set[str] = set()
        self._datetime_aliases: Set[str] = set()
        self._clock_name_imports: Set[str] = set()
        #: Node type -> its rule, for the statement-level rules.
        self._handlers = {
            ast.Import: self._visit_import,
            ast.ImportFrom: self._visit_import_from,
            ast.ExceptHandler: self._visit_except_handler,
            ast.Assign: self._check_retention,
            ast.AnnAssign: self._check_retention,
            ast.AugAssign: self._check_retention,
        }

    def run(self, tree: ast.AST) -> None:
        """Lint ``tree``.  A scope is pushed under its children, so it
        pops, and its rules run, once they are all visited."""
        handlers = self._handlers
        scopes: List[_Scope] = []
        scope: Optional[_Scope] = None
        stack: List[object] = [tree]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is _Scope:
                self._close_scope(node)
                scopes.pop()
                scope = scopes[-1] if scopes else None
                continue
            if kind is ast.Name:
                if scope is not None:
                    scope.idents.add(node.id)
                continue  # nothing below a Name but its ctx
            if kind is ast.Attribute:
                if scope is not None:
                    scope.idents.add(node.attr)
            elif kind is ast.Call:
                name = _call_name(node)
                self._visit_call(node, name)
                if scope is not None and name is not None:
                    scope.calls.append((name, node))
            elif kind in _SCOPE_TYPES:
                scope = _Scope("<lambda>" if kind is ast.Lambda else node.name)
                scopes.append(scope)
                stack.append(scope)
            else:
                handler = handlers.get(kind)
                if handler is not None:
                    handler(node)
            _push_children(node, stack)

    # ------------------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.rel_path,
                line=node.lineno,
                col=node.col_offset,
                rule=rule,
                message=message,
            )
        )

    # ------------------------------------------------------------------
    # the rules that read a whole scope, run when it ends
    # ------------------------------------------------------------------
    def _close_scope(self, scope: _Scope) -> None:
        self._check_derived_scrub(scope)
        self._check_long_lived(scope)
        self._check_memalign(scope)

    def _check_derived_scrub(self, scope: _Scope) -> None:
        """derived-secret-scrub: a scope that clear-scrubs the primary
        secret but leaves derived fragments (CRT exponents, Montgomery
        residues) it also touches unscrubbed."""
        primary_scrubs: List[Tuple[ast.Call, List[str]]] = []
        for name, call in scope.calls:
            if name in CLEAR_SCRUB_CALLS and call.args:
                tokens = _identifier_tokens(call.args[0])
                if tokens & DERIVED_SECRET_TOKENS:
                    return  # the derived state is scrubbed
                if tokens & PRIMARY_SECRET_TOKENS:
                    primary_scrubs.append(
                        (call, sorted(tokens & PRIMARY_SECRET_TOKENS))
                    )
            elif name == "drop_mont" and _clears_mont(call):
                return
        if not primary_scrubs:
            return
        derived_seen: Set[str] = set()
        for ident in scope.idents:
            derived_seen.update(_name_tokens(ident) & DERIVED_SECRET_TOKENS)
        if not derived_seen:
            return
        fragments = ", ".join(sorted(derived_seen))
        for call, hits in primary_scrubs:
            self._flag(
                call,
                "derived-secret-scrub",
                f"{scope.name}() scrubs the primary secret "
                f"({', '.join(hits)}) but leaves derived key state "
                f"({fragments}) unscrubbed; CRT fragments and "
                f"Montgomery residues reconstruct the key, so the "
                f"half-scrub buys nothing (see keyrecon)",
            )

    def _check_long_lived(self, scope: _Scope) -> None:
        """long-lived-secret: the scope mints key material, then blocks
        (network wait, session driver) with the copies still live — no
        scrub or mitigation handoff in between.  Own-scope calls are
        replayed in source order as the execution-order approximation;
        calls that start at one place, as in ``f(a)(b)``, replay
        outermost first."""
        calls = sorted(
            scope.calls, key=lambda item: (item[1].lineno, item[1].col_offset)
        )
        mint: Optional[Tuple[str, int]] = None
        for name, call in calls:
            if name in HOLD_SCRUB_CALLS:
                mint = None
            elif name in KEY_MINT_CALLS:
                if mint is None:
                    mint = (name, call.lineno)
            elif name in BLOCKING_CALLS and mint is not None:
                mint_name, mint_line = mint
                self._flag(
                    call,
                    "long-lived-secret",
                    f"{scope.name}() mints key material via {mint_name}() "
                    f"(line {mint_line}) and then blocks in {name}() "
                    f"before any scrub; every blocked tick is exposure "
                    f"window — scrub or hand off to a mitigation first",
                )
                mint = None  # one finding per held copy

    def _check_memalign(self, scope: _Scope) -> None:
        """memalign-mlock: an aligned allocation with no mlock in the
        same scope."""
        if scope.name in MEMALIGN_DEFINERS:
            return  # the wrapper *is* the primitive
        memaligns = [
            call for name, call in scope.calls if name in MEMALIGN_DEFINERS
        ]
        if not memaligns or any(
            name in ("mlock", "mlock2") for name, _ in scope.calls
        ):
            return
        for call in memaligns:
            self._flag(
                call,
                "memalign-mlock",
                f"{scope.name}() allocates an aligned (secret-page) region "
                f"without mlock()ing it in the same function; a "
                f"swappable key page defeats RSA_memory_align",
            )

    # ------------------------------------------------------------------
    # imports: wall-clock alias bookkeeping
    # ------------------------------------------------------------------
    def _visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name in ("time", "datetime"):
                if alias.name == "time":
                    self._time_aliases.add(local)
                else:
                    self._datetime_aliases.add(local)

    def _visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_FUNCS:
                    self._clock_name_imports.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_aliases.add(alias.asname or alias.name)

    def _check_wall_clock(self, node: ast.Call, name: Optional[str]) -> None:
        if not self._wall_clock_scoped or name is None:
            return
        func = node.func
        hit: Optional[str] = None
        if isinstance(func, ast.Attribute):
            # The whole root identifier, not its underscore parts:
            # ``sim_time.sleep()`` is not ``time.sleep()``.
            root = _root_name(func.value)
            if name in WALL_CLOCK_TIME_FUNCS and root in self._time_aliases:
                hit = f"time.{name}()"
            elif (
                name in WALL_CLOCK_DATETIME_FUNCS
                and root in self._datetime_aliases
            ):
                hit = f"datetime.{name}()"
        elif isinstance(func, ast.Name) and name in self._clock_name_imports:
            hit = f"{name}()"
        if hit is not None:
            self._flag(
                node,
                "wall-clock-in-sim",
                f"{hit} reads the host wall clock inside the simulator; "
                f"simulated components must charge SimClock virtual "
                f"microseconds so seeded runs stay byte-identical",
            )

    # ------------------------------------------------------------------
    # calls: bn-free, snapshot-scope, mont-clear, secret-in-log
    # ------------------------------------------------------------------
    def _visit_call(self, node: ast.Call, name: Optional[str]) -> None:
        self._check_wall_clock(node, name)
        if name == "bn_free" and node.args:
            tokens = _identifier_tokens(node.args[0])
            hits = sorted(tokens & SECRET_TOKENS)
            if hits:
                self._flag(
                    node,
                    "bn-free",
                    f"bn_free() of secret-hinted BIGNUM "
                    f"({', '.join(hits)}): digit bytes survive in the "
                    f"freed chunk; use bn_clear_free()",
                )
        elif name in RAW_VIEW_CALLS and isinstance(node.func, ast.Attribute):
            if not self._snapshot_exempt:
                self._flag(
                    node,
                    "snapshot-scope",
                    f"{name}() reads raw physical memory; only attacks/ "
                    f"and sanitizer/ may hold the core-dump primitives",
                )
        elif name == "drop_mont":
            if not _clears_mont(node):
                self._flag(
                    node,
                    "mont-clear",
                    "drop_mont() without clear=True leaves Montgomery "
                    "residues (function of the private exponent) in the "
                    "freed cache pages; pass clear=True",
                )
        if name in LOG_SINKS:
            exposed: List[str] = []
            for arg in list(node.args) + [
                kw.value for kw in node.keywords if kw.value is not None
            ]:
                exposed.extend(_secret_exposures(arg))
            if exposed:
                self._flag(
                    node,
                    "secret-in-log",
                    f"{name}() logs key material "
                    f"({', '.join(sorted(set(exposed)))}); a log line is "
                    f"an unscrubbable copy of the key — log lengths or "
                    f"fingerprints, never the bytes",
                )

    # ------------------------------------------------------------------
    # assignments: raw-secret-bytes
    # ------------------------------------------------------------------
    def _check_retention(self, node: ast.stmt) -> None:
        """raw-secret-bytes, for an Assign, AnnAssign or AugAssign."""
        value = node.value
        if value is None or self._raw_bytes_exempt:
            return
        targets = node.targets if type(node) is ast.Assign else [node.target]
        attr_targets = [
            t for t in targets
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        ]
        if not attr_targets:
            return
        producers = sorted(
            {
                _call_name(sub)
                for sub in _subtree(value)
                if isinstance(sub, ast.Call) and _call_name(sub) in SECRET_PRODUCERS
            }
            - {None}
        )
        if producers:
            for target in attr_targets:
                self._flag(
                    target,
                    "raw-secret-bytes",
                    f"self.{target.attr} retains raw key bytes from "
                    f"{', '.join(p + '()' for p in producers)}; key material "
                    f"must live in simulated memory, not on Python objects",
                )

    # ------------------------------------------------------------------
    # exception handlers: swallowed-error
    # ------------------------------------------------------------------
    def _visit_except_handler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                node,
                "swallowed-error",
                "bare except: catches (and usually discards) every "
                "simulator fault; name the exceptions and handle them",
            )
        else:
            caught = sorted(_handler_exception_names(node) & REPRO_ERROR_NAMES)
            if caught and _is_silent_body(node.body):
                self._flag(
                    node,
                    "swallowed-error",
                    f"except {', '.join(caught)} with a do-nothing body "
                    f"silently swallows a simulator fault; record it "
                    f"(counter, log) or re-raise",
                )


def lint_source(
    source: str, rel_path: str, tree: Optional[ast.Module] = None
) -> List[LintViolation]:
    """Lint one file's source text; ``rel_path`` drives path exemptions
    and appears in the reports.  ``tree`` is ``source`` already parsed
    (``repro analyze`` passes the shared parse); it is not modified."""
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    linter = _FileLinter(rel_path)
    linter.run(tree)
    ignored = _ignored_rules(source)
    kept = [
        violation
        for violation in linter.violations
        if not (
            violation.line in ignored
            and ({violation.rule, "*"} & ignored[violation.line])
        )
    ]
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    return kept


def lint_file(
    path: Path, root: Optional[Path] = None, parsed: Optional[ParsedFile] = None
) -> List[LintViolation]:
    """Lint one ``.py`` file.  ``root`` anchors the relative path used
    for exemptions (defaults to the file's parent).  ``parsed`` is the
    file already read and parsed by ``ir.project.parse_files``; its
    source, tree and relative path are used as they are."""
    if parsed is not None:
        return lint_source(parsed.source, parsed.rel_path, tree=parsed.tree)
    path = Path(path)
    base = root if root is not None else path.parent
    try:
        rel = path.relative_to(base).as_posix()
    except ValueError:
        rel = path.as_posix()
    return lint_source(path.read_text(encoding="utf-8"), rel)


def lint_paths(paths: Iterable[Path]) -> List[LintViolation]:
    """Lint files and/or directory trees; directories are walked for
    ``*.py``.  Results are ordered by path then location."""
    violations: List[LintViolation] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file_path in sorted(entry.rglob("*.py")):
                violations.extend(lint_file(file_path, root=entry))
        elif entry.is_file():
            violations.extend(lint_file(entry, root=entry.parent))
        else:
            raise FileNotFoundError(f"keylint: no such file or directory: {entry}")
    return violations


def render_report(violations: List[LintViolation]) -> str:
    """Human-readable summary, one line per violation."""
    if not violations:
        return "keylint: no violations"
    lines = [violation.render() for violation in violations]
    by_rule: Dict[str, int] = {}
    for violation in violations:
        by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
    summary = ", ".join(f"{rule}={count}" for rule, count in sorted(by_rule.items()))
    lines.append(f"keylint: {len(violations)} violations ({summary})")
    return "\n".join(lines)


#: One-line rule descriptions for the SARIF rule table.
RULE_DESCRIPTIONS: Dict[str, str] = {
    "bn-free": (
        "bn_free() of a secret-hinted BIGNUM leaves digit bytes in the "
        "freed chunk; use bn_clear_free()."
    ),
    "raw-secret-bytes": (
        "Raw key bytes retained on a Python object instead of simulated "
        "memory."
    ),
    "snapshot-scope": (
        "Raw physical-memory view used outside attacks/ and sanitizer/."
    ),
    "memalign-mlock": (
        "Aligned secret-page allocation without an mlock() in the same "
        "function; the page stays swappable."
    ),
    "swallowed-error": (
        "Simulator fault caught and silently discarded."
    ),
    "mont-clear": (
        "drop_mont() without clear=True leaves Montgomery residues of "
        "the private exponent in freed cache pages."
    ),
    "secret-in-log": (
        "print()/logging call embeds raw key bytes (secret-producer "
        "call or CRT-part attribute); log lines are unscrubbable "
        "copies."
    ),
    "wall-clock-in-sim": (
        "Host wall-clock read (time.time/sleep/monotonic, "
        "datetime.now) inside the simulator; use SimClock virtual "
        "time."
    ),
    "derived-secret-scrub": (
        "Primary secret clear-scrubbed while derived key state (CRT "
        "exponents, iqmp, Montgomery residues) in the same scope is "
        "not; derived fragments reconstruct the key."
    ),
    "long-lived-secret": (
        "Key material minted and then held across a blocking primitive "
        "(transfer, request loop, accept) with no scrub in between; "
        "the whole block is exposure window."
    ),
}


def render_sarif(violations: List[LintViolation]) -> Dict[str, object]:
    """SARIF 2.1.0 log via the shared exporter (same shape as keyflow)."""
    from repro.analysis.sarif import sarif_log, sarif_result

    return sarif_log(
        tool_name="keylint",
        rules=RULE_DESCRIPTIONS,
        results=[
            sarif_result(
                rule_id=violation.rule,
                message=violation.message,
                path=violation.path,
                line=violation.line,
            )
            for violation in violations
        ],
    )
