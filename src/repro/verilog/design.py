"""Compile-once design database: the shared Verilog front end.

Every engine in this repository — the scalar
:class:`~repro.verilog.simulator.simulator.ModuleSimulator`, the batched
:class:`~repro.verilog.simulator.batch.BatchSimulator`, the symbolic front end
in :mod:`repro.formal.cone`, Verilog-backed golden models and the benchmark
evaluator — consumes the same pipeline: lex → parse → select module →
elaborate (resolve parameters, widths, processes).  Before this module each of
them re-ran that pipeline per call, so a pass@k sweep paid the front-end cost
``N × k`` times per task.

:class:`DesignDatabase` runs the front end **once** per
``(source_hash, module_name, parameter_overrides)`` key and hands out a
:class:`CompiledDesign` artifact:

* the parsed module AST (treated as immutable by every consumer);
* the elaborated *template* design — resolved parameters, port map, initial
  signal values, process list;
* derived analyses computed once: sequential/latch-risk classification and
  undef-source taint; analyses only some consumers need (the formal
  transition relation and the post-reset state) are built on first request
  by :meth:`CompiledDesign.derived` and never written to disk;
* :meth:`CompiledDesign.elaborate` clones the template's signal store in O(#
  signals) dict copies, so each simulator instance gets private mutable state
  without re-running constant evaluation.

Caching tiers:

* an in-memory LRU (``max_entries``; ``0`` disables caching entirely, which is
  how the differential tests obtain a guaranteed-cold path);
* an optional on-disk content-addressed tier (``cache_dir``): compiled designs
  are pickled under their key digest, so a fresh process skips lexing,
  parsing *and* elaboration for sources it has seen before.  The directory is
  a trusted local cache — entries are unpickled without verification;
* a negative cache: parse and elaboration errors are remembered per key and
  re-raised as equivalent exceptions, so repeatedly scoring the same broken
  candidate costs one dict lookup.

The parse tier (source hash → :class:`~repro.verilog.ast_nodes.SourceFile`)
is shared with :class:`~repro.verilog.syntax_checker.SyntaxChecker`, which
also memoises full compile-check results here, and with every other parse in
the package: :meth:`DesignDatabase.parse_module` is the tier-backed form of
:func:`~repro.verilog.parser.parse_module` that the analyzer, the dataset
generators and the corruption injector call, so each unique source is lexed
and parsed once per process (while it stays in the LRU).

A process-wide default instance is available via :func:`get_default_database`;
``ModuleSimulator.from_source`` and friends route through it, so existing
call sites get compile-once behaviour without signature changes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable

from . import ast_nodes as ast
from . import errors as _errors
from .errors import VerilogError
from .parser import parse_source, select_module
from .codegen import CodegenArtifact
from .codegen import generate as _generate_codegen
from .simulator.scheduler import ProcessKind, SignalStore
from .simulator.simulator import ElaboratedModule, PortInfo, elaborate_module

#: Bump when the pickled on-disk layout changes; stale entries are recompiled.
#: The version is embedded in the on-disk *file name* (see ``_disk_path``), so
#: a layout change — like v2's codegen artifact, v3's fused sequence program,
#: v4's artifact without the per-edge sequential function or v5's design
#: without inferred clock/reset fields — invalidates old entries by key
#: rather than surfacing as unpickle errors or silently missing fields.
DISK_FORMAT_VERSION = 5


def source_hash(source: str) -> str:
    """Content hash of a Verilog source text (the cache's address space)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DesignKey:
    """Cache key of one compiled design: content hash + selection + overrides."""

    source_hash: str
    module_name: str | None
    parameter_overrides: tuple[tuple[str, int], ...] = ()

    def digest(self) -> str:
        """Stable hex digest naming this key in the on-disk tier."""
        text = f"{self.source_hash}|{self.module_name!r}|{self.parameter_overrides!r}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CompiledDesign:
    """One fully front-ended design: AST, elaborated template, analyses.

    The ``template`` holds the elaborated signal store *before* any initial
    block ran; simulators must never execute against it directly — call
    :meth:`elaborate` for a private copy.  The AST and the template's process
    list are shared by every simulator built from this artifact and are
    treated as immutable throughout the codebase.
    """

    key: DesignKey
    module: ast.Module
    parameter_overrides: dict[str, int]
    template: ElaboratedModule
    has_sequential_processes: bool
    has_latch_risk: bool
    undef_sources: frozenset[str]
    #: Straight-line lowering of the design (source text + signal lists), or
    #: a rejection reason.  Generated eagerly so the disk tier carries it;
    #: the compiled functions themselves are cached process-wide by source.
    codegen: CodegenArtifact | None = None

    # ------------------------------------------------------------------ views
    @property
    def name(self) -> str:
        return self.template.name

    @property
    def codegen_label(self) -> str:
        """Stable human-readable label for codegen coverage reporting."""
        return f"{self.template.name}:{self.key.digest()[:12]}"

    @property
    def ports(self) -> list[PortInfo]:
        return self.template.ports

    @property
    def parameters(self) -> dict[str, int]:
        return self.template.parameters

    def input_ports(self) -> list[PortInfo]:
        return self.template.input_ports()

    def output_ports(self) -> list[PortInfo]:
        return self.template.output_ports()

    def input_widths(self) -> dict[str, int]:
        """Input port name → width (stimulus-generation convenience)."""
        return {port.name: port.width for port in self.template.input_ports()}

    # ------------------------------------------------------------------ instantiation
    def elaborate(self) -> ElaboratedModule:
        """A fresh :class:`ElaboratedModule` sharing the immutable pieces.

        The signal store is cloned (values are immutable
        :class:`~repro.verilog.simulator.values.LogicVector` instances, so two
        dict copies suffice); ports, parameters, processes and functions are
        shared read-only.
        """
        template = self.template
        store = SignalStore(
            widths=dict(template.store.widths), values=dict(template.store.values)
        )
        return ElaboratedModule(
            name=template.name,
            ports=template.ports,
            parameters=template.parameters,
            store=store,
            processes=template.processes,
            functions=template.functions,
        )

    # ------------------------------------------------------------------ derived on demand
    def derived(self, key: Hashable, build: Callable[[], object]) -> object:
        """``build()``, memoised on this artifact under ``key``.

        For analyses only some consumers need, such as the formal subsystem's
        transition relation and concrete reset state: built on first request,
        shared for as long as the artifact stays in the database's LRU, and
        never pickled (so never written to the disk tier).
        """
        memo = self.__dict__.setdefault("_derived", {})
        if key not in memo:
            # Racing first requests may each build; all get the first stored.
            memo.setdefault(key, build())
        return memo[key]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_derived", None)
        return state


@dataclass
class CacheStats:
    """Counters exposed for tests, tuning and the perf harness."""

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    parse_hits: int = 0
    check_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "negative_hits": self.negative_hits,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "parse_hits": self.parse_hits,
            "check_hits": self.check_hits,
        }


#: Remembered failure: (exception class name, message, line, column).
_FailureRecord = tuple[str, str, int | None, int | None]


def _record_failure(exc: VerilogError) -> _FailureRecord:
    return (type(exc).__name__, exc.message, exc.line, exc.column)


def _raise_recorded(record: _FailureRecord) -> None:
    name, message, line, column = record
    exc_type = getattr(_errors, name, None)
    if not (isinstance(exc_type, type) and issubclass(exc_type, VerilogError)):
        exc_type = VerilogError
    raise exc_type(message, line, column)


class DesignDatabase:
    """Content-addressed cache over the shared Verilog front end.

    :meth:`compile` serves elaborated designs; :meth:`parse` and
    :meth:`parse_module` serve parsed ASTs for callers that only need the
    syntax tree.  Every AST it returns is shared by all callers of the same
    source and is read-only: mutate a copy, never the returned object.

    Args:
        max_entries: LRU capacity of each in-memory tier; ``0`` disables
            caching (every call recompiles — the guaranteed-cold path used by
            differential tests and the ``compile_cache`` benchmark).
        cache_dir: optional directory for the on-disk content-addressed tier.
    """

    def __init__(self, max_entries: int = 256, cache_dir: str | Path | None = None):
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._designs: OrderedDict[DesignKey, CompiledDesign] = OrderedDict()
        self._design_failures: OrderedDict[DesignKey, _FailureRecord] = OrderedDict()
        self._parses: OrderedDict[str, ast.SourceFile] = OrderedDict()
        self._parse_failures: OrderedDict[str, _FailureRecord] = OrderedDict()
        self._checks: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ public API
    def compile(
        self,
        source: str,
        module_name: str | None = None,
        parameter_overrides: dict[str, int] | None = None,
    ) -> CompiledDesign:
        """Front-end ``source`` once and return the cached artifact.

        Raises the same :class:`~repro.verilog.errors.VerilogError` subclasses
        as ``parse_module`` + ``elaborate_module`` would; failures are
        negative-cached so repeated compiles of a broken source are one dict
        lookup.
        """
        overrides = dict(parameter_overrides or {})
        key = DesignKey(
            source_hash=source_hash(source),
            module_name=module_name,
            parameter_overrides=tuple(sorted(overrides.items())),
        )
        with self._lock:
            cached = self._designs.get(key)
            if cached is not None:
                self._designs.move_to_end(key)
                self.stats.hits += 1
                return cached
            failure = self._design_failures.get(key)
            if failure is not None:
                self._design_failures.move_to_end(key)
                self.stats.negative_hits += 1
                _raise_recorded(failure)
            from_disk = self._load_from_disk(key)
            if from_disk is not None:
                self.stats.disk_hits += 1
                self._insert(self._designs, key, from_disk)
                return from_disk
            self.stats.misses += 1
            try:
                compiled = self._build(key, source, module_name, overrides)
            except VerilogError as exc:
                self._insert(self._design_failures, key, _record_failure(exc))
                raise
            self._insert(self._designs, key, compiled)
            self._store_to_disk(key, compiled)
            return compiled

    def parse(self, source: str) -> ast.SourceFile:
        """Parse ``source`` through the shared parse tier (negative-cached).

        The returned :class:`~repro.verilog.ast_nodes.SourceFile` is shared —
        callers must not mutate it.
        """
        digest = source_hash(source)
        with self._lock:
            cached = self._parses.get(digest)
            if cached is not None:
                self._parses.move_to_end(digest)
                self.stats.parse_hits += 1
                return cached
            failure = self._parse_failures.get(digest)
            if failure is not None:
                self._parse_failures.move_to_end(digest)
                self.stats.negative_hits += 1
                _raise_recorded(failure)
            try:
                parsed = parse_source(source)
            except VerilogError as exc:
                self._insert(self._parse_failures, digest, _record_failure(exc))
                raise
            self._insert(self._parses, digest, parsed)
            return parsed

    def parse_module(self, source: str, name: str | None = None) -> ast.Module:
        """:func:`~repro.verilog.parser.parse_module` through the parse tier.

        Selects the named (or first) module of :meth:`parse`'s shared AST and
        raises the same errors as ``parser.parse_module``.  The module is
        shared with every other caller of this source — read it, never mutate it.
        """
        return select_module(self.parse(source), name)

    # The syntax checker memoises whole CompileResults here so the *semantic*
    # pass is also run once per distinct source.
    def cached_check(self, source: str) -> object | None:
        key = source_hash(source)
        with self._lock:
            result = self._checks.get(key)
            if result is not None:
                self._checks.move_to_end(key)
                self.stats.check_hits += 1
            return result

    def store_check(self, source: str, result: object) -> None:
        with self._lock:
            self._insert(self._checks, source_hash(source), result)

    def clear(self) -> None:
        """Drop every in-memory tier (the disk tier is left untouched)."""
        with self._lock:
            self._designs.clear()
            self._design_failures.clear()
            self._parses.clear()
            self._parse_failures.clear()
            self._checks.clear()

    def __len__(self) -> int:
        return len(self._designs)

    # ------------------------------------------------------------------ build
    def _build(
        self,
        key: DesignKey,
        source: str,
        module_name: str | None,
        overrides: dict[str, int],
    ) -> CompiledDesign:
        design_file = self.parse(source)
        module = select_module(design_file, module_name)
        return _compile_from_module(key, module, overrides)

    # ------------------------------------------------------------------ LRU plumbing
    def _insert(self, tier: OrderedDict, key, value) -> None:
        if self.max_entries <= 0:
            return
        tier[key] = value
        tier.move_to_end(key)
        while len(tier) > self.max_entries:
            tier.popitem(last=False)
            if tier is self._designs:
                self.stats.evictions += 1

    # ------------------------------------------------------------------ disk tier
    def _disk_path(self, key: DesignKey) -> Path | None:
        if self.cache_dir is None:
            return None
        # The schema version is part of the content address: bumping
        # DISK_FORMAT_VERSION makes every stale entry a clean cache miss.
        return self.cache_dir / f"{key.digest()}-v{DISK_FORMAT_VERSION}.pkl"

    def _load_from_disk(self, key: DesignKey) -> CompiledDesign | None:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except Exception:  # corrupt / stale entry: recompile
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != DISK_FORMAT_VERSION
            or not isinstance(payload.get("design"), CompiledDesign)
        ):
            return None
        design = payload["design"]
        return design if design.key == key else None

    def _store_to_disk(self, key: DesignKey, compiled: CompiledDesign) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        temp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            with temp.open("wb") as handle:
                pickle.dump({"version": DISK_FORMAT_VERSION, "design": compiled}, handle)
            temp.replace(path)
            self.stats.disk_writes += 1
        except Exception:  # best-effort tier: unpicklable / read-only dir
            temp.unlink(missing_ok=True)


# --------------------------------------------------------------------------- building
def _compile_from_module(
    key: DesignKey, module: ast.Module, overrides: dict[str, int]
) -> CompiledDesign:
    """Elaborate + analyse one parsed module into a :class:`CompiledDesign`."""
    template = elaborate_module(module, overrides)
    has_sequential = any(
        process.kind is ProcessKind.SEQUENTIAL for process in template.processes
    )
    latch_risk = _latch_risk(template)
    undef = _undef_sources(template)
    codegen = _generate_codegen(
        template, has_latch_risk=latch_risk, undef_sources=tuple(sorted(undef))
    )
    return CompiledDesign(
        key=key,
        module=module,
        parameter_overrides=overrides,
        template=template,
        has_sequential_processes=has_sequential,
        has_latch_risk=latch_risk,
        undef_sources=undef,
        codegen=codegen,
    )


def compile_module_ast(
    module: ast.Module, parameter_overrides: dict[str, int] | None = None
) -> CompiledDesign:
    """Build an *uncached* :class:`CompiledDesign` from an already-parsed module.

    Used when no source text is available to content-address; the synthetic key
    is a label only and never enters a cache tier.
    """
    overrides = dict(parameter_overrides or {})
    key = DesignKey(
        source_hash=f"ast:{id(module):x}",
        module_name=module.name,
        parameter_overrides=tuple(sorted(overrides.items())),
    )
    return _compile_from_module(key, module, overrides)


def coerce_compiled(
    design_like,
    module_name: str | None = None,
    parameter_overrides: dict[str, int] | None = None,
    database: "DesignDatabase | None" = None,
) -> CompiledDesign:
    """Coerce source text / parsed module / compiled design to a :class:`CompiledDesign`.

    Source text goes through the (default) database; a parsed
    :class:`~repro.verilog.ast_nodes.Module` is compiled uncached; an existing
    :class:`CompiledDesign` passes through unless ``parameter_overrides``
    diverge from the ones it was compiled with (then its AST is re-elaborated).
    """
    if isinstance(design_like, CompiledDesign):
        overrides = dict(parameter_overrides or {})
        if not overrides or overrides == design_like.parameter_overrides:
            return design_like
        return compile_module_ast(design_like.module, overrides)
    if isinstance(design_like, str):
        db = database if database is not None else get_default_database()
        return db.compile(design_like, module_name, parameter_overrides)
    return compile_module_ast(design_like, parameter_overrides)


# --------------------------------------------------------------------------- analyses
def _latch_risk(template: ElaboratedModule) -> bool:
    """Whether any level-sensitive always block may hold state (inferred latch).

    A level-sensitive ``always`` that conditionally skips assigning one of
    its targets keeps the previous value — history a cycle-serial run
    carries across vectors but independent batch lanes do not have.
    """
    for process in template.processes:
        if process.kind is not ProcessKind.COMBINATIONAL or process.label != "always":
            continue
        maybe, definite = _assignment_sets(process.body)
        if maybe - definite:
            return True
    return False


def _undef_sources(template: ElaboratedModule) -> frozenset[str]:
    """Signals that no process ever assigns and no input or initial value drives.

    These stay ``x`` forever, so any output in their cone is undef-tainted —
    the same signals the formal front end turns into tagged undef inputs.
    """
    assigned: set[str] = set()
    for process in template.processes:
        maybe, _ = _assignment_sets(process.body)
        assigned |= maybe
    inputs = {port.name for port in template.input_ports()}
    undef: set[str] = set()
    for name, value in template.store.values.items():
        if name in inputs or name in assigned:
            continue
        if value.xz_mask:
            undef.add(name)
    return frozenset(undef)


def _assignment_sets(statement: ast.Statement | None) -> tuple[set[str], set[str]]:
    """``(maybe-assigned, definitely-assigned)`` signal names for a statement.

    Conservative latch analysis: partial writes (bit/part selects) and loop
    bodies never count as *definite*; an ``if`` without ``else`` or a ``case``
    without ``default`` makes nothing definite.
    """
    if statement is None or isinstance(statement, ast.NullStatement):
        return set(), set()
    if isinstance(statement, ast.Block):
        maybe: set[str] = set()
        definite: set[str] = set()
        for inner in statement.statements:
            inner_maybe, inner_definite = _assignment_sets(inner)
            maybe |= inner_maybe
            definite |= inner_definite
        return maybe, definite
    if isinstance(statement, (ast.BlockingAssign, ast.NonBlockingAssign)):
        target = statement.target
        if isinstance(target, ast.Identifier):
            return {target.name}, {target.name}
        if isinstance(target, ast.Concat):
            maybe = set()
            definite = set()
            for part in target.parts:
                part_maybe, part_definite = _assignment_sets(
                    ast.BlockingAssign(target=part, value=statement.value)
                )
                maybe |= part_maybe
                definite |= part_definite
            return maybe, definite
        if isinstance(target, (ast.BitSelect, ast.PartSelect)):
            base = target.target
            while isinstance(base, (ast.BitSelect, ast.PartSelect)):
                base = base.target
            name = base.name if isinstance(base, ast.Identifier) else None
            return ({name} if name else set()), set()
        return set(), set()
    if isinstance(statement, ast.IfStatement):
        then_maybe, then_definite = _assignment_sets(statement.then_branch)
        else_maybe, else_definite = _assignment_sets(statement.else_branch)
        definite = then_definite & else_definite if statement.else_branch is not None else set()
        return then_maybe | else_maybe, definite
    if isinstance(statement, ast.CaseStatement):
        maybe = set()
        definite: set[str] | None = None
        has_default = False
        for item in statement.items:
            item_maybe, item_definite = _assignment_sets(item.body)
            maybe |= item_maybe
            definite = item_definite if definite is None else definite & item_definite
            has_default |= item.is_default
        if definite is None or not has_default:
            definite = set()
        return maybe, definite
    if isinstance(statement, (ast.ForLoop, ast.WhileLoop, ast.RepeatLoop)):
        body_maybe, _ = _assignment_sets(statement.body)
        extra: set[str] = set()
        if isinstance(statement, ast.ForLoop):
            init_maybe, _ = _assignment_sets(statement.init)
            step_maybe, _ = _assignment_sets(statement.step)
            extra = init_maybe | step_maybe
        return body_maybe | extra, set()
    if isinstance(statement, (ast.DelayStatement, ast.EventWait)):
        return _assignment_sets(statement.body)
    return set(), set()


# --------------------------------------------------------------------------- default database
_default_database: DesignDatabase | None = None
_default_lock = threading.Lock()


def get_default_database() -> DesignDatabase:
    """The process-wide database every ``from_source`` entry point rides on.

    Created lazily; set ``REPRO_DESIGN_CACHE`` in the environment to also
    enable the on-disk tier for the default instance.
    """
    global _default_database
    with _default_lock:
        if _default_database is None:
            cache_dir = os.environ.get("REPRO_DESIGN_CACHE") or None
            _default_database = DesignDatabase(cache_dir=cache_dir)
        return _default_database


def set_default_database(database: DesignDatabase | None) -> DesignDatabase | None:
    """Swap the process-wide database (``None`` → recreate lazily); returns the old one."""
    global _default_database
    with _default_lock:
        previous = _default_database
        _default_database = database
        return previous


def compile_design(
    source: str,
    module_name: str | None = None,
    parameter_overrides: dict[str, int] | None = None,
) -> CompiledDesign:
    """Compile through the default database (module-level convenience)."""
    return get_default_database().compile(source, module_name, parameter_overrides)
