"""The program's layers as the benchmark sees them, and their metrics.

:func:`install_layers` wraps the public entry point of each layer with a
:class:`~e2e_trace.SpanRecorder` span; span layer names follow the program's
modules.  :func:`layer_metrics` turns one repetition's per-layer
``(calls, self seconds)`` rows, counters, samples and journal facts into the
``per_layer`` metrics ``BENCHMARK.json`` lists (:data:`LAYER_METRICS`).
WORKLOADS.md says which end-to-end metric each should move, on which workload.
"""

from __future__ import annotations

import inspect
import math
import statistics
from typing import Mapping, Sequence

from e2e_trace import SpanRecorder

#: Span layers, in the order the traced breakdown prints them.
LAYERS = (
    "runs.resolve",
    "core.pipeline",
    "verilog.syntax_checker",
    "verilog.lexer",
    "verilog.parser",
    "verilog.design",
    "verilog.simulator.simulator",
    "verilog.simulator.batch",
    "bench.golden",
    "formal",
    "bench.jobs",
    "bench.jobs.backoff",
    "runs.engine",
    "runs.store",
    "runs.aggregate",
    "service.broker.lease",
    "service.broker.complete",
)

#: Every per-layer metric: name → (unit, which direction is better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "runs.resolve.self_s": ("s", "lower"),
    "core.pipeline.calls": ("count", "lower"),
    "core.pipeline.self_s": ("s", "lower"),
    "verilog.syntax_checker.calls": ("count", "lower"),
    "verilog.syntax_checker.self_s": ("s", "lower"),
    "verilog.lexer.calls": ("count", "lower"),
    "verilog.lexer.self_s": ("s", "lower"),
    "verilog.lexer.tokens_per_s": ("1/s", "higher"),
    "verilog.parser.calls": ("count", "lower"),
    "verilog.parser.self_s": ("s", "lower"),
    "verilog.parser.unique_ratio": ("ratio", "higher"),
    "verilog.design.calls": ("count", "lower"),
    "verilog.design.self_s": ("s", "lower"),
    "verilog.design.hit_ratio": ("ratio", "higher"),
    "verilog.simulator.simulator.calls": ("count", "lower"),
    "verilog.simulator.simulator.self_s": ("s", "lower"),
    "verilog.simulator.batch.calls": ("count", "lower"),
    "verilog.simulator.batch.self_s": ("s", "lower"),
    "verilog.simulator.batch.codegen_ratio": ("ratio", "higher"),
    "bench.golden.self_s": ("s", "lower"),
    "formal.proofs": ("count", "lower"),
    "formal.self_s": ("s", "lower"),
    "formal.conflicts": ("count", "lower"),
    "bench.jobs.checks": ("count", "lower"),
    "bench.jobs.dedup_ratio": ("ratio", "lower"),
    "bench.jobs.attempts": ("count", "lower"),
    "bench.jobs.backoff_wait_s": ("s", "lower"),
    "bench.jobs.check_p50_ms": ("ms", "lower"),
    "bench.jobs.check_p99_ms": ("ms", "lower"),
    "bench.jobs.self_s": ("s", "lower"),
    "runs.engine.self_s": ("s", "lower"),
    "runs.store.calls": ("count", "lower"),
    "runs.store.self_s": ("s", "lower"),
    "runs.aggregate.self_s": ("s", "lower"),
    "service.broker.lease.calls": ("count", "lower"),
    "service.broker.lease.self_s": ("s", "lower"),
    "service.broker.complete.calls": ("count", "lower"),
    "service.broker.complete.self_s": ("s", "lower"),
    "service.broker.heartbeat.calls": ("count", "lower"),
    "service.broker.requeues": ("count", "lower"),
    "service.api.poll_p50_ms": ("ms", "lower"),
    "service.api.poll_p99_ms": ("ms", "lower"),
    "service.api.metrics_scrape_ms": ("ms", "lower"),
    "service.api.http_errors": ("count", "lower"),
    "report_s": ("s", "lower"),
    "unit_fail_ratio": ("ratio", "lower"),
    "verdict_disagreements": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class _TimeWithTracedSleep:
    """Stands in for ``time`` inside ``repro.bench.jobs``: only ``sleep`` is traced."""

    def __init__(self, module, sleep):
        self._module = module
        self.sleep = sleep

    def __getattr__(self, name):
        return getattr(self._module, name)


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry point; ``recorder.restore()`` undoes it."""
    import repro.bench.golden as golden
    import repro.bench.jobs as jobs
    import repro.core.pipeline as pipeline
    import repro.runs.aggregate as aggregate
    import repro.runs.engine as engine
    import repro.runs.resolve as resolve
    import repro.runs.store as store
    import repro.service.broker as broker
    import repro.symbolic.state_diagram as state_diagram
    import repro.verilog.design as design
    import repro.verilog.lexer as lexer
    import repro.verilog.parser as parser
    import repro.verilog.syntax_checker as syntax_checker
    from repro.verilog.simulator import batch, simulator, testbench

    trace = recorder.trace_attr
    counters = recorder.counters
    for attr in ("datasets", "suite", "pipeline"):
        trace(resolve.ManifestResolver, attr, "runs.resolve")
    trace(pipeline.HaVenPipeline, "generate", "core.pipeline")
    trace(syntax_checker.SyntaxChecker, "check", "verilog.syntax_checker")

    # Parser.parse sees only tokens, so the lexer notes which source the
    # token list it just returned came from.
    lexed: dict[int, int] = {}
    parsed: set[int] = set()

    def after_tokenize(tokens, args) -> None:
        counters["verilog.lexer.tokens"] += len(tokens)
        lexed.clear()
        lexed[id(tokens)] = hash(args[0].source)

    def before_parse(args) -> None:
        tokens = args[0].tokens
        source = lexed.get(id(tokens))
        if source is None:
            source = hash(tuple(token.text for token in tokens))
        parsed.add(source)
        counters["verilog.parser.unique"] = len(parsed)

    trace(lexer.Lexer, "tokenize", "verilog.lexer", after=after_tokenize)
    trace(parser.Parser, "parse", "verilog.parser", before=before_parse)
    trace(design.DesignDatabase, "compile", "verilog.design")
    for attr in ("__init__", "apply_inputs"):
        trace(simulator.ModuleSimulator, attr, "verilog.simulator.simulator")
        trace(batch.BatchSimulator, attr, "verilog.simulator.batch")
    for module in (golden, testbench, state_diagram):
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or getattr(cls, "_is_protocol", False):
                continue
            for attr in ("eval", "step"):
                if attr in vars(cls):
                    trace(cls, attr, "bench.golden")
    trace(golden.GoldenCache, "get_by_factory", "bench.golden")
    recorder.trace_function(golden, "formal_equivalence_check", "formal")

    def after_checks(report, _args) -> None:
        executions = list(report.executions.values())
        counters["bench.jobs.checks"] += len(executions)
        counters["bench.jobs.attempts"] += sum(e.attempts for e in executions)
        recorder.samples["bench.jobs.check_s"].extend(
            e.duration_s for e in executions if not e.quarantined and e.attempt_durations
        )

    recorder.trace_function(jobs, "run_checks", "bench.jobs", after=after_checks)
    # Retry backoff is the only sleep in run_checks.
    recorder.patch(
        jobs,
        "time",
        _TimeWithTracedSleep(jobs.time, recorder.wrap("bench.jobs.backoff", jobs.time.sleep)),
    )
    trace(engine.RunEngine, "execute_units", "runs.engine")
    trace(store.RunStore, "record", "runs.store")
    for attr in ("feed_store", "report"):
        trace(aggregate.StreamingAggregator, attr, "runs.aggregate")
    trace(broker.FileBroker, "lease", "service.broker.lease")
    for attr in ("complete", "complete_quarantine"):
        trace(broker.FileBroker, attr, "service.broker.complete")
    # Heartbeats run on the worker's heartbeat thread, beside the main
    # thread's spans: counted, not timed.
    recorder.patch(
        broker.FileBroker,
        "heartbeat",
        recorder.counting("service.broker.heartbeat.calls", broker.FileBroker.heartbeat),
    )


def record_process_stats(recorder: SpanRecorder) -> None:
    """Copy this process's design-cache and codegen registries into counters."""
    from repro.verilog import codegen
    from repro.verilog.design import get_default_database

    recorder.counters["verilog.design.misses"] += get_default_database().stats.misses
    recorder.counters["codegen.fallbacks"] += codegen.fallback_stats()["total"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when there are none)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def merge_rows(*row_sets: Mapping[str, Sequence[float]]) -> dict[str, tuple[int, float]]:
    """Sum per-layer (calls, self seconds) rows of several processes."""
    merged: dict[str, tuple[int, float]] = {}
    for rows in row_sets:
        for layer, (calls, seconds) in rows.items():
            old_calls, old_seconds = merged.get(layer, (0, 0.0))
            merged[layer] = (old_calls + int(calls), old_seconds + float(seconds))
    return merged


def layer_metrics(
    rows: Mapping[str, Sequence[float]],
    counters: Mapping[str, float],
    samples: Mapping[str, Sequence[float]],
    facts: Mapping[str, float],
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry but ``trace.overhead_ratio``.

    ``rows`` maps span layer → (calls, self seconds).  ``facts`` holds what
    the repetition read from the journal and its HTTP client:
    ``compiled_units``, ``conflicts``, ``requeues``, ``http_errors``,
    ``report_s``, ``unit_fail_ratio`` and ``verdict_disagreements``.
    """

    def calls(layer: str) -> float:
        return float(rows.get(layer, (0, 0.0))[0])

    def busy(layer: str) -> float:
        return float(rows.get(layer, (0, 0.0))[1])

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def counter(name: str) -> float:
        return float(counters.get(name, 0.0))

    check_ms = [1000.0 * seconds for seconds in samples.get("bench.jobs.check_s", [])]
    poll_ms = list(samples.get("service.api.poll_ms", []))
    scrape_ms = list(samples.get("service.api.scrape_ms", []))
    design_calls = calls("verilog.design")
    batch_calls = calls("verilog.simulator.batch")
    return {
        "runs.resolve.self_s": busy("runs.resolve"),
        "core.pipeline.calls": calls("core.pipeline"),
        "core.pipeline.self_s": busy("core.pipeline"),
        "verilog.syntax_checker.calls": calls("verilog.syntax_checker"),
        "verilog.syntax_checker.self_s": busy("verilog.syntax_checker"),
        "verilog.lexer.calls": calls("verilog.lexer"),
        "verilog.lexer.self_s": busy("verilog.lexer"),
        "verilog.lexer.tokens_per_s": ratio(counter("verilog.lexer.tokens"), busy("verilog.lexer")),
        "verilog.parser.calls": calls("verilog.parser"),
        "verilog.parser.self_s": busy("verilog.parser"),
        "verilog.parser.unique_ratio": ratio(
            counter("verilog.parser.unique"), calls("verilog.parser")
        ),
        "verilog.design.calls": design_calls,
        "verilog.design.self_s": busy("verilog.design"),
        # Every compile that is not a miss is served from a cache tier.
        "verilog.design.hit_ratio": (
            1.0 - ratio(counter("verilog.design.misses"), design_calls) if design_calls else 0.0
        ),
        "verilog.simulator.simulator.calls": calls("verilog.simulator.simulator"),
        "verilog.simulator.simulator.self_s": busy("verilog.simulator.simulator"),
        "verilog.simulator.batch.calls": batch_calls,
        "verilog.simulator.batch.self_s": busy("verilog.simulator.batch"),
        # Each construction and each apply_inputs settles once; a fallback
        # is a settle (or a whole design) the generated code did not run.
        "verilog.simulator.batch.codegen_ratio": (
            max(0.0, 1.0 - ratio(counter("codegen.fallbacks"), batch_calls))
            if batch_calls
            else 0.0
        ),
        "bench.golden.self_s": busy("bench.golden"),
        "formal.proofs": calls("formal"),
        "formal.self_s": busy("formal"),
        "formal.conflicts": float(facts.get("conflicts", 0)),
        "bench.jobs.checks": counter("bench.jobs.checks"),
        "bench.jobs.dedup_ratio": ratio(
            counter("bench.jobs.checks"), float(facts.get("compiled_units", 0))
        ),
        "bench.jobs.attempts": counter("bench.jobs.attempts"),
        "bench.jobs.backoff_wait_s": busy("bench.jobs.backoff"),
        "bench.jobs.check_p50_ms": percentile(check_ms, 0.5),
        "bench.jobs.check_p99_ms": percentile(check_ms, 0.99),
        "bench.jobs.self_s": busy("bench.jobs"),
        "runs.engine.self_s": busy("runs.engine"),
        "runs.store.calls": calls("runs.store"),
        "runs.store.self_s": busy("runs.store"),
        "runs.aggregate.self_s": busy("runs.aggregate"),
        "service.broker.lease.calls": calls("service.broker.lease"),
        "service.broker.lease.self_s": busy("service.broker.lease"),
        "service.broker.complete.calls": calls("service.broker.complete"),
        "service.broker.complete.self_s": busy("service.broker.complete"),
        "service.broker.heartbeat.calls": counter("service.broker.heartbeat.calls"),
        "service.broker.requeues": float(facts.get("requeues", 0)),
        "service.api.poll_p50_ms": percentile(poll_ms, 0.5),
        "service.api.poll_p99_ms": percentile(poll_ms, 0.99),
        "service.api.metrics_scrape_ms": statistics.median(scrape_ms) if scrape_ms else 0.0,
        "service.api.http_errors": float(facts.get("http_errors", 0)),
        "report_s": float(facts.get("report_s", 0.0)),
        "unit_fail_ratio": float(facts.get("unit_fail_ratio", 0.0)),
        "verdict_disagreements": float(facts.get("verdict_disagreements", 0)),
    }
