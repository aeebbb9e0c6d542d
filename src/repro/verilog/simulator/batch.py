"""Batched combinational simulation on generated code: N stimulus lanes per pass.

:class:`BatchSimulator` runs one elaborated module over ``lanes`` independent
input vectors at once.  Every signal is stored column-packed
(:class:`~repro.verilog.simulator.values.BatchVector`): bit ``j`` of column
``b`` is bit ``b`` of the signal on stimulus lane ``j``, and the design's
generated settle function (:mod:`repro.verilog.codegen`) evaluates every lane
with word-wide ``&``/``|``/``^`` over those columns — the
:class:`~repro.logic.bittable.BitTable` trick lifted to multi-bit RTL.  One
:meth:`BatchSimulator.apply_inputs` replaces N scalar passes; this is the hot
path of combinational functional scoring.

Generated code is two-state and combinational, so the simulator only takes
designs the lowering accepts and that have no sequential or ``initial``
processes, and only settles while the signals it reads are free of x/z.
Anything else raises :class:`LaneFallback` after recording the reason in the
codegen fallback registry (:func:`~repro.verilog.codegen.fallback_stats`).
The caller then runs the scalar
:class:`~repro.verilog.simulator.simulator.ModuleSimulator` — the oracle —
instead: :class:`~repro.verilog.simulator.testbench.BatchTestbenchRunner`,
the one user, steps the check cycle-serially, for scoring a DUT and for
recording a reference design's trace alike.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from .. import codegen
from ..errors import SimulationError
from .scheduler import ProcessKind
from .values import BatchVector, LogicVector

#: Input value accepted per lane (scalars broadcast across all lanes).
BatchInput = Union[int, LogicVector, BatchVector, Sequence[Union[int, LogicVector]]]


class LaneFallback(SimulationError):
    """Generated code cannot take this design or stimulus; run the scalar oracle."""

    def __init__(self, label: str, reason: str):
        super().__init__(f"design {label!r} cannot run on generated code: {reason}")
        self.reason = reason


class BatchSimulator:
    """Simulate one combinational module over ``lanes`` independent stimuli at once.

    ``module`` is a :class:`~repro.verilog.design.CompiledDesign` or a parsed
    :class:`~repro.verilog.ast_nodes.Module` (compiled uncached).  Lanes start
    from the elaborated signal values; nothing is settled until inputs are
    driven.
    """

    def __init__(
        self,
        module,
        lanes: int,
        parameter_overrides: dict[str, int] | None = None,
    ):
        from ..design import coerce_compiled

        if lanes < 1:
            raise SimulationError("BatchSimulator needs at least one stimulus lane")
        self.compiled = coerce_compiled(module, parameter_overrides=parameter_overrides)
        self.lanes = lanes
        self.label = self.compiled.codegen_label
        artifact = self.compiled.codegen
        if not artifact.supported:
            raise self._fallback(artifact.reject_reason)
        if self.compiled.has_sequential_processes:
            raise self._fallback("sequential")
        if any(p.kind is ProcessKind.INITIAL for p in self.compiled.template.processes):
            raise self._fallback("initial")
        self.design = self.compiled.elaborate()
        self._codegen = codegen.CodegenRuntime(artifact, lanes)
        self._full_mask = (1 << lanes) - 1
        self._values = {
            name: BatchVector.broadcast(value, lanes)
            for name, value in self.design.store.values.items()
        }

    def _fallback(self, reason: str) -> LaneFallback:
        codegen.record_fallback(self.label, reason)
        return LaneFallback(self.label, reason)

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_source(
        cls,
        source: str,
        lanes: int,
        module_name: str | None = None,
        parameter_overrides: dict[str, int] | None = None,
        database=None,
    ) -> "BatchSimulator":
        """Build a batch simulator from source via the (default) design database."""
        from ..design import get_default_database

        db = database if database is not None else get_default_database()
        return cls(db.compile(source, module_name, parameter_overrides), lanes)

    # ------------------------------------------------------------------ value access
    @property
    def signals(self) -> dict[str, BatchVector]:
        """The current batch values of every signal."""
        return self._values

    def get(self, name: str) -> BatchVector:
        """Return the current batch value of a signal."""
        if name not in self._values:
            raise SimulationError(f"read of undeclared signal {name!r}")
        return self._values[name]

    def get_lane(self, name: str, lane: int) -> LogicVector:
        """Return one lane of a signal as a scalar value."""
        return self.get(name).lane(lane)

    def _coerce(self, name: str, value) -> BatchVector:
        width = self.design.store.widths[name]
        if isinstance(value, BatchVector):
            if value.lanes != self.lanes:
                raise SimulationError(
                    f"input {name!r} carries {value.lanes} lanes, simulator has {self.lanes}"
                )
            return value.resized(width)
        if isinstance(value, LogicVector):
            return BatchVector.broadcast(value.resized(width), self.lanes)
        if isinstance(value, int):
            return BatchVector.broadcast(LogicVector.from_int(value, width), self.lanes)
        values = list(value)
        if len(values) != self.lanes:
            raise SimulationError(
                f"input {name!r} supplies {len(values)} lane values, simulator has {self.lanes}"
            )
        vectors = [
            lane_value.resized(width)
            if isinstance(lane_value, LogicVector)
            else LogicVector.from_int(lane_value, width)
            for lane_value in values
        ]
        return BatchVector.from_vectors(vectors, width)

    # ------------------------------------------------------------------ execution
    def settle(self) -> None:
        """Settle every lane on generated code.

        Raises :class:`LaneFallback` (reason ``xz-state``) while a signal the
        generated code must read as 0/1 holds x/z on some lane — an undriven
        input, say.
        """
        if not self._codegen.try_settle(self._values, self._full_mask):
            raise self._fallback(codegen.XZ_STATE)

    def apply_inputs(self, inputs: Mapping[str, BatchInput]) -> None:
        """Drive per-lane input values and settle.

        Accepts scalars (broadcast), per-lane sequences or packed
        :class:`BatchVector` values.
        """
        for name, value in inputs.items():
            if name not in self._values:
                raise SimulationError(f"unknown input signal {name!r}")
            self._values[name] = self._coerce(name, value)
        self.settle()
