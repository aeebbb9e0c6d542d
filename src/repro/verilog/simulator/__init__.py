"""Event-free functional Verilog simulator used for functional pass@k scoring.

Two engines: the scalar four-state :class:`ModuleSimulator` (the oracle,
which takes every design) and generated code — :class:`BatchSimulator` for
combinational lanes and the fused clocked loop the testbench runner hands
over to after reset.
"""

from .values import BatchVector, LogicVector, concat_all
from .eval import EvalContext, ExpressionEvaluator
from .scheduler import Process, ProcessKind, SignalStore, StatementExecutor
from .simulator import (
    ModuleSimulator,
    elaborate_module,
    resolve_parameters,
    simulate_combinational,
)
from .batch import (
    BatchSimulator,
    LaneFallback,
    differential_combinational,
    simulate_combinational_batch,
    simulate_lanes,
)
from .testbench import (
    BatchTestbenchRunner,
    CombinationalGolden,
    GoldenModel,
    Mismatch,
    ResetSpec,
    TestbenchResult,
    TestbenchRunner,
    run_functional_check,
)

__all__ = [
    "BatchVector",
    "LogicVector",
    "concat_all",
    "EvalContext",
    "ExpressionEvaluator",
    "Process",
    "ProcessKind",
    "SignalStore",
    "StatementExecutor",
    "ModuleSimulator",
    "elaborate_module",
    "resolve_parameters",
    "simulate_combinational",
    "BatchSimulator",
    "LaneFallback",
    "differential_combinational",
    "simulate_combinational_batch",
    "simulate_lanes",
    "BatchTestbenchRunner",
    "CombinationalGolden",
    "GoldenModel",
    "Mismatch",
    "ResetSpec",
    "TestbenchResult",
    "TestbenchRunner",
    "run_functional_check",
]
