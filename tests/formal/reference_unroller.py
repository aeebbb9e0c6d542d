"""Per-frame symbolic execution: the test oracle for the transition relation.

:class:`~repro.formal.cone.SequentialUnroller` builds every time frame as a
substituted copy of a once-encoded :class:`~repro.formal.cone.TransitionRelation`.
This module keeps the construction it replaced: one
:class:`~repro.formal.cone.SymbolicExecutor` re-running ``settle → clock edge →
settle`` for every frame, from the concrete reset state
(:func:`unroll_from_reset`) or from fresh state inputs
(:func:`unroll_from_symbolic_state`).  ``test_transition_relation`` checks the
two agree.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.formal.aig import FALSE, TRUE, FormalEncodingError, SymVector
from repro.formal.cone import _NB_PREFIX, SequentialUnroller, SymbolicExecutor


def unroll_from_reset(
    unroller: SequentialUnroller, step_inputs: Sequence[Mapping[str, SymVector]]
) -> tuple[list[dict[str, SymVector]], set[str]]:
    """Unroll ``len(step_inputs)`` clock steps from the concrete reset state.

    Returns ``(outputs_per_step, live_undef_input_names)`` like
    :meth:`SequentialUnroller.unroll`.
    """
    initial = unroller.reset_state()
    # Seed every input port with a constant so the constructor does not
    # declare (dead) AIG inputs for them; data inputs are overwritten with
    # the shared per-step vectors below, clock/reset stay pinned.
    pinned = {
        port.name: SymVector.constant(0, port.width)
        for port in unroller.design.input_ports()
    }
    executor = SymbolicExecutor(
        unroller.design,
        unroller.aig,
        input_literals=pinned,
        undef_prefix=unroller.undef_prefix,
    )
    # Overwrite every non-port signal with its concrete post-reset value
    # (bits still x after reset become tagged undef inputs).
    port_names = {port.name for port in unroller.design.input_ports()}
    for name, width in executor.widths.items():
        if name.startswith(_NB_PREFIX) or name in port_names:
            continue
        concrete = initial.get(name)
        if concrete is None:
            continue
        if concrete.xz_mask == 0:
            executor.values[name] = SymVector.constant(concrete.value, width)
        else:
            bits = []
            for bit in range(width):
                if (concrete.xz_mask >> bit) & 1:
                    undef_name = f"__undef__{unroller.undef_prefix}{name}[{bit}]@reset"
                    bits.append(unroller.aig.add_input(undef_name))
                    executor.undef_inputs.add(undef_name)
                else:
                    bits.append(TRUE if (concrete.value >> bit) & 1 else FALSE)
            executor.values[name] = SymVector(tuple(bits))
    executor.set_concrete(unroller.clock, 0)
    if unroller.reset_pin is not None:
        executor.set_concrete(unroller.reset_pin, 1 if unroller.reset.active_low else 0)

    outputs_per_step: list[dict[str, SymVector]] = []
    output_names = [port.name for port in unroller.design.output_ports()]
    for step, inputs in enumerate(step_inputs):
        for name in unroller.data_inputs:
            vector = inputs.get(name)
            if vector is None:
                raise FormalEncodingError(
                    f"step {step} is missing a literal vector for input {name!r}"
                )
            executor.values[name] = vector.resized(executor.widths[name])
            executor.input_vectors[name] = executor.values[name]
        executor.settle()
        executor.clock_step()
        executor.settle()
        outputs_per_step.append(
            {name: executor.values[name] for name in output_names}
        )
    # Only undef bits actually feeding an output matter; the constructor's
    # eager undef inputs are mostly dead once the reset state is written.
    roots = [
        literal
        for step in outputs_per_step
        for vector in step.values()
        for literal in vector.bits
    ]
    live_undefs = unroller.aig.support(roots) & executor.undef_inputs
    return outputs_per_step, live_undefs


def unroll_from_symbolic_state(
    unroller: SequentialUnroller,
    step_inputs: Sequence[Mapping[str, SymVector]],
    state_prefix: str,
) -> list[dict[str, SymVector]]:
    """Unroll like :func:`unroll_from_reset`, from an arbitrary state.

    Every non-port signal is seeded with fresh ``{state_prefix}{name}[{bit}]``
    inputs instead of the concrete post-reset values, so the unrolling ranges
    over every conceivable register state; combinational signals are settled
    from that state before the first clock edge.
    """
    aig = unroller.aig
    input_names = {port.name for port in unroller.design.input_ports()}
    literals: dict[str, SymVector] = {}
    for name, width in unroller.design.store.widths.items():
        if name in input_names:
            # Pinned below / overwritten per step — a constant avoids the
            # constructor declaring dead AIG inputs for the ports.
            literals[name] = SymVector.constant(0, width)
        else:
            literals[name] = SymVector(
                tuple(
                    aig.add_input(f"{state_prefix}{name}[{bit}]")
                    for bit in range(width)
                )
            )
    executor = SymbolicExecutor(
        unroller.design,
        aig,
        input_literals=literals,
        undef_prefix=unroller.undef_prefix,
    )
    executor.set_concrete(unroller.clock, 0)
    if unroller.reset_pin is not None:
        executor.set_concrete(unroller.reset_pin, 1 if unroller.reset.active_low else 0)
    output_names = [port.name for port in unroller.design.output_ports()]
    outputs_per_step: list[dict[str, SymVector]] = []
    for step, inputs in enumerate(step_inputs):
        for name in unroller.data_inputs:
            vector = inputs.get(name)
            if vector is None:
                raise FormalEncodingError(
                    f"step {step} is missing a literal vector for input {name!r}"
                )
            executor.values[name] = vector.resized(executor.widths[name])
            executor.input_vectors[name] = executor.values[name]
        executor.settle()
        executor.clock_step()
        executor.settle()
        outputs_per_step.append(
            {name: executor.values[name] for name in output_names}
        )
    return outputs_per_step
