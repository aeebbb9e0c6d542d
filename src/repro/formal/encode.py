"""Encode :mod:`repro.logic` objects (``BoolExpr``, ``BitTable``) into AIGs.

This is the bridge between the paper's logic substrate and the SAT back end:
``BoolExpr`` trees map 1:1 onto AIG gates, and a packed ``BitTable`` is lowered
by Shannon expansion on its index bits (memoised on the packed integer, so
shared sub-tables — and there are many in minimised covers — encode once).
"""

from __future__ import annotations

from typing import Mapping

from ..logic.bittable import BitTable
from ..logic.expr import And, BoolExpr, Const, Not, Or, Var, Xor
from .aig import AIG, FormalEncodingError


def expr_to_aig(
    expression: BoolExpr, aig: AIG, inputs: Mapping[str, int]
) -> int:
    """Lower a boolean expression to an AIG literal.

    Args:
        expression: the expression to encode.
        aig: target graph.
        inputs: variable name → AIG literal for every free variable.

    Raises:
        FormalEncodingError: on unknown ``BoolExpr`` subclasses (the simulation
            engines remain the authority for user-defined nodes) or on
            variables missing from ``inputs``.
    """
    cache: dict[int, int] = {}

    def encode(node: BoolExpr) -> int:
        key = id(node)
        cached = cache.get(key)
        if cached is not None:
            return cached
        node_type = type(node)
        if node_type is Var:
            try:
                literal = inputs[node.name]
            except KeyError:
                raise FormalEncodingError(
                    f"expression variable {node.name!r} has no AIG input"
                ) from None
        elif node_type is Const:
            literal = aig.const(node.value)
        elif node_type is Not:
            literal = aig.NOT(encode(node.operand))
        elif node_type is And:
            literal = aig.AND(encode(node.left), encode(node.right))
        elif node_type is Or:
            literal = aig.OR(encode(node.left), encode(node.right))
        elif node_type is Xor:
            literal = aig.XOR(encode(node.left), encode(node.right))
        else:
            raise FormalEncodingError(
                f"cannot encode BoolExpr subclass {node_type.__name__}"
            )
        cache[key] = literal
        return literal

    return encode(expression)


def bittable_to_aig(table: BitTable, aig: AIG, inputs: Mapping[str, int]) -> int:
    """Lower a packed truth table to an AIG literal by Shannon expansion.

    The first variable name is the most-significant index bit (the
    :class:`BitTable` convention), so the expansion splits the packed integer in
    half per variable: the low half is the cofactor with that variable at 0.
    Memoisation is keyed on the packed sub-table value per level, which shares
    structurally equal cofactors like a quasi-reduced BDD.
    """
    literals = []
    for name in table.names:
        try:
            literals.append(inputs[name])
        except KeyError:
            raise FormalEncodingError(
                f"truth-table variable {name!r} has no AIG input"
            ) from None

    cache: dict[tuple[int, int], int] = {}

    def expand(bits: int, width: int) -> int:
        size = 1 << width
        full = (1 << size) - 1
        bits &= full
        if bits == 0:
            return aig.const(0)
        if bits == full:
            return aig.const(1)
        key = (bits, width)
        cached = cache.get(key)
        if cached is not None:
            return cached
        half = 1 << (width - 1)
        low = bits & ((1 << half) - 1)
        high = bits >> half
        select = literals[len(table.names) - width]
        literal = aig.MUX(select, expand(high, width - 1), expand(low, width - 1))
        cache[key] = literal
        return literal

    if not table.names:
        return aig.const(table.bits & 1)
    return expand(table.bits, table.width)
