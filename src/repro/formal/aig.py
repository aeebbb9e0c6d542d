"""And-Inverter Graph (AIG): the shared netlist form of the formal subsystem.

Every formal front end — :mod:`repro.formal.encode` (``BoolExpr``/``BitTable``)
and :mod:`repro.formal.cone` (Verilog combinational cones) — bit-blasts into
this one representation; :mod:`repro.formal.cnf` then Tseitin-encodes it for the
CDCL solver in :mod:`repro.formal.sat`.

Literals follow the standard AIGER convention: node ``i`` contributes literals
``2*i`` (positive) and ``2*i + 1`` (negated).  Node 0 is the constant, so
``FALSE == 0`` and ``TRUE == 1``.  AND gates are hash-consed with operand
normalisation and local constant/contradiction folding, which keeps structurally
equal cones shared — the property the fixpoint settling loop of the Verilog
front end relies on for convergence detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


class FormalError(Exception):
    """Base class for errors raised by the formal subsystem."""


class FormalEncodingError(FormalError):
    """A design/expression uses a construct the formal encoder cannot prove.

    Raised instead of silently approximating: callers fall back to the
    simulation-based engines (which stay the semantic authority for four-state
    and unsupported constructs).
    """


#: Constant literals.
FALSE = 0
TRUE = 1


def negate(literal: int) -> int:
    """Negate a literal (flip the inversion bit)."""
    return literal ^ 1


class AIG:
    """A mutable And-Inverter Graph with hash-consed, folding AND gates."""

    def __init__(self) -> None:
        # Node 0 is the constant-FALSE node; AND nodes store (left, right) fanin
        # literals with left >= right (normalised).  Inputs store None.
        self._fanins: list[tuple[int, int] | None] = [None]
        self._and_cache: dict[tuple[int, int], int] = {}
        self._inputs: list[int] = []  # node indices of inputs, creation order
        self._input_names: dict[int, str] = {}  # node index -> name
        self._name_to_literal: dict[str, int] = {}

    # ------------------------------------------------------------------ construction
    def add_input(self, name: str) -> int:
        """Declare a named primary input and return its positive literal."""
        if name in self._name_to_literal:
            raise ValueError(f"input {name!r} already declared")
        node = len(self._fanins)
        self._fanins.append(None)
        self._inputs.append(node)
        self._input_names[node] = name
        literal = node << 1
        self._name_to_literal[name] = literal
        return literal

    def literal(self, name: str) -> int:
        """Return the positive literal of a declared input."""
        return self._name_to_literal[name]

    def AND(self, a: int, b: int) -> int:
        """Hash-consed conjunction with local folding."""
        if a < b:
            a, b = b, a
        # Constant and trivial folds.
        if b == FALSE or a == negate(b):
            return FALSE
        if b == TRUE or a == b:
            return a
        key = (a, b)
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        node = len(self._fanins)
        self._fanins.append(key)
        literal = node << 1
        self._and_cache[key] = literal
        return literal

    def NOT(self, a: int) -> int:
        return negate(a)

    def OR(self, a: int, b: int) -> int:
        return negate(self.AND(negate(a), negate(b)))

    def XOR(self, a: int, b: int) -> int:
        if a <= TRUE or b <= TRUE:
            # A constant operand passes the other through, inverted by TRUE:
            # the literal the AND/OR chain below folds to, without the calls.
            return a ^ b
        return self.OR(self.AND(a, negate(b)), self.AND(negate(a), b))

    def XNOR(self, a: int, b: int) -> int:
        return negate(self.XOR(a, b))

    def MUX(self, select: int, if_true: int, if_false: int) -> int:
        """``select ? if_true : if_false``."""
        if select == TRUE:
            return if_true
        if select == FALSE:
            return if_false
        if if_true == if_false:
            return if_true
        return self.OR(self.AND(select, if_true), self.AND(negate(select), if_false))

    def and_all(self, literals: Iterable[int]) -> int:
        """Balanced conjunction of a sequence (empty sequence yields TRUE)."""
        terms = list(literals)
        if not terms:
            return TRUE
        while len(terms) > 1:
            terms = [
                self.AND(terms[i], terms[i + 1]) if i + 1 < len(terms) else terms[i]
                for i in range(0, len(terms), 2)
            ]
        return terms[0]

    def or_all(self, literals: Iterable[int]) -> int:
        """Balanced disjunction of a sequence (empty sequence yields FALSE)."""
        return negate(self.and_all(negate(term) for term in literals))

    def const(self, value: int) -> int:
        return TRUE if value else FALSE

    # ------------------------------------------------------------------ queries
    @property
    def num_nodes(self) -> int:
        """Total node count including the constant node."""
        return len(self._fanins)

    @property
    def num_ands(self) -> int:
        return len(self._and_cache)

    def inputs(self) -> list[str]:
        """Declared input names in creation order."""
        return [self._input_names[node] for node in self._inputs]

    def is_input(self, node: int) -> bool:
        return node in self._input_names

    def input_name(self, node: int) -> str:
        return self._input_names[node]

    def fanin(self, node: int) -> tuple[int, int]:
        """Fanin literals of an AND node."""
        fanin = self._fanins[node]
        if fanin is None:
            raise ValueError(f"node {node} is not an AND gate")
        return fanin

    def cone(self, roots: Sequence[int]) -> list[int]:
        """Topologically-ordered node indices feeding ``roots`` (constant excluded).

        The order is suitable for forward evaluation: every AND node appears
        after both of its fanin nodes.
        """
        seen: set[int] = set()
        order: list[int] = []
        # Iterative DFS with an explicit post-visit marker (cones can be deep).
        work: list[tuple[int, bool]] = [(literal >> 1, False) for literal in roots]
        while work:
            node, processed = work.pop()
            if node == 0 or node in seen:
                continue
            fanin = self._fanins[node]
            if processed or fanin is None:
                seen.add(node)
                order.append(node)
                continue
            work.append((node, True))
            work.append((fanin[0] >> 1, False))
            work.append((fanin[1] >> 1, False))
        return order

    def support(self, roots: Sequence[int]) -> set[str]:
        """Names of the primary inputs in the cone of influence of ``roots``."""
        return {
            self._input_names[node]
            for node in self.cone(roots)
            if node in self._input_names
        }

    # ------------------------------------------------------------------ evaluation
    def evaluate(self, roots: Sequence[int], assignment: Mapping[str, int]) -> list[int]:
        """Evaluate root literals under a 0/1 assignment of the input names.

        Inputs missing from ``assignment`` default to 0.  This is the replay
        oracle used to sanity-check SAT counterexamples before they are ever
        reported (and by the unit tests, against ``BoolExpr.evaluate``).
        """
        values: dict[int, int] = {0: 0}
        for node in self.cone(roots):
            fanin = self._fanins[node]
            if fanin is None:
                values[node] = 1 if assignment.get(self._input_names[node], 0) else 0
            else:
                left, right = fanin
                values[node] = (values[left >> 1] ^ (left & 1)) & (
                    values[right >> 1] ^ (right & 1)
                )
        return [values.get(literal >> 1, 0) ^ (literal & 1) for literal in roots]


@dataclass(frozen=True)
class SymVector:
    """A fixed-width bit vector of AIG literals (bit 0 = LSB).

    The two-valued symbolic counterpart of
    :class:`~repro.verilog.simulator.values.LogicVector`: the Verilog front end
    computes one ``SymVector`` per signal, mirroring the scalar evaluator's
    width rules operator by operator.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValueError("SymVector must have at least one bit")

    @property
    def width(self) -> int:
        return len(self.bits)

    @classmethod
    def constant(cls, value: int, width: int) -> "SymVector":
        value &= (1 << width) - 1
        return cls(tuple(TRUE if (value >> bit) & 1 else FALSE for bit in range(width)))

    def resized(self, width: int) -> "SymVector":
        """Zero-extend or truncate to ``width`` (mirrors ``LogicVector.resized``)."""
        if width == self.width:
            return self
        if width < self.width:
            return SymVector(self.bits[:width])
        return SymVector(self.bits + (FALSE,) * (width - self.width))

    def constant_value(self) -> int | None:
        """The integer value when every bit is constant, else ``None``."""
        value = 0
        for position, bit in enumerate(self.bits):
            if bit == TRUE:
                value |= 1 << position
            elif bit != FALSE:
                return None
        return value

    def slice(self, msb: int, lsb: int) -> "SymVector":
        """Bit slice ``[msb:lsb]``; out-of-range bits read as constant 0.

        The scalar ``LogicVector.slice`` reads out-of-range bits as ``x``; in the
        two-valued encoding that is unprovable, so the cone encoder raises before
        ever slicing out of range (see ``_check_slice``).
        """
        if msb < lsb:
            msb, lsb = lsb, msb
        bits = tuple(
            self.bits[position] if 0 <= position < self.width else FALSE
            for position in range(lsb, msb + 1)
        )
        return SymVector(bits)


def concat_sym(parts: Sequence[SymVector]) -> SymVector:
    """Concatenate MSB-first parts (Verilog ``{a, b}`` order) into one vector."""
    bits: tuple[int, ...] = ()
    for part in reversed(parts):
        bits = bits + part.bits
    return SymVector(bits)
