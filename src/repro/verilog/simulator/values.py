"""Four-state logic values for the Verilog simulator.

A :class:`LogicVector` models a fixed-width bit vector where every bit is one of
``0``, ``1``, ``x`` (unknown) or ``z`` (high impedance).  Internally two integers
are kept: ``value`` holds the 0/1 payload and ``xz_mask`` marks bits that are
``x``/``z`` (for such bits the corresponding ``value`` bit distinguishes ``x``
(0) from ``z`` (1)).  This mirrors the common two-plane encoding used by real
event-driven simulators.

:class:`BatchVector` is the column-packed lane counterpart the batched
simulator (:mod:`repro.verilog.simulator.batch`) reads and writes: one signal
value per *lane* (stimulus), stored transposed so that bit ``j`` of column
``b`` is bit ``b`` of the signal on lane ``j``.  Generated code evaluates all
lanes at once with word-wide integer operations over those columns — the
:class:`~repro.logic.bittable.BitTable` trick lifted to multi-bit RTL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class LogicVector:
    """An immutable four-state bit vector.

    Attributes:
        width: number of bits (>= 1).
        value: bit payload for defined bits; for ``x``/``z`` bits it encodes x (0) or z (1).
        xz_mask: bits set where the vector holds ``x`` or ``z``.
    """

    width: int
    value: int
    xz_mask: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("LogicVector width must be >= 1")
        object.__setattr__(self, "value", self.value & _mask(self.width))
        object.__setattr__(self, "xz_mask", self.xz_mask & _mask(self.width))

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_int(cls, value: int, width: int) -> LogicVector:
        """Build a fully-defined vector from a Python integer (two's complement wrap)."""
        return cls(width=width, value=value & _mask(width), xz_mask=0)

    @classmethod
    def unknown(cls, width: int) -> LogicVector:
        """Build an all-``x`` vector."""
        return cls(width=width, value=0, xz_mask=_mask(width))

    @classmethod
    def high_impedance(cls, width: int) -> LogicVector:
        """Build an all-``z`` vector."""
        return cls(width=width, value=_mask(width), xz_mask=_mask(width))

    @classmethod
    def from_string(cls, text: str) -> LogicVector:
        """Build a vector from a binary string such as ``"10x0"`` or ``"4'b10x0"``.

        The string may contain ``0``, ``1``, ``x``, ``z`` and ``_`` characters; a
        Verilog-style ``<width>'b`` prefix is accepted and ignored (width is taken
        from the digits).
        """
        if "'" in text:
            __, __, text = text.partition("'")
            if text[:1].lower() == "b":
                text = text[1:]
        text = text.replace("_", "").strip()
        if not text:
            raise ValueError("empty logic vector string")
        value = 0
        xz_mask = 0
        for char in text:
            value <<= 1
            xz_mask <<= 1
            if char == "1":
                value |= 1
            elif char == "0":
                pass
            elif char in "xX":
                xz_mask |= 1
            elif char in "zZ?":
                xz_mask |= 1
                value |= 1
            else:
                raise ValueError(f"invalid logic character {char!r}")
        return cls(width=len(text), value=value, xz_mask=xz_mask)

    # ------------------------------------------------------------------ queries
    @property
    def is_fully_defined(self) -> bool:
        """``True`` when no bit is ``x`` or ``z``."""
        return self.xz_mask == 0

    @property
    def has_unknown(self) -> bool:
        """``True`` when at least one bit is ``x`` or ``z``."""
        return self.xz_mask != 0

    def to_int(self) -> int:
        """Return the unsigned integer value.

        Raises:
            ValueError: if the vector contains ``x``/``z`` bits.
        """
        if self.xz_mask:
            raise ValueError(f"cannot convert {self.to_verilog_literal()} with x/z bits to int")
        return self.value

    def to_int_or(self, default: int = 0) -> int:
        """Return the integer value treating every ``x``/``z`` bit as 0."""
        if self.xz_mask:
            return self.value & ~self.xz_mask & _mask(self.width)
        return self.value

    def to_signed_int(self) -> int:
        """Interpret the defined bits as a two's-complement signed integer."""
        raw = self.to_int()
        if raw & (1 << (self.width - 1)):
            return raw - (1 << self.width)
        return raw

    def bit(self, index: int) -> str:
        """Return the character ``'0'``, ``'1'``, ``'x'`` or ``'z'`` for bit ``index``."""
        if index < 0 or index >= self.width:
            return "x"
        value_bit = (self.value >> index) & 1
        if (self.xz_mask >> index) & 1:
            return "z" if value_bit else "x"
        return "1" if value_bit else "0"

    def to_binary_string(self) -> str:
        """Return the MSB-first binary string, e.g. ``"10x0"``."""
        return "".join(self.bit(i) for i in reversed(range(self.width)))

    def to_verilog_literal(self) -> str:
        """Return a Verilog-style sized binary literal, e.g. ``"4'b10x0"``."""
        return f"{self.width}'b{self.to_binary_string()}"

    def is_true(self) -> bool | None:
        """Logical truth value: ``True``, ``False`` or ``None`` for unknown.

        A vector is true when at least one defined bit is 1, false when all bits
        are defined 0, and unknown otherwise.
        """
        defined_ones = self.value & ~self.xz_mask & _mask(self.width)
        if defined_ones:
            return True
        if self.xz_mask:
            return None
        return False

    # ------------------------------------------------------------------ manipulation
    def resized(self, width: int) -> LogicVector:
        """Return this vector zero-extended or truncated to ``width`` bits."""
        if width == self.width:
            return self
        return LogicVector(width=width, value=self.value, xz_mask=self.xz_mask)

    def sign_extended(self, width: int) -> LogicVector:
        """Return this vector sign-extended (by its MSB) to ``width`` bits."""
        if width <= self.width:
            return self.resized(width)
        msb_value = (self.value >> (self.width - 1)) & 1
        msb_xz = (self.xz_mask >> (self.width - 1)) & 1
        extension = _mask(width) ^ _mask(self.width)
        value = self.value | (extension if msb_value else 0)
        xz_mask = self.xz_mask | (extension if msb_xz else 0)
        return LogicVector(width=width, value=value, xz_mask=xz_mask)

    def slice(self, msb: int, lsb: int) -> LogicVector:
        """Return bits ``[msb:lsb]`` as a new vector (out-of-range bits become x)."""
        if msb < lsb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        value = 0
        xz_mask = 0
        for offset in range(width):
            index = lsb + offset
            if 0 <= index < self.width:
                value |= ((self.value >> index) & 1) << offset
                xz_mask |= ((self.xz_mask >> index) & 1) << offset
            else:
                xz_mask |= 1 << offset
        return LogicVector(width=width, value=value, xz_mask=xz_mask)

    def replaced(self, msb: int, lsb: int, replacement: LogicVector) -> LogicVector:
        """Return a copy with bits ``[msb:lsb]`` replaced by ``replacement``."""
        if msb < lsb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        replacement = replacement.resized(width)
        value = self.value
        xz_mask = self.xz_mask
        for offset in range(width):
            index = lsb + offset
            if index < 0 or index >= self.width:
                continue
            bit_value = (replacement.value >> offset) & 1
            bit_xz = (replacement.xz_mask >> offset) & 1
            value = (value & ~(1 << index)) | (bit_value << index)
            xz_mask = (xz_mask & ~(1 << index)) | (bit_xz << index)
        return LogicVector(width=self.width, value=value, xz_mask=xz_mask)

    def concat(self, other: LogicVector) -> LogicVector:
        """Return ``{self, other}`` (self occupies the most-significant bits)."""
        return LogicVector(
            width=self.width + other.width,
            value=(self.value << other.width) | other.value,
            xz_mask=(self.xz_mask << other.width) | other.xz_mask,
        )

    def __str__(self) -> str:
        return self.to_verilog_literal()


def concat_all(parts: list[LogicVector]) -> LogicVector:
    """Concatenate parts MSB-first (``parts[0]`` ends up most significant)."""
    if not parts:
        raise ValueError("cannot concatenate an empty list")
    result = parts[0]
    for part in parts[1:]:
        result = result.concat(part)
    return result


# --------------------------------------------------------------------------- batch values
@dataclass(frozen=True)
class BatchVector:
    """A four-state bit vector replicated over ``lanes`` independent stimuli.

    Storage is *transposed* relative to a list of :class:`LogicVector`: column
    ``b`` packs bit ``b`` of every lane into one integer (bit ``j`` of
    ``value_cols[b]`` is the 0/1 payload of lane ``j``; ``xz_cols[b]`` marks the
    lanes whose bit ``b`` is ``x``/``z``, with the value bit distinguishing x(0)
    from z(1) exactly as in :class:`LogicVector`).
    """

    width: int
    lanes: int
    value_cols: tuple[int, ...]
    xz_cols: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("BatchVector width must be >= 1")
        if self.lanes < 1:
            raise ValueError("BatchVector must have at least one lane")
        if len(self.value_cols) != self.width or len(self.xz_cols) != self.width:
            raise ValueError("column count must equal the vector width")

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_vectors(cls, vectors: Sequence[LogicVector], width: int | None = None) -> "BatchVector":
        """Pack one :class:`LogicVector` per lane into columns."""
        if not vectors:
            raise ValueError("cannot build a BatchVector from zero lanes")
        if width is None:
            width = max(vector.width for vector in vectors)
        resized = [vector.resized(width) for vector in vectors]
        value_cols = []
        xz_cols = []
        for bit in range(width):
            value = 0
            xz = 0
            for lane, vector in enumerate(resized):
                value |= ((vector.value >> bit) & 1) << lane
                xz |= ((vector.xz_mask >> bit) & 1) << lane
            value_cols.append(value)
            xz_cols.append(xz)
        return cls(width=width, lanes=len(vectors), value_cols=tuple(value_cols), xz_cols=tuple(xz_cols))

    @classmethod
    def from_ints(cls, values: Iterable[int], width: int) -> "BatchVector":
        """Pack one fully-defined integer per lane (two's complement wrap)."""
        return cls.from_vectors([LogicVector.from_int(value, width) for value in values], width)

    @classmethod
    def broadcast(cls, vector: LogicVector, lanes: int) -> "BatchVector":
        """Replicate one scalar value across every lane."""
        if lanes < 1:
            raise ValueError("BatchVector must have at least one lane")
        lane_mask = _mask(lanes)
        value_cols = tuple(lane_mask if (vector.value >> bit) & 1 else 0 for bit in range(vector.width))
        xz_cols = tuple(lane_mask if (vector.xz_mask >> bit) & 1 else 0 for bit in range(vector.width))
        return cls(width=vector.width, lanes=lanes, value_cols=value_cols, xz_cols=xz_cols)

    # ------------------------------------------------------------------ queries
    def lane(self, index: int) -> LogicVector:
        """Extract lane ``index`` back into a scalar :class:`LogicVector`."""
        if not 0 <= index < self.lanes:
            raise IndexError(f"lane {index} out of range for {self.lanes} lanes")
        value = 0
        xz = 0
        for bit in range(self.width):
            value |= ((self.value_cols[bit] >> index) & 1) << bit
            xz |= ((self.xz_cols[bit] >> index) & 1) << bit
        return LogicVector(width=self.width, value=value, xz_mask=xz)

    def to_vectors(self) -> list[LogicVector]:
        """Unpack every lane (inverse of :meth:`from_vectors`)."""
        return [self.lane(index) for index in range(self.lanes)]

    # ------------------------------------------------------------------ manipulation
    def resized(self, width: int) -> "BatchVector":
        """Zero-extend or truncate every lane to ``width`` bits."""
        if width == self.width:
            return self
        if width < self.width:
            return BatchVector(
                width=width,
                lanes=self.lanes,
                value_cols=self.value_cols[:width],
                xz_cols=self.xz_cols[:width],
            )
        pad = (0,) * (width - self.width)
        return BatchVector(
            width=width,
            lanes=self.lanes,
            value_cols=self.value_cols + pad,
            xz_cols=self.xz_cols + pad,
        )

    def __str__(self) -> str:
        shown = ", ".join(str(self.lane(index)) for index in range(min(self.lanes, 4)))
        more = f", ... {self.lanes - 4} more" if self.lanes > 4 else ""
        return f"BatchVector[{shown}{more}]"

