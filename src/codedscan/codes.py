"""Binary scan patterns and their per-window statistics.

Bit semantics are fixed throughout the package: 1 marks an absorbing bar,
0 an open gap. Windows are linear (non-wrapping), so an order-n pattern of
length 2**n offers 2**n - n + 1 scan windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ORDER = 20  # memory guard: 2**20 bits


@dataclass(frozen=True, eq=False)
class Pattern:
    """Immutable bit pattern. ``order`` is the intended uniqueness window."""

    bits: np.ndarray
    order: int | None = None

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("pattern must be a non-empty 1-D bit sequence")
        if bits.max(initial=0) > 1:
            raise ValueError("pattern bits must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return int(self.bits.size)

    def to_string(self) -> str:
        return self.bits.tobytes().translate(bytes.maketrans(b"\x00\x01", b"01")).decode("ascii")

    @classmethod
    def from_string(cls, text: str, order: int | None = None) -> "Pattern":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a '0'/'1' bit string: {text!r}")
        bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        return cls(bits, order)


@dataclass(frozen=True)
class SubsequenceStats:
    """Composition of one window: absorbing fraction and bar-variation count."""

    start_index: int
    zeros_fraction: float
    bit_flips: int


def generate_de_bruijn(order: int) -> Pattern:
    """Return the lexicographically least binary de Bruijn pattern of ``order``.

    Built by concatenating, in lexicographic order, all binary Lyndon words
    whose length divides ``order``. The linearized sequence has length
    2**order and its cyclic extension contains every order-bit word exactly
    once; the same order always yields the same pattern.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")

    sequence: list[int] = []
    a = [0] * (order + 1)

    def extend(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                sequence.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        extend(t + 1, p)
        for bit in range(a[t - p] + 1, 2):
            a[t] = bit
            extend(t + 1, t)

    extend(1, 1)
    return Pattern(np.array(sequence, dtype=np.uint8), order=int(order))


def window_stats(pattern: Pattern, start: int, length: int) -> SubsequenceStats:
    """Exact zero fraction and adjacent-flip count of one window."""
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if start < 0 or start + length > len(pattern):
        raise ValueError(
            f"window [{start}, {start + length}) outside pattern of length {len(pattern)}"
        )
    window = pattern.bits[start : start + length]
    zeros = int(np.count_nonzero(window == 0))
    flips = int(np.count_nonzero(window[1:] != window[:-1]))
    return SubsequenceStats(start_index=int(start), zeros_fraction=zeros / length, bit_flips=flips)


def all_window_stats(pattern: Pattern, length: int) -> list[SubsequenceStats]:
    """Stats for every linear window of ``length``, in start order."""
    return [window_stats(pattern, q, length) for q in range(len(pattern) - length + 1)]


def verify_uniqueness(pattern: Pattern, window: int) -> bool:
    """True iff all linear windows of the given length are pairwise distinct."""
    if not 1 <= window <= len(pattern):
        raise ValueError(f"window must be in [1, {len(pattern)}], got {window}")
    views = np.lib.stride_tricks.sliding_window_view(pattern.bits, window)
    seen = {view.tobytes() for view in views}
    return len(seen) == views.shape[0]
