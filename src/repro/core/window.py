"""Look-behind window for the windowed minimum seek distance (§3.1).

A single previous-I/O record mis-measures workloads with *multiple
interleaved sequential streams*: the seek distance oscillates between
the streams and the histogram peak drifts away from 1.  The paper's
fix is a circular array of the last ``N`` I/O end positions (``N = 16``
by default); on each new command the inserted value is the distance to
the *closest* of those N positions (minimum by absolute value, sign
preserved).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as _np

__all__ = ["LookBehindWindow", "DEFAULT_WINDOW_SIZE", "SAFE_POSITION"]

#: The paper's default look-behind depth.
DEFAULT_WINDOW_SIZE = 16

#: Magnitude bound of the batch kernel's positions: inside it, every
#: int64 difference of two positions is exact.
SAFE_POSITION = 1 << 62

#: Rows per block of :meth:`LookBehindWindow.observe_block`; its
#: transient arrays hold ``BLOCK_ROWS x size`` entries whatever the
#: batch length.
BLOCK_ROWS = 4096


class LookBehindWindow:
    """Circular record of the last-block positions of the last N I/Os.

    ``observe(first_block, last_block)`` returns the signed distance
    from ``first_block`` to the nearest remembered last-block (or
    ``None`` for the very first I/O) and then records ``last_block``.
    The linear scan over N entries is exactly the paper's algorithm —
    N is a small constant, so the per-command cost remains O(1).
    """

    __slots__ = ("size", "_ring", "_next", "_filled")

    def __init__(self, size: int = DEFAULT_WINDOW_SIZE):
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self._ring: List[int] = [0] * size
        self._next = 0
        self._filled = 0

    @property
    def filled(self) -> int:
        """Number of valid entries currently remembered (<= size)."""
        return self._filled

    def observe(self, first_block: int, last_block: int) -> Optional[int]:
        """Measure min-distance to the window, then push ``last_block``."""
        distance = self.min_distance(first_block)
        self._ring[self._next] = last_block
        self._next = (self._next + 1) % self.size
        if self._filled < self.size:
            self._filled += 1
        return distance

    def min_distance(self, first_block: int) -> Optional[int]:
        """Signed distance to the nearest remembered position.

        Minimum is by absolute value; the sign of the winning distance
        is preserved so reverse-scan detection still works.  Returns
        ``None`` when the window is empty.
        """
        if not self._filled:
            return None
        best: Optional[int] = None
        best_abs = 0
        for index in range(self._filled):
            d = first_block - self._ring[index]
            d_abs = -d if d < 0 else d
            if best is None or d_abs < best_abs:
                best = d
                best_abs = d_abs
        return best

    def observe_many(self, first_blocks: Sequence[int],
                     last_blocks: Sequence[int]) -> List[Optional[int]]:
        """Batch :meth:`observe`: one result per input command.

        A list-in/list-out wrapper over :meth:`observe_block`, with the
        same distances and final ring state as a scalar :meth:`observe`
        loop.  Positions outside :meth:`block_safe`'s range loop
        :meth:`observe` itself.
        """
        try:
            first = _np.asarray(first_blocks, dtype=_np.int64)
            last = _np.asarray(last_blocks, dtype=_np.int64)
        except OverflowError:
            first = last = None
        if first is None or not len(first) or not self.block_safe(
                min(int(first.min()), int(last.min())),
                max(int(first.max()), int(last.max()))):
            observe = self.observe
            return [observe(fb, lb)
                    for fb, lb in zip(first_blocks, last_blocks)]
        minima, undefined = self.observe_block(first, last)
        out: List[Optional[int]] = [None] if undefined else []
        return out + minima.tolist()

    def block_safe(self, lo: int, hi: int) -> bool:
        """Whether :meth:`observe_block` is exact for a batch whose
        positions all lie in ``[lo, hi]``: those and every remembered
        position must stay inside ``±SAFE_POSITION``, so that no int64
        difference can wrap."""
        return (-SAFE_POSITION < lo and hi < SAFE_POSITION
                and all(-SAFE_POSITION < v < SAFE_POSITION
                        for v in self._ring[:self._filled]))

    def observe_block(self, first, last) -> Tuple[_np.ndarray, bool]:
        """Array kernel of :meth:`observe` over int64 columns.

        Returns the signed minima and whether the first command met an
        empty window (then it has no minimum and ``minima`` starts at
        the second command), and leaves the ring exactly as a scalar
        :meth:`observe` loop would.  Every position must satisfy
        :meth:`block_safe`.

        Once the window is full, command ``i`` sees the ``size``
        positions before it in ``[ring in age order] + last``: a
        sliding window, answered by ``argmin`` of the absolute
        distance.  ``argmin`` picks the first minimum in *age* order,
        the scalar scan the first in *ring-slot* order; the two differ
        only where both ``+a`` and ``-a`` (``a > 0``) are in the
        window, and those rows are re-answered in slot order.  The
        commands that find the window not yet full (at most ``size``
        in its lifetime) take :meth:`observe` itself.  Rows go in
        blocks of :data:`BLOCK_ROWS`, bounding the transient arrays.
        """
        n = len(first)
        size = self.size
        minima = _np.empty(n, dtype=_np.int64)
        undefined = n > 0 and self._filled == 0
        head = min(n, size - self._filled)
        for i in range(head):
            d = self.observe(int(first[i]), int(last[i]))
            minima[i] = 0 if d is None else d
        rest = n - head
        if rest:
            nxt = self._next
            ring = self._ring
            line = _np.empty(size + rest, dtype=_np.int64)
            line[:size] = ring[nxt:] + ring[:nxt]
            line[size:] = last[head:]
            # Row i of ``windows`` is line[i:i + size]: a strided view.
            step = line.itemsize
            windows = _np.ndarray((rest, size), _np.int64, line, 0,
                                  (step, step))
            ages = _np.arange(size)
            for b0 in range(0, rest, BLOCK_ROWS):
                b1 = min(rest, b0 + BLOCK_ROWS)
                rows = _np.arange(b1 - b0)
                dist = first[head + b0:head + b1, None] - windows[b0:b1]
                mag = _np.abs(dist)
                best = dist[rows, mag.argmin(axis=1)]
                tie = _np.flatnonzero(
                    (best != 0) & (dist == -best[:, None]).any(axis=1))
                if tie.size:
                    slots = (nxt + b0 + tie[:, None] + ages) % size
                    near = mag[tie] == _np.abs(best[tie])[:, None]
                    pick = _np.where(near, slots, size).argmin(axis=1)
                    best[tie] = dist[tie, pick]
                minima[head + b0:head + b1] = best
            nxt = (nxt + rest) % size
            newest = line[-size:].tolist()
            self._ring = newest[size - nxt:] + newest[:size - nxt]
            self._next = nxt
        return (minima[1:] if undefined else minima), undefined

    def copy(self) -> "LookBehindWindow":
        """Independent copy with identical remembered positions.

        The live epoch-rotation path uses this to let a fresh
        collector continue an existing command stream: the new
        window answers the next ``observe`` exactly as the old one
        would have.
        """
        dup = LookBehindWindow(self.size)
        dup._ring = list(self._ring)
        dup._next = self._next
        dup._filled = self._filled
        return dup

    def reset(self) -> None:
        """Forget all remembered positions."""
        self._next = 0
        self._filled = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LookBehindWindow size={self.size} filled={self._filled}>"
