"""Vectorised batch kernel for the fluid tier's DDIO writes.

The fluid accuracy tier charges whole steady intervals in one call, so
the per-burst DDIO absorb/spill split is expressed over arrays here and
evaluated with numpy when it is available.  It is golden-tested
bit-for-bit against the scalar per-burst expression it replaces
(``tests/memory/test_batch.py``); the scalar fallback keeps the package
importable (and identical) without numpy.
"""

from __future__ import annotations

from typing import Sequence

try:  # numpy is optional: the scalar fallback is bit-identical.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

#: Below this many elements the numpy round trip costs more than the
#: scalar loop saves.
_VECTOR_MIN = 8


def ddio_split(sizes: Sequence[int], ddio_capacity: int) -> tuple:
    """DDIO absorb/spill classification for a batch of DMA bursts.

    Per burst, the LLC absorbs ``min(size, ddio_capacity)`` into the
    DDIO way-slice and the remainder spills to DRAM — the same
    nonlinearity :meth:`LastLevelCache.ddio_write` applies per call.
    Returns ``(absorbed, spills)`` lists; elementwise identical to the
    scalar expressions.
    """
    if _np is not None and len(sizes) >= _VECTOR_MIN:
        arr = _np.asarray(sizes, dtype=_np.int64)
        absorbed = _np.minimum(arr, ddio_capacity)
        spills = arr - absorbed
        return [int(v) for v in absorbed], [int(v) for v in spills]
    absorbed = [min(n, ddio_capacity) for n in sizes]
    return absorbed, [n - a for n, a in zip(sizes, absorbed)]
