"""Shared Arrow list-column access used by the hot map_batches stages.

One subtle idiom appears wherever a stage works on the flattened values
of a ``list<...>`` column (token streams, embeddings, quantized codes):
``flatten()`` returns only the slice's values, while ``.offsets`` still
carries the chunk's absolute start, so every consumer must rebase
(``offs - offs[0]``) before using the offsets as indices into the
flattened array.  Fixed-size-list columns have no offsets buffer at
all.  Getting this wrong is silent corruption, so it lives in exactly
one place.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def list_values_offsets(col) -> tuple[np.ndarray, np.ndarray]:
    """Arrow list-like column → ``(values, offsets)`` where ``values`` is
    the flattened value ndarray and ``offsets`` is int64, rebased to
    start at 0, with ``len(offsets) == len(col) + 1`` — row ``i`` spans
    ``values[offsets[i]:offsets[i+1]]``.

    Accepts ``list`` / ``large_list`` (offsets rebased) and
    ``fixed_size_list`` (uniform offsets synthesized).  Null list slots
    are rejected: ``flatten()`` drops their values while the offsets
    still span them, so indices would silently shift.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if col.null_count:
        raise ValueError("list_values_offsets: column has null list slots"
                         " (flatten() would misalign values vs offsets)")
    if isinstance(t, pa.ExtensionType):
        # Ray's tensor extension (an ndarray column a pandas block
        # converted to Arrow): its storage is a list of each row's
        # flattened values, or, for variable shapes, a struct whose
        # "data" field is that list
        col = col.storage
        if pa.types.is_struct(col.type):
            col = col.flatten()[col.type.get_field_index("data")]
        t = col.type
    if pa.types.is_fixed_size_list(t):
        vals = col.flatten().to_numpy(zero_copy_only=False)
        offs = np.arange(len(col) + 1, dtype=np.int64) * t.list_size
        return vals, offs
    # type guard BEFORE flatten(): scalar columns have no .flatten (an
    # opaque AttributeError) and struct columns flatten to the WRONG
    # contract (one array per field, not values+offsets)
    if not (pa.types.is_list(t) or pa.types.is_large_list(t)):
        raise TypeError(f"list_values_offsets: not a list-like column: {t}")
    vals = col.flatten().to_numpy(zero_copy_only=False)
    offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return vals, offs - offs[0]
