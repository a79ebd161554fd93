"""Content digests of a workload's outputs.

The digest walks plain data, dataclasses and numpy arrays in a fixed
order and feeds dtype, shape and bytes into BLAKE2b, so two runs that
produce byte-identical results print the same digest, traced or not.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Any

import numpy as np


def _feed(h, value: Any) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"nd:{value.dtype.str}:{value.shape}:".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif is_dataclass(value) and not isinstance(value, type):
        h.update(f"dc:{type(value).__name__}:".encode())
        for f in fields(value):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        h.update(f"map:{len(value)}:".encode())
        for key in sorted(value, key=repr):
            h.update(f"{key!r}=".encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"seq:{len(value)}:".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, np.generic):
        _feed(h, value.item())
    elif value is None or isinstance(value, (bool, int, float, str)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    """Hex digest of ``value``'s content."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, value)
    return h.hexdigest()
