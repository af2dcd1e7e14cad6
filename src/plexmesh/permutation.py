"""Point permutations (paired forward and inverse maps)."""

from __future__ import annotations

import numpy as np


class Permutation:
    """A bijection on [0, n) stored as forward (old -> new) and inverse maps."""

    def __init__(self, forward):
        fwd = np.asarray(forward, dtype=np.int64)
        n = fwd.size
        if n and (fwd.min() < 0 or fwd.max() >= n):
            raise ValueError("permutation image outside [0, n)")
        inv = np.full(n, -1, dtype=np.int64)
        inv[fwd] = np.arange(n, dtype=np.int64)
        if (inv < 0).any():
            raise ValueError("permutation is not a bijection")
        self.forward = fwd
        self.inverse = inv

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def from_new_order(cls, new_order) -> "Permutation":
        """Build from the new-position -> old-point listing (the inverse map)."""
        perm = cls(new_order)  # validates the listing as a bijection
        perm.forward, perm.inverse = perm.inverse, perm.forward
        return perm

    def __len__(self) -> int:
        return self.forward.size

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.forward, np.arange(len(self))))

    def __call__(self, p: int) -> int:
        return int(self.forward[p])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.forward, other.forward)

    def __repr__(self) -> str:
        return f"Permutation(n={len(self)})"
