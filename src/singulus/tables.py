"""Graded Betti data of the minimal free resolution of a Jacobian algebra.

A table records, for a hypersurface of degree d in n+1 variables, the sorted
shift multisets d_k = (d_{k,1} <= ... <= d_{k,m_k}) for k = 1..n.  The first
two steps of the resolution are fixed (the ring itself and n+1 generators in
degree d-1), so the columns here carry all remaining information.

Basic well-formedness is enforced on construction; mathematically meaningful
constraints (such as m_1 >= n) live in the rule engine so that violating
tables can still be loaded and reported as obstructed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import le

_INT = frozenset({int})


def _plain_shifts(col) -> bool:
    """True when every entry is a plain int and none is negative, tested
    at C level; False sends the caller to its per-entry check, which names
    the bad entry (and accepts int subclasses other than bool)."""
    return _INT.issuperset(map(type, col)) and (not col or min(col) >= 0)


@dataclass(frozen=True)
class BettiTable:
    n: int
    d: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for name, least in (("n", 2), ("d", 3)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"need an integer {name} >= {least}")
        if len(self.columns) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.columns)}")
        for k, col in enumerate(self.columns, start=1):
            if not isinstance(col, tuple):
                raise ValueError(f"column {k} must be a tuple")
            # a sorted column of plain ints is non-negative when its first entry is
            if _INT.issuperset(map(type, col)) and all(map(le, col, col[1:])):
                if not col or col[0] >= 0:
                    continue
            for e in col:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise ValueError(f"column {k} entries must be non-negative integers")
            if any(a > b for a, b in zip(col, col[1:])):
                raise ValueError(f"column {k} must be sorted non-decreasingly")

    @classmethod
    def of(cls, n: int, d: int, columns) -> "BettiTable":
        """Build from a mapping {k: degrees} or a sequence of degree lists.

        Missing columns are empty; each column is sorted here, so callers
        may pass degrees in any order.
        """
        if isinstance(columns, dict):
            for k in columns:
                if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= n:
                    raise ValueError(f"column index {k!r} is not an integer in 1..{n}")
            cols = [tuple(sorted(columns.get(k, ()))) for k in range(1, n + 1)]
        else:
            cols = [tuple(sorted(c)) for c in columns]
            cols += [()] * (n - len(cols))
        return cls(n, d, tuple(cols))

    def m(self, k: int) -> int:
        """Number of shifts in column k (1-based)."""
        return len(self.column(k))

    def column(self, k: int) -> tuple[int, ...]:
        if not 1 <= k <= self.n:
            raise ValueError(f"column index {k} out of range 1..{self.n}")
        return self.columns[k - 1]

    def max_nonempty(self):
        """Largest k with m_k > 0, or None when every column is empty."""
        nonempty = [k for k in range(1, self.n + 1) if self.m(k)]
        return max(nonempty) if nonempty else None

    @cached_property
    def power_sums(self) -> tuple[int, ...]:
        """sigma_0..sigma_n, where sigma_j = sum_k (-1)^(k+1) sum_i d_{k,i}^j
        (0**0 == 1), summed once per table over the distinct shifts, each
        with its signed multiplicity."""
        counts = Counter()
        for k, col in enumerate(self.columns, start=1):
            counts.update({e: m if k % 2 else -m for e, m in Counter(col).items()})
        return tuple(sum(m * e**j for e, m in counts.items()) for j in range(self.n + 1))

    def __str__(self):
        cols = ", ".join(
            f"d_{k}={list(self.column(k))}" for k in range(1, self.n + 1)
        )
        return f"BettiTable(n={self.n}, d={self.d}, {cols})"
