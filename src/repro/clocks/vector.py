"""Vector clocks with the paper's interval semantics (Fig. 2).

The application-process algorithm in Fig. 2 of the paper maintains a
vector ``vclock`` of width ``n`` with ``vclock[i]`` initialized to 1 and
incremented *after* every send and after every receive.  A clock value
therefore identifies a *communication interval*: a maximal block of local
states with no intervening send/receive.  The two properties the
correctness proofs rely on are:

1. ``alpha -> beta`` iff ``alpha.v < beta.v`` (componentwise ``<=`` with
   at least one strict inequality), and
2. for a vector ``v`` taken on process ``P_i`` and any ``j != i``, the
   state ``(j, v[j])`` happened before ``(i, v[i])``.

:class:`VectorClock` is an immutable value type backed by a tuple.
Mutation-style operations (``tick``, ``merged``) return new instances,
which keeps snapshots safe to share between simulated processes without
copying discipline at every call site.  It is the library's one clock
representation: the interval sweep in :mod:`repro.trace.intervals`
mutates a private working list per process and freezes one clock per
interval with :meth:`VectorClock._trusted`, so no validated clock is
allocated per tick or merge.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.common.errors import ClockError
from repro.common.types import Pid

__all__ = ["VectorClock"]

# Interned identity projections: tuple(range(n)) per width.  Predicates
# over all N processes project every snapshot with the same pid tuple,
# so the fast path below compares against one shared interned object
# instead of re-deriving the index list per snapshot.
_IOTA_CACHE: dict[int, tuple[int, ...]] = {}


def _iota(width: int) -> tuple[int, ...]:
    cached = _IOTA_CACHE.get(width)
    if cached is None:
        cached = _IOTA_CACHE[width] = tuple(range(width))
    return cached


class VectorClock:
    """An immutable vector clock of fixed width.

    Parameters
    ----------
    components:
        The clock components; copied defensively.

    Use :meth:`initial` to obtain the paper's starting clock for a
    process (all zeros except 1 in the owner's component).
    """

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[int]) -> None:
        comps = tuple(int(c) for c in components)
        if not comps:
            raise ClockError("vector clock must have at least one component")
        if any(c < 0 for c in comps):
            raise ClockError(f"vector clock components must be >= 0, got {comps}")
        self._components = comps

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, owner: Pid, width: int) -> "VectorClock":
        """The paper's initial clock on process ``owner``: ``v[owner]=1``."""
        if not 0 <= owner < width:
            raise ClockError(f"owner {owner} out of range for width {width}")
        comps = [0] * width
        comps[owner] = 1
        return cls(comps)

    @classmethod
    def zero(cls, width: int) -> "VectorClock":
        """An all-zero clock of the given width (pre-initial sentinel)."""
        if width <= 0:
            raise ClockError(f"width must be positive, got {width}")
        return cls([0] * width)

    @classmethod
    def _trusted(cls, comps: tuple[int, ...]) -> "VectorClock":
        """Wrap already-validated components without re-checking.

        Internal fast path for :meth:`tick` / :meth:`merged` and the
        interval sweep, whose outputs are nonnegative by construction.
        """
        clock = object.__new__(cls)
        clock._components = comps
        return clock

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of components (the paper's ``n``)."""
        return len(self._components)

    @property
    def components(self) -> tuple[int, ...]:
        """The components as an immutable tuple."""
        return self._components

    def __getitem__(self, pid: Pid) -> int:
        return self._components[pid]

    def __iter__(self) -> Iterator[int]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    # ------------------------------------------------------------------
    # Clock operations
    # ------------------------------------------------------------------
    def tick(self, owner: Pid) -> "VectorClock":
        """Return a copy with ``owner``'s component incremented by one.

        This is the ``vclock[i]++`` step performed after each send and
        each receive in Fig. 2.
        """
        self._check_pid(owner)
        comps = list(self._components)
        comps[owner] += 1
        return VectorClock._trusted(tuple(comps))

    def merged(self, other: "VectorClock") -> "VectorClock":
        """Componentwise maximum with ``other`` (the receive-merge step)."""
        self._check_width(other)
        return VectorClock._trusted(
            tuple(map(max, self._components, other._components))
        )

    # ------------------------------------------------------------------
    # Causal comparison
    # ------------------------------------------------------------------
    def __le__(self, other: "VectorClock") -> bool:
        self._check_width(other)
        return all(a <= b for a, b in zip(self._components, other._components))

    def __lt__(self, other: "VectorClock") -> bool:
        """Strict causal precedence: ``self <= other`` and ``self != other``."""
        self._check_width(other)
        return self <= other and self._components != other._components

    def __ge__(self, other: "VectorClock") -> bool:
        self._check_width(other)
        return other <= self

    def __gt__(self, other: "VectorClock") -> bool:
        self._check_width(other)
        return other < self

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True iff neither clock causally precedes the other (``||``)."""
        return not self < other and not other < self and self != other

    def happened_before(self, other: "VectorClock") -> bool:
        """Property 1 from the paper: ``alpha -> beta`` iff ``alpha.v < beta.v``."""
        return self < other

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        return f"VectorClock({list(self._components)!r})"

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, pids: Sequence[Pid]) -> tuple[int, ...]:
        """The components restricted to ``pids``, in order, as a tuple.

        The common full-width identity projection (a predicate over all
        ``N`` processes) short-circuits to :attr:`components` instead of
        indexing element by element.
        """
        comps = self._components
        if tuple(pids) == _iota(len(comps)):
            return comps
        return tuple(comps[p] for p in pids)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def size_words(self) -> int:
        """Message-size accounting: one machine word per component."""
        return len(self._components)

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------
    def _check_width(self, other: "VectorClock") -> None:
        if not isinstance(other, VectorClock):
            raise ClockError(f"expected VectorClock, got {type(other).__name__}")
        if other.width != self.width:
            raise ClockError(
                f"vector clock width mismatch: {self.width} vs {other.width}"
            )

    def _check_pid(self, pid: Pid) -> None:
        if not 0 <= pid < self.width:
            raise ClockError(f"pid {pid} out of range for width {self.width}")
