"""The saturating symbolic domain: {0, 1, …, k, k·N, ⊤}.

KeyCount bounds *how many* resident copies of the private key a piece
of code can create, and KeySpan (through its :class:`Ticks` subclass)
how long each one lives.  A :class:`Count` is the symbolic upper bound

    const + per_conn · N        (or ⊤)

where ``N`` is the symbolic number of connections the deployment
serves.  Constants saturate at :data:`CONST_CAP` and per-connection
coefficients at :data:`COEFF_CAP`; overflowing either widens to ⊤.
That makes the domain a finite join-semilattice, so the
interprocedural fixpoints of both layers terminate and are
order-independent:

* ``add`` — sequential composition (two sites both execute);
* ``mul`` — loop/caller multiplication (``N·N`` widens to ⊤, there is
  no ``N²`` element);
* ``join`` — control-flow merge (component-wise max);
* ``evaluate(n)`` — instantiate the symbolic bound at a concrete
  connection count (⊤ evaluates to ``None`` = unbounded).

The paper's Tables report concrete per-level copy counts; a Count is
the static analogue: the INTEGRATED deployment must evaluate to ≤ 1
allocated copy at *every* ``n``, which only ``Count(const≤1,
per_conn=0)`` satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional


@dataclass(frozen=True)
class Count:
    """A saturating symbolic copy bound ``const + per_conn·N`` (or ⊤).

    The saturation caps are class attributes so other analyses can
    subclass the domain with different headroom (KeySpan's ``Ticks``
    measures event distances, which run far larger than copy counts)
    while inheriting all the lattice algebra.
    """

    #: Saturation cap for the constant part; beyond it the analysis can
    #: no longer prove a useful bound and widens to ⊤.
    CONST_CAP: ClassVar[int] = 256
    #: Saturation cap for the per-connection coefficient.
    COEFF_CAP: ClassVar[int] = 64

    const: int = 0
    per_conn: int = 0
    top: bool = False

    def __post_init__(self) -> None:
        if self.const < 0 or self.per_conn < 0:
            raise ValueError("Count components must be non-negative")
        if self.const > type(self).CONST_CAP or self.per_conn > type(self).COEFF_CAP:
            # Saturate by widening: a blown cap means "unbounded", which
            # is sound (never smaller than the true count).
            object.__setattr__(self, "top", True)
        if self.top:
            object.__setattr__(self, "const", 0)
            object.__setattr__(self, "per_conn", 0)

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "Count":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "Count":
        return cls(1, 0)

    @classmethod
    def per_connection(cls, k: int = 1) -> "Count":
        return cls(0, k)

    @classmethod
    def unbounded(cls) -> "Count":
        return cls(top=True)

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.top and self.const == 0 and self.per_conn == 0

    def add(self, other: "Count") -> "Count":
        cls = type(self)
        if self.top or other.top:
            return cls.unbounded()
        return cls(self.const + other.const, self.per_conn + other.per_conn)

    def mul(self, other: "Count") -> "Count":
        """Multiply two bounds; ``N·N`` has no element and widens to ⊤."""
        cls = type(self)
        if self.is_zero or other.is_zero:
            return cls.zero()
        if self.top or other.top:
            return cls.unbounded()
        if self.per_conn and other.per_conn:
            return cls.unbounded()
        return cls(
            self.const * other.const,
            self.const * other.per_conn + self.per_conn * other.const,
        )

    def scale(self, k: int) -> "Count":
        return self.mul(type(self)(k, 0))

    def join(self, other: "Count") -> "Count":
        """Least upper bound (control-flow merge)."""
        cls = type(self)
        if self.top or other.top:
            return cls.unbounded()
        return cls(
            max(self.const, other.const), max(self.per_conn, other.per_conn)
        )

    def leq(self, other: "Count") -> bool:
        if other.top:
            return True
        if self.top:
            return False
        return self.const <= other.const and self.per_conn <= other.per_conn

    def covers(self, other: "Count", min_n: int = 1) -> bool:
        """``self(n) >= other(n)`` for every ``n >= min_n`` — the
        semantic order on bounds.  Two linear functions compare on the
        slope and the value at ``min_n``.  Distinct from :meth:`leq`
        (the component-wise lattice order): ``7`` covers ``6 + 20·N``
        is false, but ``6 + 20·N`` covers ``7`` for every deployment
        actually serving a connection."""
        if self.top:
            return True
        if other.top:
            return False
        return (
            other.per_conn <= self.per_conn
            and other.const + other.per_conn * min_n
            <= self.const + self.per_conn * min_n
        )

    def strictly_covers(self, other: "Count", min_n: int = 1) -> bool:
        """``self(n) > other(n)`` for every ``n >= min_n``."""
        if other.top:
            return False
        if self.top:
            return True
        return (
            other.per_conn <= self.per_conn
            and other.const + other.per_conn * min_n
            < self.const + self.per_conn * min_n
        )

    # ------------------------------------------------------------------
    def evaluate(self, n_conn: int) -> Optional[int]:
        """The concrete bound at ``N = n_conn`` (None = unbounded)."""
        if self.top:
            return None
        return self.const + self.per_conn * n_conn

    def render(self) -> str:
        if self.top:
            return "⊤"
        if self.is_zero:
            return "0"
        parts = []
        if self.const:
            parts.append(str(self.const))
        if self.per_conn:
            parts.append("N" if self.per_conn == 1 else f"{self.per_conn}·N")
        return " + ".join(parts)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "const": self.const,
            "per_conn": self.per_conn,
            "top": self.top,
            "render": self.render(),
        }


#: Module-level aliases, kept for callers that import the caps directly.
CONST_CAP = Count.CONST_CAP
COEFF_CAP = Count.COEFF_CAP
