"""Terms of the mapping language: constants, variables and labeled nulls.

Data-exchange instances mix *constants* (ordinary database values) with
*labeled nulls* (placeholders invented by the chase for existentially
quantified variables).  Dependencies additionally use *variables*.  All
three are immutable and hashable so they can live in sets, dict keys and
frozen facts.

The classes deliberately carry no behaviour beyond identity, ordering and
rendering; all logic that interprets terms (substitution, unification,
homomorphisms) lives in sibling modules.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

__all__ = [
    "Constant",
    "Variable",
    "Null",
    "Term",
    "VariableFactory",
    "NullFactory",
    "is_ground",
    "constants_in",
    "variables_in",
    "nulls_in",
]


@dataclass(frozen=True, order=True)
class Constant:
    """An ordinary database value (int, float, bool or str).

    Values of different Python types never compare equal as constants,
    mirroring typed relational attributes: ``Constant(1) != Constant("1")``.
    """

    value: Union[int, float, bool, str]

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float, bool, str)):
            raise TypeError(
                f"constant values must be int/float/bool/str, got "
                f"{type(self.value).__name__}"
            )

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass(frozen=True, order=True)
class Variable:
    """A universally or existentially quantified variable in a formula."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True)
class Null:
    """A labeled null: a chase-invented placeholder value.

    Nulls are identified by an integer id; two nulls with the same id are
    the same null.  The optional ``hint`` records the variable the null was
    invented for, which makes chase traces readable; it does not take part
    in equality.
    """

    id: int
    hint: str = ""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("Null", self.id))

    def __lt__(self, other: "Null") -> bool:
        if not isinstance(other, Null):
            return NotImplemented
        return self.id < other.id

    def __str__(self) -> str:
        if self.hint:
            return f"#N{self.id}_{self.hint}"
        return f"#N{self.id}"

    def __repr__(self) -> str:
        return f"Null({self.id}, {self.hint!r})" if self.hint else f"Null({self.id})"


Term = Union[Constant, Variable, Null]
"""Any term: constant, variable, or labeled null."""


class VariableFactory:
    """Produces fresh variables that cannot clash with a given vocabulary.

    Used by standardize-apart renaming and by the rewriter when it invents
    existential variables while unfolding view bodies.
    """

    def __init__(self, prefix: str = "v", avoid: Iterable[Variable] = ()) -> None:
        self._prefix = prefix
        self._taken = {v.name for v in avoid}
        self._counter = itertools.count()

    def avoid(self, variables: Iterable[Variable]) -> None:
        """Additionally avoid clashing with ``variables``."""
        self._taken.update(v.name for v in variables)

    def fresh(self, hint: str = "") -> Variable:
        """Return a variable whose name has never been handed out before."""
        base = hint or self._prefix
        while True:
            name = f"{base}_{next(self._counter)}"
            if name not in self._taken:
                self._taken.add(name)
                return Variable(name)


class NullFactory:
    """Thread-safe producer of globally fresh labeled nulls.

    A single factory is shared by one chase run so that every invented null
    is distinct.  Factories can be seeded past an existing instance's nulls
    with :meth:`advance_past`.
    """

    def __init__(self, start: int = 1) -> None:
        self._next = start
        self._lock = threading.Lock()

    def fresh(self, hint: str = "") -> Null:
        """Return a null with a never-used id."""
        with self._lock:
            null_id = self._next
            self._next += 1
        return Null(null_id, hint)

    @property
    def next_id(self) -> int:
        """The id the next :meth:`fresh` null gets."""
        return self._next

    def advance_past(self, nulls: Iterable[Null]) -> None:
        """Make sure future ids are larger than any id in ``nulls``."""
        with self._lock:
            for null in nulls:
                if null.id >= self._next:
                    self._next = null.id + 1


def is_ground(terms: Iterable[Term]) -> bool:
    """True when no term is a :class:`Variable` (nulls are allowed)."""
    return all(not isinstance(t, Variable) for t in terms)


def constants_in(terms: Iterable[Term]) -> Iterator[Constant]:
    """Yield the constants occurring in ``terms`` (with repetition)."""
    for term in terms:
        if isinstance(term, Constant):
            yield term


def variables_in(terms: Iterable[Term]) -> Iterator[Variable]:
    """Yield the variables occurring in ``terms`` (with repetition)."""
    for term in terms:
        if isinstance(term, Variable):
            yield term


def nulls_in(terms: Iterable[Term]) -> Iterator[Null]:
    """Yield the labeled nulls occurring in ``terms`` (with repetition)."""
    for term in terms:
        if isinstance(term, Null):
            yield term
