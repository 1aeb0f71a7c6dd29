"""Exception types shared across the package, the one range check on inputs, and
:class:`Record`, the base of the package's immutable value types."""

import math

__all__ = ["MAX_ROWS", "ChainError", "DomainError", "NoCrossingError", "NumericError", "Record",
           "check", "steps"]

#: Most rows a grid export may have: 8x the 0.5 x 1 degree emission grid.
MAX_ROWS = 2**20


class DomainError(ValueError):
    """An input violates a documented physical or numerical precondition."""


class ChainError(DomainError):
    """Stages in a conversion chain do not connect (wavelength mismatch)."""


class NoCrossingError(DomainError):
    """The raw fiber never loses to the converted one, so no crossover distance exists."""


class NumericError(RuntimeError):
    """A linear solve or other numerical step failed on malformed input."""


def check(name: str, value: float, lo: float = 0.0, hi: float = math.inf, *,
          open_lo: bool = False) -> float:
    """``value`` if it is finite and lies in [lo, hi] ((lo, hi] when ``open_lo``).

    NaN and +-inf always fail.  The DomainError names ``name`` and the value.
    """
    if not (math.isfinite(value) and (lo < value if open_lo else lo <= value) and value <= hi):
        raise DomainError(
            f"{name} out of range: {value} (must be finite and lie in "
            f"{'(' if open_lo else '['}{lo:g}, {hi:g}{')' if hi == math.inf else ']'})"
        )
    return value


def steps(name: str, step: float, span: float, hi: float = math.inf) -> int:
    """Whole grid steps in ``span`` for a step in (0, hi], at most :data:`MAX_ROWS`; a
    ``span / step`` within 1e-9 below a whole number counts as it, so the span's end is kept."""
    n = span / check(name, step, 0.0, hi, open_lo=True)
    if not n < MAX_ROWS:
        raise DomainError(f"{name} {step} is too small: the grid would exceed {MAX_ROWS} rows")
    return int(math.floor(n + 1e-9))


class Record:
    """Base of the package's immutable records; the fields are the subclass's annotations.

    A subclass gets an ``__init__`` taking the fields by position or keyword, in
    order, with the class-body values as defaults; it sets them and calls
    ``__post_init__`` (the subclass's checks) once.  A record equals only a record
    of its own class with equal fields, hashes as the tuple of its fields, and
    refuses to have an attribute assigned or deleted; ``__post_init__`` may still
    replace a field through ``object.__setattr__``.  The standard library's
    frozen data classes behave so too, but their module loads ``inspect``,
    ``ast`` and ``dis``: ~10 ms of every command's start-up.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in fields)
        values = ", ".join(f"{n!r}: {n}" for n in fields)
        # one generated function, as namedtuple builds its own: a real signature,
        # so a missing or unknown argument is Python's own TypeError
        namespace = {"_defaults": defaults, "_set": object.__setattr__}
        exec(f"def __init__(self{params}):\n"
             f"    _set(self, '__dict__', {{{values}}})\n"
             f"    self.__post_init__()\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self) -> None:
        """Checks the fields; a record without checks inherits this no-op."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
