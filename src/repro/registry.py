"""One name -> factory registry for systems, scenarios, wrappers and studies.

Every pluggable family of the package is a :class:`Registry` instance:
training systems (:mod:`repro.sim.systems`), routing scenarios and scenario
wrappers (:mod:`repro.workloads.scenarios`) and study definitions
(:mod:`repro.study.registry`).  A decorator registers a factory under a
case-insensitive name together with bound default parameters; lookups of
unknown names raise ``ValueError`` listing the registered ones; parameter
typos are rejected against the factory's signature, which each
:class:`RegistryEntry` reads once, when it is created.

Each module binds its public names to the methods of one instance::

    SCENARIOS = Registry("scenario", skip=1)
    register_scenario = SCENARIOS.register
    registered_scenario = SCENARIOS.get
    available_scenarios = SCENARIOS.names
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

F = TypeVar("F", bound=Callable[..., Any])

_KEYWORD_KINDS = (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                  inspect.Parameter.KEYWORD_ONLY)
_EMPTY = inspect.Parameter.empty


@dataclass(frozen=True)
class RegistryEntry:
    """One registered factory plus its bound default parameters.

    Attributes:
        kind: What the registry holds (``"system"``, ``"scenario"``, ...);
            names the entry in error messages.
        name: Lower-case registry name.
        factory: Callable invoked by :meth:`build`.
        params: Default keyword parameters bound to the factory; every build
            may override them.
        description: One-line human-readable summary.
        skip: Number of leading positional arguments the caller supplies
            (``ctx`` for systems and scenarios, ``inner, ctx`` for scenario
            wrappers, none for studies); they are not parameters.
        parameters: The factory's keyword-capable parameters after ``skip``.
        accepted: Their names, or ``None`` when the factory takes
            ``**kwargs``.
        required: Parameters with neither a signature default nor a bound
            one; every build must supply them.
    """

    kind: str
    name: str
    factory: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""
    skip: int = 0
    parameters: Tuple[inspect.Parameter, ...] = field(
        init=False, repr=False, compare=False)
    accepted: Optional[FrozenSet[str]] = field(
        init=False, repr=False, compare=False)
    required: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        signature = list(
            inspect.signature(self.factory).parameters.values())[self.skip:]
        parameters = tuple(p for p in signature if p.kind in _KEYWORD_KINDS)
        takes_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD
                           for p in signature)
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "accepted", None if takes_kwargs
                           else frozenset(p.name for p in parameters))
        object.__setattr__(self, "required", frozenset(
            p.name for p in parameters
            if p.default is _EMPTY and p.name not in self.params))

    def check_params(self, params: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` for parameters the factory does not accept."""
        if self.accepted is None:
            return
        unknown = sorted(set(params) - self.accepted)
        if unknown:
            raise ValueError(
                f"{self.kind} {self.name!r} does not accept parameter(s) "
                f"{unknown}; accepted: {sorted(self.accepted)}")

    def build(self, *args: Any, **overrides: Any) -> Any:
        """Call the factory with ``args``, the bound parameters and overrides."""
        merged = {**self.params, **overrides}
        self.check_params(merged)
        missing = sorted(self.required - set(overrides))
        if missing:
            raise ValueError(
                f"{self.kind} {self.name!r} requires parameter(s) {missing}")
        return self.factory(*args, **merged)

    def param_details(self) -> List[Dict[str, str]]:
        """Per-parameter ``{"param", "type", "default"}`` rows.

        Bound parameters win over the signature's own defaults; parameters
        with neither are shown as ``(required)``.  Factory modules use
        ``from __future__ import annotations``, so annotations are already
        strings; un-annotated parameters fall back to the default value's
        type name.
        """
        rows: List[Dict[str, str]] = []
        for p in self.parameters:
            if p.name in self.params:
                default = repr(self.params[p.name])
            elif p.default is not _EMPTY:
                default = repr(p.default)
            else:
                default = "(required)"
            if p.annotation is not _EMPTY:
                annotation = str(p.annotation)
            elif p.default is not _EMPTY:
                annotation = type(p.default).__name__
            else:
                annotation = ""
            rows.append({"param": p.name, "type": annotation,
                         "default": default})
        return rows


class Registry:
    """Case-insensitive, registration-ordered map of :class:`RegistryEntry`.

    Registration order fixes the order of :meth:`names` and
    :meth:`descriptions`, and so of every listing and sweep built on them.

    Args:
        kind: What the registry holds; names entries in error messages.
        skip: Leading positional arguments every factory receives from its
            caller (see :attr:`RegistryEntry.skip`).
    """

    def __init__(self, kind: str, skip: int = 0) -> None:
        self.kind = kind
        self.skip = skip
        self._entries: Dict[str, RegistryEntry] = {}

    def register(self, name: str, *, description: str = "",
                 override: bool = False,
                 **params: Any) -> Callable[[F], F]:
        """Decorator registering a factory under ``name``.

        Args:
            name: Registry name (case-insensitive at lookup time).
            description: One-line human-readable summary.
            override: Allow replacing an existing entry (default: duplicate
                names raise ``ValueError``).
            **params: Default keyword parameters bound to the factory;
                builds may override them, and :meth:`register_variant`
                derives new entries from them.

        Returns:
            The decorator; it returns the factory unchanged, so one factory
            can be registered under several names.
        """
        def decorator(factory: F) -> F:
            self._add(RegistryEntry(self.kind, name.lower(), factory, params,
                                    description, self.skip), override)
            return factory
        return decorator

    def register_variant(self, name: str, base: str, *, description: str = "",
                         override: bool = False,
                         **params: Any) -> RegistryEntry:
        """Register ``name`` as a parameterized variant of the ``base`` entry.

        The new entry reuses ``base``'s factory with ``params`` merged over
        ``base``'s defaults -- this is how the LAER ablations are expressed.
        """
        parent = self.get(base)
        entry = RegistryEntry(self.kind, name.lower(), parent.factory,
                              {**parent.params, **params},
                              description or parent.description, self.skip)
        self._add(entry, override)
        return entry

    def _add(self, entry: RegistryEntry, override: bool) -> None:
        if not override and entry.name in self._entries:
            raise ValueError(
                f"{self.kind} {entry.name!r} is already registered; pass "
                f"override=True to replace it")
        entry.check_params(entry.params)
        self._entries[entry.name] = entry

    def unregister(self, name: str) -> None:
        """Remove an entry if present (mainly for tests and interactive use)."""
        self._entries.pop(name.lower(), None)

    def get(self, name: str) -> RegistryEntry:
        """Look up an entry, raising ``ValueError`` for unknown names."""
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._entries)

    def descriptions(self) -> Dict[str, str]:
        """Registered names mapped to their one-line descriptions."""
        return {name: entry.description
                for name, entry in self._entries.items()}
