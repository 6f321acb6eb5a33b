"""Spec fields as data: each field declares its whole contract once.

Every public spec (:class:`~repro.index.IndexConfig`, the
:mod:`repro.api` specs, :class:`~repro.synth.ScenarioSpec`) is a frozen
dataclass whose fields are declared with :func:`spec_field`. The
declaration carries everything the field needs, and :class:`Spec`
derives the rest:

* **default** and **check** — a ``(predicate, message)`` pair run at
  construction; ``None`` skips the check when ``None`` is the default.
* **convert** — canonicalization at construction (aliases, tuples).
* **dict form** — the dict key is the field name; nested specs
  serialize through their own ``to_dict``, and ``decode`` rebuilds a
  non-``None`` value in ``from_dict``.
* **fingerprint rule** — :data:`ALWAYS`, :data:`NON_DEFAULT` (joins
  only when off its default, so specs written before the field existed
  keep their digests), :data:`NEVER`, or a predicate on the value.
  ``canon`` gives the value's canonical form; ``group=(key, member)``
  folds fields into one sub-dict that joins whole once any member is
  off its default.
* **flag** — for CLI knobs, the option name (``True`` = derived from
  the field name) plus ``help``/``metavar``/``choices``; ``repro.cli``
  takes type and action from the annotation and the default from the
  field.

This module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, field, fields
from typing import Any, ClassVar

ALWAYS = "always"
NON_DEFAULT = "non_default"
NEVER = "never"

AT_LEAST_0 = (lambda v: v >= 0, "{name} must be >= 0")
AT_LEAST_1 = (lambda v: v >= 1, "{name} must be >= 1")
POSITIVE = (lambda v: v > 0, "{name} must be positive")


def spec_field(default: Any = MISSING, **meta: Any) -> Any:
    """A dataclass field whose metadata is its declaration (see module)."""
    return field(default=default, metadata=meta)


class Spec:
    """Shared construction, dict round-trip and fingerprint for specs."""

    #: The ``"spec"`` tag of the fingerprint payload.
    SPEC_NAME: ClassVar[str] = ""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            convert = f.metadata.get("convert")
            if convert is not None:
                value = convert(value)
                object.__setattr__(self, f.name, value)
            check = f.metadata.get("check")
            if check is None or (value is None and f.default is None):
                continue
            predicate, message = check
            if not predicate(value):
                raise ValueError(message.format(name=f.name, value=value))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            encode = f.metadata.get("encode")
            if encode is not None:
                value = encode(value)
            elif isinstance(value, Spec):
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict):
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"{cls.__name__}.from_dict: unknown keys {unknown}; "
                f"known keys: {sorted(known)}"
            )
        data = dict(data)
        for f in fields(cls):
            decode = f.metadata.get("decode")
            if decode is not None and data.get(f.name) is not None:
                data[f.name] = decode(data[f.name])
        return cls(**data)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of the fingerprinted fields."""
        payload: dict = {"spec": self.SPEC_NAME}
        groups: dict[str, tuple[dict, bool]] = {}
        for f in fields(self):
            rule = f.metadata.get("fingerprint", ALWAYS)
            value = getattr(self, f.name)
            if "group" in f.metadata:
                group, member = f.metadata["group"]
                members, changed = groups.get(group, ({}, False))
                members[member] = value
                groups[group] = (members, changed or value != f.default)
                continue
            if (
                rule == NEVER
                or (rule == NON_DEFAULT and value == f.default)
                or (callable(rule) and not rule(value))
            ):
                continue
            canon = f.metadata.get("canon")
            payload[f.name] = canon(value) if canon is not None else value
        for group, (members, changed) in groups.items():
            if changed:
                payload[group] = members
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
