"""Persistent knowledge base: a space plus named concepts in one JSON file.

The file layout is versioned and deterministic (sorted keys, shortest
round-trip floats), so repeated saves of the same knowledge base are
byte-identical.  Unbounded cuboid sides are stored as explicit ``null``
markers.  A save replaces the file atomically, so a crash leaves either the
old or the new file whole, and then flushes the directory where the
platform can open one, so a save that returned survives a power loss.
Writing uses last-writer-wins semantics; there is no cross-process locking.

Top-level layout::

    {
      "format_version": 1,
      "space": {"domains": [{"name": ..., "dimensions": [...]}, ...]},
      "defaults": {"s": ..., "t": ..., "threshold": ..., "tolerance": ...},
      "concepts": {
        "<name>": {
          "cuboids": [{"domains": [...],
                       "p_min": {"<dim>": number | null, ...},
                       "p_max": {...}}],
          "mu0": number, "c": number,
          "weights": {"domains": {...}, "dimensions": {...}}
        }
      }
    }

``mu0`` and ``c`` are the stored names of a concept's peak membership and
decay rate.

Cuboid entries decode to a core's rows (a domain set and full-length
bounds, ``-inf``/``+inf`` off the entry's domains); decoding checks only the
entries' format, and ``Core._from_rows`` checks the rows once per concept.
Encoding writes from the same rows, so neither way builds a ``Cuboid``.
"""

from __future__ import annotations

import json
import math
import os
import stat
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .concept import CombinationParams, Concept
from .errors import KbFormatError, UnknownNameError, ValidationError
from .geometry import Core
from .space import Space, Weights

FORMAT_VERSION = 1
SUPPORTED_VERSIONS = frozenset({1})


@dataclass(frozen=True)
class Defaults:
    """Knowledge-base-wide defaults for combination operations.

    ``tolerance`` is kept so that every format-1 file loads and saves
    byte-identically; no operation reads it any more.
    """

    s: float = 0.5
    t: float = 0.5
    threshold: float = 0.5
    tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("s", "t"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"default {name} must lie in [0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError("default threshold must lie in [0, 1]")
        if not self.tolerance > 0:
            raise ValidationError("default tolerance must be positive")

    @property
    def combination(self) -> CombinationParams:
        return CombinationParams(self.s, self.t)


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable space-plus-concepts container; updates return new values."""

    space: Space
    concepts: Mapping[str, Concept] = field(default_factory=dict)
    defaults: Defaults = field(default_factory=Defaults)
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        object.__setattr__(self, "concepts", dict(self.concepts))
        if self.format_version not in SUPPORTED_VERSIONS:
            raise ValidationError(
                f"unsupported format version {self.format_version}")
        for name, concept in self.concepts.items():
            if not name or not isinstance(name, str):
                raise ValidationError("concept names must be non-empty strings")
            if concept.space != self.space:
                raise ValidationError(
                    f"concept {name!r} belongs to a different space")

    def add_concept(self, name: str, concept: Concept) -> "KnowledgeBase":
        if not name:
            raise ValidationError("concept names must be non-empty")
        if name in self.concepts:
            raise ValidationError(f"concept {name!r} already exists")
        return KnowledgeBase(self.space, {**self.concepts, name: concept},
                             self.defaults, self.format_version)

    def get_concept(self, name: str) -> Concept:
        try:
            return self.concepts[name]
        except KeyError:
            raise UnknownNameError(f"no concept named {name!r}") from None

    def remove_concept(self, name: str) -> "KnowledgeBase":
        if name not in self.concepts:
            raise UnknownNameError(f"no concept named {name!r}")
        remaining = {k: v for k, v in self.concepts.items() if k != name}
        return KnowledgeBase(self.space, remaining, self.defaults,
                             self.format_version)

    def save(self, path: str | Path) -> None:
        """Write the knowledge base deterministically to ``path``.

        The text goes to a temporary file in the same directory, which is
        flushed to disk and then renamed over ``path``; a save that fails or
        is interrupted leaves the previous file as it was.  Where the
        platform can open a directory, the directory is flushed after the
        rename, so a finished save survives a power loss.  An existing
        file's permission bits carry over to the new one.
        """
        payload = kb_to_dict(self)
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        target = Path(path).resolve()
        tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(text + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            if target.exists():
                os.chmod(tmp, stat.S_IMODE(target.stat().st_mode))
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if hasattr(os, "O_DIRECTORY"):
            # the rename is durable once the directory entry is on disk
            fd = os.open(target.parent, os.O_RDONLY | os.O_DIRECTORY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    @classmethod
    def load(cls, path: str | Path,
             auto_normalize: bool = False) -> "KnowledgeBase":
        """Parse and fully validate a knowledge base file.

        With ``auto_normalize`` set, weights whose sums are off are rescaled
        to exact normalization; a warning names every rescaled concept.
        """
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise KbFormatError(f"cannot read {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise KbFormatError(
                f"{path}: parse error at line {exc.lineno}, column "
                f"{exc.colno}: {exc.msg}") from exc
        return kb_from_dict(data, auto_normalize=auto_normalize)


def _expect_mapping(data: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise KbFormatError(f"{path}: expected an object")
    return data


def _expect_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KbFormatError(f"{path}: expected a number")
    if not math.isfinite(value):
        raise KbFormatError(f"{path}: expected a finite number")
    return float(value)


def space_to_dict(space: Space) -> dict:
    return {"domains": [{"name": name, "dimensions": list(dims)}
                        for name, dims in space.domains]}


def space_from_dict(data: Any, path: str = "space") -> Space:
    data = _expect_mapping(data, path)
    domains = data.get("domains")
    if not isinstance(domains, list) or not domains:
        raise KbFormatError(f"{path}.domains: expected a non-empty list")
    pairs = []
    for i, entry in enumerate(domains):
        entry = _expect_mapping(entry, f"{path}.domains[{i}]")
        name = entry.get("name")
        dims = entry.get("dimensions")
        if not isinstance(name, str) or not name:
            raise KbFormatError(f"{path}.domains[{i}].name: expected a name")
        if (not isinstance(dims, list) or not dims
                or not all(isinstance(d, str) and d for d in dims)):
            raise KbFormatError(
                f"{path}.domains[{i}].dimensions: expected dimension names")
        pairs.append((name, tuple(dims)))
    try:
        return Space(tuple(pairs))
    except ValidationError as exc:
        raise KbFormatError(f"{path}: {exc}") from exc


def weights_to_dict(weights: Weights) -> dict:
    dims = {d: w for sub in weights.dimension_weights.values()
            for d, w in sub.items()}
    return {"domains": dict(weights.domain_weights), "dimensions": dims}


def weights_from_dict(space: Space, data: Any, path: str,
                      auto_normalize: bool = False) -> Weights:
    data = _expect_mapping(data, path)
    raw_domains = _expect_mapping(data.get("domains"), f"{path}.domains")
    raw_dims = _expect_mapping(data.get("dimensions"), f"{path}.dimensions")
    dw = {}
    for name, value in raw_domains.items():
        if name not in space.domain_names:
            raise KbFormatError(f"{path}.domains: unknown domain {name!r}")
        dw[name] = _expect_number(value, f"{path}.domains.{name}")
    dimw: dict[str, dict[str, float]] = {name: {} for name in dw}
    for dim, value in raw_dims.items():
        if dim not in space.dim_names:
            raise KbFormatError(f"{path}.dimensions: unknown dimension {dim!r}")
        domain = space.domain_of(dim)
        if domain not in dimw:
            raise KbFormatError(
                f"{path}.dimensions: dimension {dim!r} belongs to domain "
                f"{domain!r}, which has no domain weight")
        dimw[domain][dim] = _expect_number(value, f"{path}.dimensions.{dim}")
    for name in dw:
        missing = [d for d in space.dims_of(name) if d not in dimw[name]]
        if missing:
            raise KbFormatError(
                f"{path}.dimensions: missing weights for {missing}")
    try:
        return Weights(dw, dimw)
    except ValidationError as exc:
        if not auto_normalize:
            raise KbFormatError(f"{path}: {exc}") from exc
        normalized = Weights.normalized(dw, dimw)
        warnings.warn(f"{path}: weights rescaled to exact normalization",
                      stacklevel=2)
        return normalized


def _rows_from_dict(space: Space, data: Any, path: str
                    ) -> tuple[frozenset[str], list[float], list[float]]:
    """One cuboid entry as its domain set and its two bound rows."""
    data = _expect_mapping(data, path)
    raw_domains = data.get("domains")
    if (not isinstance(raw_domains, list) or not raw_domains
            or not all(isinstance(d, str) for d in raw_domains)):
        raise KbFormatError(f"{path}.domains: expected a list of domain names")
    for name in raw_domains:
        if name not in space.domain_names:
            raise KbFormatError(f"{path}.domains: unknown domain {name!r}")
    domains = frozenset(raw_domains)
    owned = space._owned(domains)
    index = space._dim_index
    rows = []
    for key, side, fill in (("p_min", "lower", -math.inf),
                            ("p_max", "upper", math.inf)):
        raw = _expect_mapping(data.get(key), f"{path}.{key}")
        row = [fill] * space.n
        for dim, value in raw.items():
            i = index.get(dim)
            if i is None:
                raise KbFormatError(f"{path}.{key}: unknown dimension {dim!r}")
            if value is None:
                if owned[i]:
                    raise KbFormatError(
                        f"{path}.{key}: dimension {dim!r} is covered by the "
                        f"cuboid's domains and needs a finite bound")
                continue
            if not owned[i]:
                raise KbFormatError(
                    f"{path}.{key}: dimension {dim!r} lies outside the "
                    f"cuboid's domains and must be null or absent")
            row[i] = _expect_number(value, f"{path}.{key}.{dim}")
        # numbers are finite, so an owned dimension still at ``fill`` has none
        missing = [d for d, own, v in zip(space.dim_names, owned, row)
                   if own and v == fill]
        if missing:
            raise KbFormatError(f"{path}: missing {side} bound for {missing}")
        rows.append(row)
    return domains, rows[0], rows[1]


def concept_to_dict(concept: Concept) -> dict:
    core, space = concept.core, concept.space
    dims = [(i, d) for i, (d, own) in enumerate(
        zip(space.dim_names, space._owned(core.domain_set))) if own]
    cuboids = []
    for domains, lo, hi in zip(core.domains, core.lo.tolist(),
                               core.hi.tolist()):
        own = space._owned(domains)
        cuboids.append({"domains": sorted(domains),
                        "p_min": {d: lo[i] if own[i] else None for i, d in dims},
                        "p_max": {d: hi[i] if own[i] else None for i, d in dims}})
    return {
        "cuboids": cuboids,
        "mu0": concept.peak,
        "c": concept.decay,
        "weights": weights_to_dict(concept.weights),
    }


def concept_from_dict(space: Space, data: Any, path: str = "concept",
                      auto_normalize: bool = False) -> Concept:
    data = _expect_mapping(data, path)
    raw_cuboids = data.get("cuboids")
    if not isinstance(raw_cuboids, list) or not raw_cuboids:
        raise KbFormatError(f"{path}.cuboids: expected a non-empty list")
    domains, lo, hi = zip(*(_rows_from_dict(space, entry,
                                            f"{path}.cuboids[{i}]")
                            for i, entry in enumerate(raw_cuboids)))
    peak = _expect_number(data.get("mu0"), f"{path}.mu0")
    decay = _expect_number(data.get("c"), f"{path}.c")
    weights = weights_from_dict(space, data.get("weights"), f"{path}.weights",
                                auto_normalize=auto_normalize)
    try:
        return Concept(Core._from_rows(space, domains, np.array(lo),
                                       np.array(hi)), peak, decay, weights)
    except ValidationError as exc:
        raise KbFormatError(f"{path}: {exc}") from exc


def kb_to_dict(kb: KnowledgeBase) -> dict:
    return {
        "format_version": kb.format_version,
        "space": space_to_dict(kb.space),
        "defaults": {
            "s": kb.defaults.s,
            "t": kb.defaults.t,
            "threshold": kb.defaults.threshold,
            "tolerance": kb.defaults.tolerance,
        },
        "concepts": {name: concept_to_dict(c)
                     for name, c in kb.concepts.items()},
    }


def kb_from_dict(data: Any, auto_normalize: bool = False) -> KnowledgeBase:
    data = _expect_mapping(data, "$")
    version = data.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise KbFormatError("format_version: expected an integer")
    if version not in SUPPORTED_VERSIONS:
        raise KbFormatError(
            f"format_version: version {version} is not supported "
            f"(supported: {sorted(SUPPORTED_VERSIONS)})")
    space = space_from_dict(data.get("space"))

    raw_defaults = data.get("defaults", {})
    raw_defaults = _expect_mapping(raw_defaults, "defaults")
    kwargs = {}
    for key in ("s", "t", "threshold", "tolerance"):
        if key in raw_defaults:
            kwargs[key] = _expect_number(raw_defaults[key], f"defaults.{key}")
    try:
        defaults = Defaults(**kwargs)
    except ValidationError as exc:
        raise KbFormatError(f"defaults: {exc}") from exc

    raw_concepts = data.get("concepts", {})
    raw_concepts = _expect_mapping(raw_concepts, "concepts")
    concepts = {}
    for name, entry in raw_concepts.items():
        if not isinstance(name, str) or not name:
            raise KbFormatError("concepts: names must be non-empty strings")
        concepts[name] = concept_from_dict(
            space, entry, f"concepts.{name}", auto_normalize=auto_normalize)
    return KnowledgeBase(space, concepts, defaults, version)
