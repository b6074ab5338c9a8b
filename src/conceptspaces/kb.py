"""Persistent knowledge base: a space plus named concepts in one JSON file.

The file layout is versioned and deterministic (sorted names and keys,
shortest round-trip floats), so repeated saves of the same knowledge base are
byte-identical.  Unbounded cuboid sides are stored as explicit ``null``
markers.  A save replaces the file atomically, so a crash leaves either the
old or the new file whole, and then flushes the directory where the
platform can open one, so a save that returned survives a power loss.
There is no cross-process locking, but a save to the file a knowledge base
was loaded from fails if another writer changed that file in the meantime.

Layout: one header line, then one line per concept, sorted by name, each
object's keys sorted::

    {"defaults": {"s": ..., "t": ..., "threshold": ...}, "format_version": 1, \\
"space": {"domains": [{"dimensions": [...], "name": ...}, ...]},
    "concepts": {
    "<name>": {"c": number, "cuboids": [{"domains": [...], "p_max": {...}, \\
"p_min": {"<dim>": number | null, ...}}], "mu0": number, \\
"weights": {"dimensions": {...}, "domains": {...}}},
    ...
    }}

(``\\`` marks where a line of the file is wrapped here.)  The whole file is
one JSON document, so files with any other whitespace, such as the earlier
``indent=2`` layout, load the same, and their next save rewrites them in
this layout.  ``mu0`` and ``c`` are the stored names of a concept's peak
membership and decay rate.  A ``defaults.tolerance`` key, which earlier
versions wrote, is read and ignored.

``load`` checks the version, the space, the defaults and the concept names;
a concept entry decodes when the concept is first used.  So a malformed
concept raises ``KbFormatError`` when it is read (``get_concept``, the
values or items of ``concepts``, ``==``), not at load, and an entry that is
never read is written back by ``save`` exactly as it was parsed, unknown
keys and integer bounds included.  ``load(auto_normalize=True)`` decodes
every concept at once.  ``cspaces validate`` reads every concept.

Cuboid entries decode to a core's rows (a domain set and full-length
bounds, ``-inf``/``+inf`` off the entry's domains); decoding checks only the
entries' format, and ``Core._from_rows`` checks the rows once per concept.
Weights are checked against the space, as ``Concept`` checks them, before
their sums.  Encoding writes from the same rows, a core's only state even
when it was built from ``Cuboid`` objects, so neither way builds a
``Cuboid``.
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

from .concept import Concept, _check_unit
from .errors import KbFormatError, UnknownNameError, ValidationError
from .geometry import Core
from .space import Space, Weights, _check_weights_fit

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Defaults:
    """Knowledge-base-wide defaults for combination operations."""

    s: float = 0.5
    t: float = 0.5
    threshold: float = 0.5

    def __post_init__(self):
        for name in ("s", "t", "threshold"):
            _check_unit(f"default {name}", getattr(self, name))


class _Concepts(Mapping):
    """Concepts by name; an entry parsed from a file decodes on first read.

    ``entries`` maps each name to a ``Concept`` or to its parsed entry; a
    read replaces the entry with its decoded concept.
    """

    def __init__(self, space: Space, entries: dict[str, Any]):
        self._space = space
        self._entries = entries

    def __getitem__(self, name: str) -> Concept:
        entry = self._entries[name]
        if not isinstance(entry, Concept):
            entry = self._entries[name] = concept_from_dict(
                self._space, entry, f"concepts.{name}")
        return entry

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:   # names only, so that it decodes nothing
        return f"<concepts {list(self._entries)!r}>"


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable space-plus-concepts container; updates return new values."""

    space: Space
    concepts: Mapping[str, Concept] = field(default_factory=dict)
    defaults: Defaults = field(default_factory=Defaults)
    # the resolved path and the bytes ``load`` read, carried by every update
    _source: tuple[Path, bytes] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        concepts = self.concepts
        if not (isinstance(concepts, _Concepts)
                and concepts._space == self.space):
            concepts = dict(concepts)
            for name, concept in concepts.items():
                _check_concept(self.space, name, concept)
            object.__setattr__(self, "concepts",
                               _Concepts(self.space, concepts))

    def _with(self, entries: dict[str, Any]) -> "KnowledgeBase":
        kb = KnowledgeBase(self.space, _Concepts(self.space, entries),
                           self.defaults)
        object.__setattr__(kb, "_source", self._source)
        return kb

    def add_concept(self, name: str, concept: Concept) -> "KnowledgeBase":
        if name in self.concepts:
            raise ValidationError(f"concept {name!r} already exists")
        _check_concept(self.space, name, concept)
        return self._with({**self.concepts._entries, name: concept})

    def get_concept(self, name: str) -> Concept:
        try:
            return self.concepts[name]
        except KeyError:
            raise UnknownNameError(f"no concept named {name!r}") from None

    def remove_concept(self, name: str) -> "KnowledgeBase":
        if name not in self.concepts:
            raise UnknownNameError(f"no concept named {name!r}")
        return self._with({k: v for k, v in self.concepts._entries.items()
                           if k != name})

    def save(self, path: str | Path) -> None:
        """Write the knowledge base deterministically to ``path``.

        Every line goes through json's C encoder: concepts that were read
        through ``concept_to_dict``, entries never read as they were parsed.
        The text goes to a temporary file in the same directory, which is
        flushed to disk and then renamed over ``path``; a save that fails or
        is interrupted leaves the previous file as it was.  Where the
        platform can open a directory, the directory is flushed after the
        rename, so a finished save survives a power loss.  An existing
        file's permission bits carry over to the new one.

        When ``path`` is the file this knowledge base was loaded from, its
        bytes are compared with those ``load`` read just before the rename;
        if another writer changed or removed it, ``KbFormatError`` is raised
        and the file is left as that writer left it.  A write that lands
        between the compare and the rename is still lost.
        """
        encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
        d = self.defaults
        head = encode({"format_version": FORMAT_VERSION,
                       "space": space_to_dict(self.space),
                       "defaults": {"s": d.s, "t": d.t,
                                    "threshold": d.threshold}})
        lines = [f"\n{encode(name)}: " + encode(
            concept_to_dict(entry) if isinstance(entry, Concept) else entry)
            for name, entry in sorted(self.concepts._entries.items())]
        text = head[:-1] + ',\n"concepts": {' + ",".join(lines) + "\n}}\n"
        target = Path(path).resolve()
        loaded_here = self._source is not None and self._source[0] == target
        tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            if target.exists():
                os.chmod(tmp, stat.S_IMODE(target.stat().st_mode))
            if loaded_here and (not target.exists()
                                or target.read_bytes() != self._source[1]):
                raise KbFormatError(
                    f"{target} changed on disk since it was loaded; not saved")
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if loaded_here:
            # a second save of this value compares with what the first wrote
            object.__setattr__(self, "_source", (target, text.encode("utf-8")))
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
        """Parse a knowledge base file and check everything but its concepts.

        Each concept entry is decoded, and checked, when it is first read.
        With ``auto_normalize`` set, every concept is decoded here, and
        weights whose sums are off are rescaled to exact normalization; a
        warning names every rescaled concept.
        """
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise KbFormatError(f"cannot read {path}: {exc}") from exc
        try:
            data = json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise KbFormatError(
                f"{path}: parse error at line {exc.lineno}, column "
                f"{exc.colno}: {exc.msg}") from exc
        kb = kb_from_dict(data, auto_normalize=auto_normalize)
        object.__setattr__(kb, "_source", (Path(path).resolve(), raw))
        return kb


def _check_concept(space: Space, name: Any, concept: Concept) -> None:
    if not name or not isinstance(name, str):
        raise ValidationError("concept names must be non-empty strings")
    if concept.space != space:
        raise ValidationError(f"concept {name!r} belongs to a different space")


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


def space_from_dict(data: Any) -> Space:
    data = _expect_mapping(data, "space")
    domains = data.get("domains")
    if not isinstance(domains, list) or not domains:
        raise KbFormatError("space.domains: expected a non-empty list")
    pairs = []
    for i, entry in enumerate(domains):
        entry = _expect_mapping(entry, f"space.domains[{i}]")
        name = entry.get("name")
        dims = entry.get("dimensions")
        if not isinstance(name, str) or not name:
            raise KbFormatError(f"space.domains[{i}].name: expected a name")
        if (not isinstance(dims, list) or not dims
                or not all(isinstance(d, str) and d for d in dims)):
            raise KbFormatError(
                f"space.domains[{i}].dimensions: expected dimension names")
        pairs.append((name, tuple(dims)))
    try:
        return Space(tuple(pairs))
    except ValidationError as exc:
        raise KbFormatError(f"space: {exc}") from exc


def weights_to_dict(weights: Weights) -> dict:
    dims = {d: w for sub in weights.dimension_weights.values()
            for d, w in sub.items()}
    return {"domains": dict(weights.domain_weights), "dimensions": dims}


def weights_from_dict(space: Space, data: Any, path: str,
                      auto_normalize: bool = False) -> Weights:
    data = _expect_mapping(data, path)
    raw_domains = _expect_mapping(data.get("domains"), f"{path}.domains")
    raw_dims = _expect_mapping(data.get("dimensions"), f"{path}.dimensions")
    dw = {name: _expect_number(value, f"{path}.domains.{name}")
          for name, value in raw_domains.items()}
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
    # the fit first, so that a missing weight is neither a sum nor rescaled
    try:
        _check_weights_fit(space, dimw)
        try:
            return Weights(dw, dimw)
        except ValidationError:
            if not auto_normalize:
                raise
        normalized = Weights.normalized(dw, dimw)
    except ValidationError as exc:
        raise KbFormatError(f"{path}: {exc}") from exc
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


def kb_from_dict(data: Any, auto_normalize: bool = False) -> KnowledgeBase:
    """A knowledge base whose concepts decode when first read, or at once
    with ``auto_normalize``."""
    data = _expect_mapping(data, "$")
    version = data.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise KbFormatError("format_version: expected an integer")
    if version != FORMAT_VERSION:
        raise KbFormatError(
            f"format_version: version {version} is not supported "
            f"(supported: [{FORMAT_VERSION}])")
    space = space_from_dict(data.get("space"))

    raw_defaults = data.get("defaults", {})
    raw_defaults = _expect_mapping(raw_defaults, "defaults")
    kwargs = {}
    for key in ("s", "t", "threshold"):
        if key in raw_defaults:
            kwargs[key] = _expect_number(raw_defaults[key], f"defaults.{key}")
    try:
        defaults = Defaults(**kwargs)
    except ValidationError as exc:
        raise KbFormatError(f"defaults: {exc}") from exc

    raw_concepts = data.get("concepts", {})
    raw_concepts = _expect_mapping(raw_concepts, "concepts")
    entries = dict(raw_concepts)
    for name, entry in entries.items():
        if not isinstance(name, str) or not name:
            raise KbFormatError("concepts: names must be non-empty strings")
        if auto_normalize:
            entries[name] = concept_from_dict(
                space, entry, f"concepts.{name}", auto_normalize=True)
    return KnowledgeBase(space, _Concepts(space, entries), defaults)
