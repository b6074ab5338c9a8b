"""Command-line front end.

Every operation of the library is reachable as a subcommand over a JSON
knowledge base file, plus a CSV grid export for reproducing membership
plots on the grid oracle's lattice, which refuses more than
``optimize.CELL_CAP`` cells before it allocates any.  Numeric output uses
nine significant digits and identical inputs produce byte-identical output.

Exit codes: 0 on success, 1 on domain errors (bad names, invalid files,
failed validation), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concept import CombinationParams, Concept, combine_adjective_noun
from .errors import ConceptSpaceError, ValidationError
from .kb import Defaults, KnowledgeBase, concept_from_dict, concept_to_dict
from .optimize import _lattice_axes, height_of_intersection
from .space import Point, Space

KB_ENV = "CSPACES_KB"


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


@dataclass(frozen=True)
class GridExport:
    """Membership values of one concept on a regular two-dimensional lattice.

    ``values[i, j]`` is the membership at ``(axes[0][i], axes[1][j])`` with
    all other dimensions fixed at ``slice_point``.  Rows are emitted in
    row-major order over (first dim, second dim).
    """

    dims: tuple[str, str]
    ranges: tuple[tuple[float, float], tuple[float, float]]
    step: float
    axes: tuple[np.ndarray, np.ndarray]
    values: np.ndarray
    slice_point: Point

    def __post_init__(self):
        if self.values.shape != (len(self.axes[0]), len(self.axes[1])):
            raise ValidationError("value grid does not match the axes")
        if self.values.size and not (
                float(self.values.min()) >= 0.0
                and float(self.values.max()) <= 1.0):
            raise ValidationError("memberships must lie in [0, 1]")

    @property
    def row_count(self) -> int:
        return self.values.size

    def write_csv(self, fh) -> None:
        d1, d2 = self.dims
        fh.write(f"{d1},{d2},membership\n")
        ax1, ax2 = self.axes
        for i, v1 in enumerate(ax1):
            row = self.values[i]
            for j, v2 in enumerate(ax2):
                fh.write(f"{_fmt(v1)},{_fmt(v2)},{_fmt(row[j])}\n")


def export_grid(concept: Concept, dims: tuple[str, str],
                ranges: dict[str, tuple[float, float]], step: float,
                slice_point: Point | None = None) -> GridExport:
    """Evaluate a concept's membership on a regular lattice over two dims.

    The lattice is the grid oracle's, :func:`optimize._lattice_axes`.  All
    remaining dimensions are fixed by ``slice_point``, which defaults to
    the midpoint of the concept's central region.
    """
    space = concept.space
    d1, d2 = dims
    if d1 == d2:
        raise ValidationError("grid dimensions must differ")
    for d in (d1, d2):
        space.index_of(d)
        if d not in ranges:
            raise ValidationError(f"no range given for dimension {d!r}")
    ax1, ax2 = _lattice_axes({d1: ranges[d1], d2: ranges[d2]}, step)
    if slice_point is None:
        slice_point = concept.core.central_point
    total = len(ax1) * len(ax2)
    coords = np.tile(slice_point.array, (total, 1))
    coords[:, space.index_of(d1)] = np.repeat(ax1, len(ax2))
    coords[:, space.index_of(d2)] = np.tile(ax2, len(ax1))
    values = concept.membership_batch(coords).reshape(len(ax1), len(ax2))
    return GridExport((d1, d2), (ranges[d1], ranges[d2]), step,
                      (ax1, ax2), values, slice_point)


# ---------------------------------------------------------------------------
# argument parsing helpers

def _assignments(text: str) -> dict[str, float]:
    """Parse ``name=1.5,other=-2`` into a mapping."""
    out: dict[str, float] = {}
    if not text:
        return out
    for part in text.split(","):
        name, sep, raw = part.partition("=")
        if not sep or not name:
            raise argparse.ArgumentTypeError(
                f"expected name=value, got {part!r}")
        try:
            out[name] = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid number {raw!r} for {name!r}") from None
    return out


def _ranges(text: str) -> dict[str, tuple[float, float]]:
    """Parse ``x=-2:6,y=0:4`` into per-dimension (low, high) pairs."""
    out: dict[str, tuple[float, float]] = {}
    for part in text.split(","):
        name, sep, raw = part.partition("=")
        lo, sep2, hi = raw.partition(":")
        if not sep or not sep2 or not name:
            raise argparse.ArgumentTypeError(
                f"expected name=low:high, got {part!r}")
        try:
            out[name] = (float(lo), float(hi))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid range {raw!r} for {name!r}") from None
    return out


def _name_list(text: str) -> list[str]:
    names = [n for n in text.split(",") if n]
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return names


def _domain_def(text: str) -> tuple[str, list[str]]:
    name, sep, dims = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected name=dim1,dim2,..., got {text!r}")
    return name, _name_list(dims)


def _unit_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} must lie in [0, 1]")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive")
    return value


# ---------------------------------------------------------------------------
# command implementations

def _kb_path(args) -> Path:
    path = args.kb or os.environ.get(KB_ENV)
    if not path:
        raise ValidationError(
            f"no knowledge base given; use --kb or set {KB_ENV}")
    return Path(path)


def _load_kb(args, auto_normalize: bool = False) -> tuple[KnowledgeBase, Path]:
    path = _kb_path(args)
    return KnowledgeBase.load(path, auto_normalize=auto_normalize), path


def _combination(args, kb: KnowledgeBase) -> CombinationParams:
    s = kb.defaults.s if args.s is None else args.s
    t = kb.defaults.t if args.t is None else args.t
    return CombinationParams(s, t)


def _complete_point(concept: Concept, overrides: dict[str, float]) -> Point:
    space = concept.space
    coords = list(concept.core.central_point.coords)
    for d, v in overrides.items():
        coords[space.index_of(d)] = v
    return Point(space, tuple(coords))


def _cmd_space_init(args) -> int:
    path = _kb_path(args)
    if path.exists() and not args.force:
        raise ValidationError(f"{path} already exists; use --force to replace")
    space = Space(tuple((name, tuple(dims)) for name, dims in args.domain))
    defaults = Defaults(s=args.s, t=args.t, threshold=args.threshold)
    KnowledgeBase(space, {}, defaults).save(path)
    print(f"initialized {path}")
    return 0


def _cmd_concept_add(args) -> int:
    kb, path = _load_kb(args, auto_normalize=args.auto_normalize)
    if args.file:
        data = json.loads(Path(args.file).read_text(encoding="utf-8"))
    else:
        data = json.loads(args.json)
    concept = concept_from_dict(kb.space, data, f"concepts.{args.name}",
                                auto_normalize=args.auto_normalize)
    kb.add_concept(args.name, concept).save(path)
    print(f"added {args.name}")
    return 0


def _cmd_concept_show(args) -> int:
    kb, _ = _load_kb(args)
    concept = kb.get_concept(args.name)
    print(json.dumps(concept_to_dict(concept), sort_keys=True, indent=2))
    return 0


def _cmd_concept_list(args) -> int:
    kb, _ = _load_kb(args)
    for name in sorted(kb.concepts):
        print(name)
    return 0


def _cmd_concept_rm(args) -> int:
    kb, path = _load_kb(args)
    kb.remove_concept(args.name).save(path)
    print(f"removed {args.name}")
    return 0


def _cmd_membership(args) -> int:
    kb, _ = _load_kb(args)
    concept = kb.get_concept(args.name)
    point = _complete_point(concept, args.point)
    parts = " ".join(f"{d}={_fmt(v)}" for d, v in point.as_dict().items())
    print(f"point: {parts}")
    print(f"membership: {_fmt(concept.membership(point))}")
    return 0


def _cmd_alpha_height(args) -> int:
    kb, _ = _load_kb(args)
    a = kb.get_concept(args.first)
    b = kb.get_concept(args.second)
    print(_fmt(height_of_intersection(a, b).value))
    return 0


def _store(kb: KnowledgeBase, path: Path, name: str, concept: Concept) -> int:
    kb.add_concept(name, concept).save(path)
    print(f"stored {name} (peak={_fmt(concept.peak)}, "
          f"decay={_fmt(concept.decay)})")
    return 0


def _cmd_intersect(args) -> int:
    kb, path = _load_kb(args)
    a = kb.get_concept(args.first)
    b = kb.get_concept(args.second)
    result = a.intersect(b, _combination(args, kb))
    return _store(kb, path, args.out, result)


def _cmd_union(args) -> int:
    kb, path = _load_kb(args)
    a = kb.get_concept(args.first)
    b = kb.get_concept(args.second)
    result = a.union(b, _combination(args, kb))
    return _store(kb, path, args.out, result)


def _cmd_project(args) -> int:
    kb, path = _load_kb(args)
    concept = kb.get_concept(args.name)
    return _store(kb, path, args.out, concept.project(args.domains))


def _cmd_combine(args) -> int:
    kb, path = _load_kb(args)
    prop = kb.get_concept(args.property)
    noun = kb.get_concept(args.noun)
    threshold = kb.defaults.threshold if args.threshold is None else args.threshold
    result = combine_adjective_noun(prop, noun, threshold,
                                    _combination(args, kb))
    return _store(kb, path, args.out, result)


def _cmd_export_grid(args) -> int:
    kb, _ = _load_kb(args)
    concept = kb.get_concept(args.name)
    dims = args.dims
    if len(dims) != 2:
        raise ValidationError("--dims needs exactly two dimension names")
    slice_point = (_complete_point(concept, args.slice)
                   if args.slice else None)
    grid = export_grid(concept, (dims[0], dims[1]), args.range, args.step,
                       slice_point)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        grid.write_csv(fh)
    print(f"wrote {grid.row_count} rows to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    kb, _ = _load_kb(args, auto_normalize=args.auto_normalize)
    for name in kb.concepts:
        kb.get_concept(name)   # reading a concept checks it
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    kb_parent = argparse.ArgumentParser(add_help=False)
    kb_parent.add_argument("--kb", help="knowledge base file "
                                        f"(default: ${KB_ENV})")
    blend = argparse.ArgumentParser(add_help=False)
    blend.add_argument("--s", type=_unit_float, default=None,
                       help="domain weight blend factor in [0, 1]")
    blend.add_argument("--t", type=_unit_float, default=None,
                       help="dimension weight blend factor in [0, 1]")

    parser = argparse.ArgumentParser(
        prog="cspaces",
        description="Operations on fuzzy geometric concepts over a "
                    "knowledge base file.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="space management")
    space_sub = p_space.add_subparsers(dest="space_command", required=True)
    p_init = space_sub.add_parser("init", parents=[kb_parent],
                                  help="create a knowledge base file")
    p_init.add_argument("--domain", action="append", type=_domain_def,
                        required=True, metavar="NAME=DIM1,DIM2,...",
                        help="domain definition; repeat per domain")
    p_init.add_argument("--s", type=_unit_float, default=Defaults.s)
    p_init.add_argument("--t", type=_unit_float, default=Defaults.t)
    p_init.add_argument("--threshold", type=_unit_float,
                        default=Defaults.threshold)
    p_init.add_argument("--force", action="store_true",
                        help="replace an existing file")
    p_init.set_defaults(func=_cmd_space_init)

    p_concept = sub.add_parser("concept", help="concept management")
    concept_sub = p_concept.add_subparsers(dest="concept_command",
                                           required=True)
    p_add = concept_sub.add_parser("add", parents=[kb_parent])
    p_add.add_argument("name")
    src = p_add.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="JSON file holding the concept")
    src.add_argument("--json", help="inline JSON for the concept")
    p_add.add_argument("--auto-normalize", action="store_true",
                       help="rescale weights to exact normalization")
    p_add.set_defaults(func=_cmd_concept_add)
    p_show = concept_sub.add_parser("show", parents=[kb_parent])
    p_show.add_argument("name")
    p_show.set_defaults(func=_cmd_concept_show)
    p_list = concept_sub.add_parser("list", parents=[kb_parent])
    p_list.set_defaults(func=_cmd_concept_list)
    p_rm = concept_sub.add_parser("rm", parents=[kb_parent])
    p_rm.add_argument("name")
    p_rm.set_defaults(func=_cmd_concept_rm)

    p_memb = sub.add_parser("membership", parents=[kb_parent],
                            help="evaluate a concept at a point")
    p_memb.add_argument("name")
    p_memb.add_argument("--point", type=_assignments, default={},
                        metavar="DIM=VALUE,...",
                        help="coordinates; unspecified dimensions default "
                             "to the central region's midpoint")
    p_memb.set_defaults(func=_cmd_membership)

    p_height = sub.add_parser("alpha-height", parents=[kb_parent],
                              help="largest level at which two concepts' "
                                   "level sets meet")
    p_height.add_argument("first")
    p_height.add_argument("second")
    p_height.set_defaults(func=_cmd_alpha_height)

    p_int = sub.add_parser("intersect", parents=[kb_parent, blend])
    p_int.add_argument("first")
    p_int.add_argument("second")
    p_int.add_argument("--out", required=True,
                       help="name for the stored result")
    p_int.set_defaults(func=_cmd_intersect)

    p_union = sub.add_parser("union", parents=[kb_parent, blend])
    p_union.add_argument("first")
    p_union.add_argument("second")
    p_union.add_argument("--out", required=True)
    p_union.set_defaults(func=_cmd_union)

    p_proj = sub.add_parser("project", parents=[kb_parent])
    p_proj.add_argument("name")
    p_proj.add_argument("--domains", type=_name_list, required=True,
                        metavar="NAME,NAME,...")
    p_proj.add_argument("--out", required=True)
    p_proj.set_defaults(func=_cmd_project)

    p_comb = sub.add_parser("combine", parents=[kb_parent, blend],
                            help="adjective-noun combination")
    p_comb.add_argument("property")
    p_comb.add_argument("noun")
    p_comb.add_argument("--threshold", type=_unit_float, default=None)
    p_comb.add_argument("--out", required=True)
    p_comb.set_defaults(func=_cmd_combine)

    p_grid = sub.add_parser("export-grid", parents=[kb_parent],
                            help="CSV membership grid over two dimensions")
    p_grid.add_argument("name")
    p_grid.add_argument("--dims", type=_name_list, required=True,
                        metavar="DIM1,DIM2")
    p_grid.add_argument("--range", type=_ranges, required=True,
                        metavar="DIM=LOW:HIGH,...")
    p_grid.add_argument("--step", type=_positive_float, required=True)
    p_grid.add_argument("--slice", type=_assignments, default={},
                        metavar="DIM=VALUE,...",
                        help="fixed values for the remaining dimensions")
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(func=_cmd_export_grid)

    p_val = sub.add_parser("validate", parents=[kb_parent],
                           help="check a knowledge base file")
    p_val.add_argument("--auto-normalize", action="store_true")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConceptSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
