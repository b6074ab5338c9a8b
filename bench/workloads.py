"""The three workloads: inputs, operations, and the check of every output.

An operation is one call (or short call sequence) that the closed loop times;
its check runs after the timer stops.  Calls go through module attributes
(``optimize.height_of_intersection``, ``space.combined_distance``) so that
the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import itertools
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import reference
from common import CSPACES, run_child
from inputs import (ALGEBRA_BLOCK, ALGEBRA_CHAINS, ALGEBRA_PATTERN,
                    BIG_SPACE, CLI_GROUPS, HEIGHT_BLOCK, SCALAR_POINTS,
                    added_concept_json, algebra_inputs, cli_concepts,
                    height_cases, rng_for)

from conceptspaces import KnowledgeBase, Point, cli, concept, optimize, space
from conceptspaces.kb import concept_to_dict

HEIGHT_RTOL = 1e-6       # the solver's default tolerance
EXACT_RTOL = 1e-9        # two evaluations of one closed-form quantity
THRESHOLD = 0.5          # the default adjective-noun threshold
CHECK_POINTS = 32        # query points also evaluated by the reference


def note(notes: dict, key: str, value: float = 1.0, keep_max: bool = False) -> None:
    """Add to (or keep the maximum of) a named figure reported after the run."""
    old = notes.get(key, 0.0)
    notes[key] = max(old, value) if keep_max else old + value


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]   # a failure message, or None
    inputs: Callable[[], dict]           # what to report when it fails
    ends_block: bool = True              # the loop may stop after this op


# ---------------------------------------------------------------------------
# height

def _witness_gap(c1, c2, result) -> str | None:
    """The value must not exceed the smaller peak and must be attained."""
    w = np.asarray(result.witness.coords)[None]
    attained = min(reference.membership(c1, w)[0], reference.membership(c2, w)[0])
    if result.value > min(c1.peak, c2.peak) * (1 + EXACT_RTOL):
        return f"value {result.value!r} exceeds the smaller peak"
    if not reference.rel_close(result.value, attained, EXACT_RTOL):
        return (f"value {result.value!r} differs from the minimum membership "
                f"{attained!r} at the reported witness")
    return None


def _combine_gap(prop, noun, ref: float | None, peak: float) -> str | None:
    """At or above the threshold the result is the intersection, whose peak
    is the height.  Below it the property replaces the noun on its domain;
    the rest of the noun then touches the property, so the peak is the
    smaller peak, or the property's own when nothing of the noun remains."""
    low = min(prop.peak, noun.peak)
    replaced = low if len(noun.core.domain_set) > 1 else prop.peak
    if ref is None:   # no exact height: the peak must fit one branch
        if THRESHOLD * (1 - HEIGHT_RTOL) <= peak <= low or peak == replaced:
            return None
        return f"peak {peak!r} is neither in [{THRESHOLD}, {low!r}] nor {replaced!r}"
    if abs(ref - THRESHOLD) <= HEIGHT_RTOL:
        options = (ref, replaced)
    else:
        options = (ref,) if ref >= THRESHOLD else (replaced,)
    if any(reference.rel_close(peak, o, HEIGHT_RTOL) for o in options):
        return None
    return f"peak {peak!r}, expected {options[0]!r} (closed-form height {ref!r})"


@dataclass
class HeightState:
    cases: list
    notes: dict


class Height:
    name = "height"
    children = False
    trace_ops = HEIGHT_BLOCK

    def setup(self, seed: int, workdir: Path) -> HeightState:
        return HeightState(height_cases(seed), {})

    def _op(self, state: HeightState, case, ends_block: bool) -> Op:
        c1, c2 = case.first, case.second

        def run():
            if case.kind == "height":
                return optimize.height_of_intersection(c1, c2)
            if case.kind == "intersect":
                return c1.intersect(c2)
            return concept.combine_adjective_noun(c1, c2)

        def check(out) -> str | None:
            ref = reference.closed_form_height(c1, c2)
            note(state.notes, "closed_form_checks" if ref is not None
                 else "witness_checks")
            if case.kind == "combine":
                return _combine_gap(c1, c2, ref, out.peak)
            if ref is None:
                if case.kind == "height":
                    return _witness_gap(c1, c2, out)
                low = min(c1.peak, c2.peak)
                if 0.0 < out.peak <= low:
                    return None
                return f"peak {out.peak!r} outside (0, {low!r}]"
            value = out.value if case.kind == "height" else out.peak
            note(state.notes, "max_rel_gap_to_closed_form",
                 abs(value - ref) / ref, keep_max=True)
            if reference.rel_close(value, ref, HEIGHT_RTOL):
                return None
            return f"value {value!r}, closed-form height {ref!r}"

        def inputs() -> dict:
            return {"case": case.index, "kind": case.kind, "shared": case.shared,
                    "first": concept_to_dict(c1), "second": concept_to_dict(c2)}

        return Op(case.kind, run, check, inputs, ends_block)

    def ops(self, state: HeightState) -> Iterator[Op]:
        for case in itertools.cycle(state.cases):
            yield self._op(state, case, case.index % HEIGHT_BLOCK == HEIGHT_BLOCK - 1)

    def trace_pass(self, state: HeightState) -> Iterator[Op]:
        return (self._op(state, case, True) for case in state.cases[:self.trace_ops])

    def finish(self, state: HeightState) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# algebra

@dataclass
class AlgebraState:
    inputs: Any
    scalar: list[Point]
    triples: list[tuple[Point, Point, Point, Point]]   # x, between, z, beyond
    notes: dict


class Algebra:
    name = "algebra"
    children = False
    trace_chains = 16

    def setup(self, seed: int, workdir: Path) -> AlgebraState:
        data = algebra_inputs(seed)
        scalar = [Point(BIG_SPACE, tuple(p)) for p in data.points[:SCALAR_POINTS]]
        triples = [tuple(Point(BIG_SPACE, tuple(p))
                         for p in (x, y, z, z + (z - x)))
                   for x, y, z in data.triples]
        return AlgebraState(data, scalar, triples, {})

    def _chain(self, state: AlgebraState, j: int) -> Iterator[Op]:
        data = state.inputs
        current = data.bases[data.starts[j]]
        for step, letter in enumerate(ALGEBRA_PATTERN):
            x, partner = current, data.bases[data.partners[j, step]]
            kept = [d for d, k in zip(BIG_SPACE.domain_names, data.keep[j]) if k]
            holder: list = []

            def run(x=x, partner=partner, letter=letter, kept=kept, holder=holder):
                if letter == "I":
                    y = x.intersect(partner)
                elif letter == "U":
                    y = x.union(partner)
                else:
                    y = x.project(kept)
                scalar = [y.membership(p) for p in state.scalar]
                batch = y.membership_batch(data.points)
                dists = [space.combined_distance(a, c, y.weights)
                         for a, _, c, _ in state.triples]
                betw = [(space.between(a, b, c, y.weights),
                         space.between(a, far, c, y.weights))
                        for a, b, c, far in state.triples]
                holder.append(y)
                return y, scalar, batch, dists, betw

            def check(out, x=x, partner=partner, letter=letter, kept=kept):
                return self._check(state, x, partner, letter, kept, out)

            def inputs(step=step, letter=letter):
                return {"chain": j, "step": step, "op": letter,
                        "start": int(data.starts[j]),
                        "partners": data.partners[j].tolist()}

            last = step == len(ALGEBRA_PATTERN) - 1
            yield Op(letter, run, check, inputs,
                     last and j % ALGEBRA_BLOCK == ALGEBRA_BLOCK - 1)
            if holder:
                current = holder[0]

    def _check(self, state, x, partner, letter, kept, out) -> str | None:
        y, scalar, batch, dists, betw = out
        pts = state.inputs.points[:CHECK_POINTS]
        ref = reference.membership(y, pts)
        if not np.allclose(batch[:CHECK_POINTS], ref, rtol=EXACT_RTOL, atol=0.0):
            return "membership_batch differs from the reference metric"
        if not np.allclose(scalar, batch[:len(scalar)], rtol=0.0, atol=1e-12):
            return "scalar membership differs from membership_batch"
        if not (batch.min() > 0.0 and batch.max() <= y.peak):
            return f"membership outside (0, {y.peak!r}]"
        if letter == "U":
            floor = np.maximum(reference.membership(x, pts),
                               reference.membership(partner, pts))
            short = float(np.max(floor - ref))
            if reference.same_weights(x.weights, partner.weights):
                note(state.notes, "union_checked")
                if short > 1e-12:
                    return f"union membership is {short!r} below the pointwise maximum"
            else:
                # With differing weights the union measures with a blend of
                # them; the invariant is stated for shared weights only (so
                # does the library's acceptance test), so this is counted.
                note(state.notes, "union_blended")
                if short > 1e-12:
                    note(state.notes, "union_blended_below_max")
                    note(state.notes, "union_blended_max_shortfall", short,
                         keep_max=True)
        elif letter == "I" and y.peak != min(x.peak, partner.peak):
            return f"intersection peak {y.peak!r} is not the smaller peak"
        elif letter == "P" and (y.core.domain_set != set(kept) or y.peak != x.peak):
            return "projection changed the peak or kept the wrong domains"
        for (a, _, c, _), d in zip(state.triples, dists):
            expect = reference.distance(BIG_SPACE, y.weights,
                                        np.asarray(a.coords), np.asarray(c.coords))
            if not reference.rel_close(d, expect, EXACT_RTOL):
                return f"combined_distance {d!r}, reference {expect!r}"
        if any(pair != (True, False) for pair in betw):
            return f"between gave {betw!r}, expected (True, False) per triple"
        return None

    def ops(self, state: AlgebraState) -> Iterator[Op]:
        for j in itertools.cycle(range(ALGEBRA_CHAINS)):
            yield from self._chain(state, j)

    def trace_pass(self, state: AlgebraState) -> Iterator[Op]:
        for j in range(self.trace_chains):
            yield from self._chain(state, j)

    def finish(self, state: AlgebraState) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# cli

CYCLES = 64
UNITS_PER_CYCLE = 12   # a cycle is the block after which a run may stop


@dataclass
class CliState:
    kb: Path
    pristine: bytes
    units: list[list[list[str]]]   # each unit: one command, or a write + rm
    expected: dict
    notes: dict


def _cli_units(rng: np.random.Generator, groups, concepts, kb: Path,
               workdir: Path) -> list[list[list[str]]]:
    """Cycles of seven reads and five writes, each write undone by ``rm``."""
    k = ["--kb", str(kb)]
    doms = list(BIG_SPACE.domain_names)
    units = []
    for cycle in range(CYCLES):
        g = groups[7 * cycle % len(groups)]
        center = concepts[g.noun].core.central_point

        def point(name):
            c = concepts[name].core.central_point
            return f"a1={c['a1'] + rng.uniform(-1.5, 1.5):.6f},b1={c['b1'] + rng.uniform(-1.5, 1.5):.6f}"

        grid = (f"a1={center['a1'] - 3:.6f}:{center['a1'] + 3:.6f},"
                f"b1={center['b1'] - 3:.6f}:{center['b1'] + 3:.6f}")
        keep = ",".join(sorted(rng.choice(doms, size=2, replace=False)))
        rm = ["concept", "rm", "tmp"] + k
        units += [
            [["membership", g.noun, "--point", point(g.noun)] + k],
            [["intersect", g.noun, g.touching, "--out", "tmp"] + k, rm],
            [["alpha-height", g.noun, g.touching] + k],
            [["union", g.noun, g.disjoint, "--out", "tmp"] + k, rm],
            [["export-grid", g.noun, "--dims", "a1,b1", "--range", grid,
              "--step", "0.06", "--out", str(workdir / "grid.csv")] + k],
            [["project", g.noun, "--domains", keep, "--out", "tmp"] + k, rm],
            [["alpha-height", g.noun, g.disjoint] + k],
            [["combine", g.prop, g.noun, "--out", "tmp"] + k, rm],
            [["validate"] + k],
            [["concept", "add", "tmp", "--json", added_concept_json(rng)] + k, rm],
            [["concept", "show", g.noun] + k],
            [["membership", g.touching, "--point", point(g.touching)] + k],
        ]
    return units


def _csv_digest(argv: list[str]) -> str | None:
    if argv[0] != "export-grid":
        return None
    return hashlib.sha256(Path(argv[argv.index("--out") + 1]).read_bytes()).hexdigest()


def _in_process(argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue().encode("utf-8")


class Cli:
    name = "cli"
    children = True
    groups = CLI_GROUPS

    def setup(self, seed: int, workdir: Path) -> CliState:
        rng = rng_for("cli", seed)
        concepts, groups = cli_concepts(rng, self.groups)
        path = workdir / "kb.json"
        KnowledgeBase(BIG_SPACE, concepts).save(path)
        units = _cli_units(rng, groups, concepts, path, workdir)
        return CliState(path, path.read_bytes(), units, {}, {})

    def _expected(self, state: CliState, unit: list[list[str]]) -> None:
        """In-process results of a unit, on a pristine copy of the KB."""
        copy = state.kb.with_name("expected.json")
        copy.write_bytes(state.pristine)
        for argv in unit:
            moved = [str(copy) if a == str(state.kb) else a for a in argv]
            code, out = _in_process(moved)
            state.expected[tuple(argv)] = (code, out, _csv_digest(argv))

    def _ops(self, state: CliState, units, run_one) -> Iterator[Op]:
        for index, unit in enumerate(units):
            block = index % UNITS_PER_CYCLE == UNITS_PER_CYCLE - 1
            for i, argv in enumerate(unit):
                def check(out, argv=argv, unit=unit):
                    code, stdout, stderr = out
                    if code != 0:
                        return f"exit status {code}: {stderr[-300:]!r}"
                    got = (code, stdout, _csv_digest(argv))
                    if tuple(argv) not in state.expected:
                        self._expected(state, unit)
                    want = state.expected[tuple(argv)]
                    if got != want:
                        return f"output {got!r} differs from in-process {want!r}"
                    return None

                yield Op(argv[0], lambda argv=argv: run_one(argv), check,
                         lambda argv=argv: {"argv": argv},
                         ends_block=block and i == len(unit) - 1)

    def ops(self, state: CliState) -> Iterator[Op]:
        def run_one(argv):
            done = run_child(CSPACES + argv, state.kb.parent)
            return done.returncode, done.stdout, done.stderr.decode(errors="replace")

        return self._ops(state, itertools.cycle(state.units), run_one)

    def trace_pass(self, state: CliState) -> Iterator[Op]:
        """One cycle in-process, checked against in-process results."""
        def run_one(argv):
            code, out = _in_process(argv)
            return code, out, ""

        return self._ops(state, state.units[:UNITS_PER_CYCLE], run_one)

    def finish(self, state: CliState) -> list[str]:
        """Writes were undone, and the KB still validates."""
        failures = []
        if state.kb.read_bytes() != state.pristine:
            failures.append("the KB differs from its pristine copy after the run")
        code, out = _in_process(["validate", "--kb", str(state.kb)])
        if (code, out) != (0, b"ok\n"):
            failures.append(f"validate after the writes gave {code}, {out!r}")
        return failures


WORKLOADS = {w.name: w for w in (Height(), Algebra(), Cli())}


class _SmallCli(Cli):
    groups = 2


def layer_probe(seed: int, workdir: Path) -> list[Op]:
    """A short sequence that calls every traced function at least once.

    Times of functions a workload never calls come from here, so every
    per-layer time is a measurement: one cli cycle in-process on a small KB,
    an intersection of disjoint cores, and direct metric queries.
    """
    probe = _SmallCli()
    state = probe.setup(seed, workdir)
    concepts, groups = cli_concepts(rng_for("cli", seed), probe.groups)
    noun, far = concepts[groups[0].noun], concepts[groups[0].disjoint]
    x, y = (c.core.central_point for c in (noun, far))

    def run():
        return (noun.intersect(far), space.combined_distance(x, y, noun.weights),
                space.between(x, x, y, noun.weights))

    def check(out):
        result, d, betw = out
        expect = reference.distance(BIG_SPACE, noun.weights,
                                    np.asarray(x.coords), np.asarray(y.coords))
        if not (reference.rel_close(d, expect, EXACT_RTOL) and betw
                and 0 < result.peak <= min(noun.peak, far.peak)):
            return "probe outputs disagree with the reference"
        return None

    return [*probe.trace_pass(state),
            Op("probe", run, check, lambda: {"seed": seed})]
