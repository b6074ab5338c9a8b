"""Fixed-size layer measurements that do not depend on the workload's inputs.

``kb`` load and save at 10, 100 and 1000 concepts; the start of a bare
interpreter; the import of numpy and of the package, read from
``python -X importtime``.  Each is repeated and reported as a median.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

from common import median, run_child
from inputs import BIG_SPACE, cli_concepts, rng_for

from conceptspaces import KnowledgeBase

KB_SIZES = {10: 15, 100: 5, 1000: 3}   # concepts -> repetitions
INTERPRETER_REPS = 7
IMPORT_REPS = 3


def kb_probe(seed: int, workdir: Path) -> dict[str, float]:
    out: dict[str, float] = {}
    concepts, _ = cli_concepts(rng_for("probe", seed), max(KB_SIZES) // 4)
    names = sorted(concepts)
    for size, reps in KB_SIZES.items():
        kb = KnowledgeBase(BIG_SPACE, {n: concepts[n] for n in names[:size]})
        path = workdir / f"kb-{size}.json"
        saves, loads = [], []
        for _ in range(reps):
            t0 = perf_counter()
            kb.save(path)
            t1 = perf_counter()
            KnowledgeBase.load(path)
            loads.append(perf_counter() - t1)
            saves.append(t1 - t0)
        out[f"kb.load_ms.n{size}"] = 1e3 * median(loads)
        out[f"kb.save_ms.n{size}"] = 1e3 * median(saves)
    out["kb.bytes.n1000"] = float((workdir / "kb-1000.json").stat().st_size)
    return out


def _cumulative_import_us(stderr: str) -> dict[str, int]:
    """Cumulative microseconds per top-level import in ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]))
    return out


def startup_probe(workdir: Path) -> dict[str, float]:
    starts = []
    for _ in range(INTERPRETER_REPS):
        t0 = perf_counter()
        done = run_child([sys.executable, "-c", "pass"], workdir)
        starts.append(perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError("the bare interpreter failed to start")
    numpy_us, package_us = [], []
    for _ in range(IMPORT_REPS):
        done = run_child([sys.executable, "-X", "importtime", "-c",
                          "import conceptspaces"], workdir)
        if done.returncode != 0:
            raise RuntimeError(done.stderr.decode(errors="replace"))
        found = _cumulative_import_us(done.stderr.decode(errors="replace"))
        numpy_us.append(found["numpy"])
        package_us.append(found["conceptspaces"])
    return {
        "cli.interpreter_ms": 1e3 * median(starts),
        "cli.import_ms.numpy": 1e-3 * median(numpy_us),
        "cli.import_ms.conceptspaces": 1e-3 * median(package_us),
    }
