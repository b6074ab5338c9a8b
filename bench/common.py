"""Paths, child-process settings, statistics and the run-environment record."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The ``cspaces`` console script, run from the checkout's sources.
CSPACES = [sys.executable, "-c",
           "import sys; from conceptspaces.cli import main; sys.exit(main())"]
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    """Environment for library child processes: this checkout's sources only."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped after the timeout)."""
    return subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                          stdin=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
                          check=False)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size of this process, or of its largest waited child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = []
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        tag = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out.append(f"L{level}{tag}={size}")
    return ",".join(out) or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():   # an exported checkout has no history
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict[str, object]:
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }
