"""Compare the cold-start times of two seqrac checkouts.

Usage, from anywhere:

    python tools/coldstart.py PARENT CHANGE [--runs N]

PARENT and CHANGE are roots of seqrac source trees.  Each measurement starts
a fresh interpreter with the checkout's ``src`` on ``PYTHONPATH``; the two
sides alternate run by run, and the side that goes first alternates round by
round, so a drift of the host's speed falls on both.  The measurements are:

- ``python``: an interpreter that runs nothing, the floor under every row;
- ``import seqrac.cli``: the import alone, timed inside the interpreter;
- one cold run of ``sequence``, ``thresholds``, ``region``, ``simulate``,
  ``schedule --omega auto`` and ``poly --k 8``, each writing to a scratch
  directory.

It prints one JSON object: for each row and side, the median and the
interquartile range (IQR) of N runs (default 15), in ms.  ``wall_ms`` is the
whole process as the shell sees it, ``inside_ms`` the time from before
``import seqrac.cli`` to the return of ``main``.  Compiled bytecode goes to
a scratch ``PYTHONPYCACHEPREFIX``, filled by one unrecorded run per row and
side, so the checkouts stay untouched and no row pays for compiling.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# Prints the seconds from before ``import seqrac.cli`` to after ``main``
# returns (only the import when no argv is given), and the exit code.
CHILD = """
import sys, time
t0 = time.perf_counter()
import seqrac.cli
code = seqrac.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(time.perf_counter() - t0, code)
"""

CONFIG = "omega = 0.3\nlambdas = 0.5,0.8\nshots = 65536\nseed = 7\n"

ROWS = (
    ("python", None),
    ("import seqrac.cli", ()),
    ("sequence", ("sequence", "--omega", "0.3", "--lambdas", "0.3,0.5,0.8", "--out", "@out")),
    ("thresholds", ("thresholds", "--out", "@out")),
    ("region", ("region", "--out", "@out")),
    ("simulate", ("simulate", "--config", "@config", "--out", "@out")),
    ("schedule --omega auto", ("schedule", "--n", "8", "--omega", "auto", "--out", "@out")),
    ("poly --k 8", ("poly", "--k", "8", "--out", "@out")),
)


def run_once(root: Path, argv, work: Path, cache: Path) -> tuple[float, float | None]:
    """(wall ms, inside ms or None) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if argv is None:
        cmd = [sys.executable, "-c", "pass"]
    else:
        paths = {"@out": str(work / "out"), "@config": str(work / "sim.cfg")}
        cmd = [sys.executable, "-c", CHILD, *(paths.get(a, a) for a in argv)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True, text=True, timeout=300)
    wall = (perf_counter() - t0) * 1e3
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd[3:])} failed:\n{proc.stderr}")
    if argv is None:
        return wall, None
    seconds, code = proc.stdout.splitlines()[-1].split()
    if code != "0":
        raise SystemExit(f"{root}: {' '.join(cmd[3:])} exited {code}:\n{proc.stderr}")
    return wall, float(seconds) * 1e3


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 2), "iqr": round(q3 - q1, 2)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per row and side")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "src" / "seqrac" / "cli.py").is_file():
            parser.error(f"{root} is not a seqrac checkout")

    samples = {(side, row): ([], []) for side in sides for row, _ in ROWS}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "out").mkdir()
        (work / "sim.cfg").write_text(CONFIG)
        caches = {side: work / f"pycache-{side}" for side in sides}
        for side, root in sides.items():  # fill the bytecode caches
            for _, argv in ROWS:
                run_once(root, argv, work, caches[side])
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for row, argv in ROWS:
                for side in order:
                    wall, inside = run_once(sides[side], argv, work, caches[side])
                    samples[side, row][0].append(wall)
                    if inside is not None:
                        samples[side, row][1].append(inside)

    rows = []
    for row, _ in ROWS:
        for side in sides:
            walls, insides = samples[side, row]
            rows.append({
                "row": row,
                "side": side,
                "checkout": str(sides[side]),
                "wall_ms": summary(walls),
                "inside_ms": summary(insides) if insides else None,
            })
    result = {"runs": args.runs, "python": sys.version.split()[0], "nproc": os.cpu_count(),
              "rows": rows}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
