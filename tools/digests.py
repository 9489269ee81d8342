"""Check the sha256 digests of what one checkout's CLI produces for a fixed set of runs
against the committed listing ``tools/digests.txt``.

Usage, from anywhere:

    python tools/digests.py [CHECKOUT [WORKDIR]]            # compare with digests.txt
    python tools/digests.py [CHECKOUT [WORKDIR]] --write    # rewrite digests.txt

CHECKOUT is the root of a seqrac source tree, by default the one this tool
lies in; its ``src`` and ``bench`` are put first on ``sys.path``.  WORKDIR, by
default a temporary directory, is emptied and reused for every run.
Each run makes one line with its exit code and the digests of its stdout
and stderr, then one line per file it wrote: the sha256 of every data file,
and of every manifest without its ``timestamp`` and its ``config`` path.
Stdout and stderr are hashed with WORKDIR's path replaced by ``WORKDIR``, so
the listing does not depend on where WORKDIR is.  Two checkouts whose
listings are equal wrote the same bytes.  The tool prints each run whose
lines differ from the committed listing, expected lines as ``-`` and this
run's as ``+``, and exits 1 if any does; ``--write`` replaces the listing
instead.  The listing is headed by the Python, numpy and mpmath versions
that made it, and a difference in them is printed too: ``simulate`` bytes
hold on one numpy build only, so under another numpy version the ``simulate``
runs are not compared, and a last line says so and names both versions.  A
change that declares new bytes rewrites the listing in the same commit.  The runs are every op of
``schedule_auto`` seeds 1 and 2, of ``scalar_mix`` seed 1 and of ``mc_chain``
seed 1 (66 ``simulate --threads 2`` runs; from ``bench/workloads.py``),
``poly --k 1..10 --out``, ``schedule`` at a numeric omega in {0.03125,
0.0315, 0.001, 0.3, 1e-9, 1.0, 1.5, 1.5707963267948966, pi/2 - 10^-60 to
75 digits} for n in {1, 2, 3, 4, 5, 8, 12} (feasible and
infeasible; near pi/2, W_1 = 1 - cos omega -> 1, where 1 - W_1 would cancel,
so these runs pin delta1 read as cos omega itself),
``schedule --omega auto`` for n in {1, 6, 7, 40, 64, 100, 250, 500} at r in
{0.3, 1} and epsilon in {1e-6, 0.01} and at n = 1000, r = 1, epsilon = 1e-4
(decimal exponents of about 300 digits), and four ``simulate`` configs,
each at ``--threads`` 1 and 2 (the thread count has no effect, so each pair
must match).  Near lam = 1, where the float sqrt(1 - lam^2)
cancels, ``sequence`` and a ``simulate`` run at each lam in
{0.9999841142108734, 1 - 2^-20, 1.0}.  Then ``schedule --omega <omega_dec>``
re-runs the auto run for n in {6, 13, 24} at (r, epsilon) = (0.3, 1e-6) and
(1, 0.01) from its printed angle.  Then ``simulate`` runs: 16 receivers
over 200,000 shots; lambdas 0.5, 1, 1 on pure states (r = 1), where the
last receiver meets unsharp branches of probability 0; 11 and 12 receivers
over 196,625 shots; and 16 receivers over 10^9 shots, whose node lists
outgrow one block of ``montecarlo.SHARD_SIZE`` nodes and are cut.
Then ``schedule --n 1`` at four angles whose ``omega_dec`` pins the decimal
printer's edges: the exact tie 389347099 * 2^-31, which rounds up to
...938; 1.5e-10, in exponent form; and values that carry to 0.000000001
and to 1.0, across the fixed/exponent boundary and to the next digit.
Then ``thresholds --grid 7 --delta2`` at 0, 0.6 and 1, which no other run
covers (``inf`` thresholds and both ``simplex_violated`` values), and
``region --resolution 2``, the smallest grid.  Last, ``poly --k 11`` and
``--k 12 --out``: k = 10 is the first table with a squaring past
``smallangle.NTT_BYTES``, and these two make two and three such squarings, up
to ``POLY_CAP``.
"""

import contextlib
import hashlib
import io
import json
import platform
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

LISTING = Path(__file__).with_name("digests.txt")

# (n, r, epsilon, omega_dec) of ``schedule --omega auto`` runs: given back as
# --omega, each must reproduce its omega_dec and its feasibility.
ROUND_TRIP = (
    ("6", "0.3", "1e-6", "1.49137286581614331538860074086e-26"),
    ("6", "1", "0.01", "0.00000000608014011306191653932451637154"),
    ("13", "0.3", "1e-6", "5.84178114322387735476835370419e-3562"),
    ("13", "1", "0.01", "5.56272299269232939890968862929e-1242"),
    ("24", "0.3", "1e-6", "2.29918786489600610412169183022e-7301868"),
    ("24", "1", "0.01", "2.05744828901783345671466149308e-2549490"),
)

# omega_dec at the decimal printer's edges: a tie, exponent -10, two carries
DEC_EDGES = ("0.1813038713298738002777099609375", "1.5e-10",
             "9.999999999999999999999999999999996e-10", "0.99999999999999999999999999999996")

# pi/2 - 10^-60 to 75 significant digits
NEAR_HALF_PI = "1.57079632679489661923132169163975144209858469968755291048747129615390820314"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list) -> int:
    write = argv[-1:] == ["--write"]
    paths = argv[:-1] if write else argv
    if len(paths) > 2:
        print("usage: python tools/digests.py [CHECKOUT [WORKDIR]] [--write]")
        return 2
    with tempfile.TemporaryDirectory(prefix="seqrac-digests-") as tmp:
        root = Path(paths[0] if paths else LISTING.parents[1]).resolve()
        work = Path(paths[1] if len(paths) > 1 else tmp).resolve()
        return compare(root, work, write)


def compare(root: Path, work: Path, write: bool) -> int:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from seqrac.cli import main as seqrac_main
    from workloads import CONFIG, OUT, generate

    out, cfg = work / "out", work / "sim.cfg"
    runs = [
        (op.argv, op.config)
        for name, seed in (("schedule_auto", 1), ("schedule_auto", 2), ("scalar_mix", 1),
                           ("mc_chain", 1))
        for op in generate(name, seed)
    ]
    runs += [(("poly", "--k", str(k), "--out", OUT), None) for k in range(1, 11)]
    runs += [
        (("schedule", "--n", n, "--omega", omega, "--out", OUT), None)
        for omega in ("0.03125", "0.0315", "0.001", "0.3", "1e-9", "1.0", "1.5",
                      "1.5707963267948966", NEAR_HALF_PI)
        for n in ("1", "2", "3", "4", "5", "8", "12")
    ]
    runs += [
        (("schedule", "--n", n, "--r", r, "--epsilon", eps, "--omega", "auto", "--out", OUT), None)
        for n in ("1", "6", "7", "40", "64", "100", "250", "500")
        for r in ("0.3", "1")
        for eps in ("1e-6", "0.01")
    ]
    runs.append((("schedule", "--n", "1000", "--r", "1", "--epsilon", "1e-4", "--omega", "auto",
                  "--out", OUT), None))
    configs = [
        "omega = 0.3\nlambdas = 0.5,0.8\nshots = 300017\nseed = 7\n",
        "omega = 0.1\nr = 0.8\nlambdas = 0.2,0.4,0.6,0.9\nshots = 200000\nseed = 2026\n",
        "omega = 0.5\nlambdas = 1.0\nshots = 131073\nseed = 0\n",
        "omega = 0.4\nr = 0.9\nlambdas = 0.3,0.6,0.9\nshots = 70000\nseed = 11\n",
    ]
    runs += [
        (("simulate", "--config", CONFIG, "--threads", t, "--out", OUT), c)
        for c in configs
        for t in "12"
    ]
    for lam in ("0.9999841142108734", repr(1 - 2**-20), "1.0"):
        runs += [
            (("sequence", "--omega", omega, "--r", r, "--lambdas", f"0.5,{lam},{lam}",
              "--out", OUT), None)
            for omega, r in (("0.3", "0.9"), ("0.001", "1"))
        ]
        config = f"omega = 0.3\nr = 0.9\nlambdas = 0.5,{lam},{lam}\nshots = 70000\nseed = 5\n"
        runs.append((("simulate", "--config", CONFIG, "--threads", "1", "--out", OUT), config))
    runs += [
        (("schedule", "--n", n, "--r", r, "--epsilon", eps, "--omega", omega, "--out", OUT), None)
        for n, r, eps, omega in ROUND_TRIP
    ]
    lams16 = ",".join(f"{0.05 * k:.2f}" for k in range(1, 17))
    lams11, lams12 = (",".join(f"{(k + 0.5) / n:.4f}" for k in range(n)) for n in (11, 12))
    for config in (
        f"omega = 0.2\nr = 0.95\nlambdas = {lams16}\nshots = 200000\nseed = 16\n",
        "omega = 0.3\nr = 1\nlambdas = 0.5,1.0,1.0\nshots = 70000\nseed = 9\n",
        f"omega = 0.25\nr = 0.9\nlambdas = {lams11}\nshots = 196625\nseed = 11\n",
        f"omega = 0.25\nr = 0.9\nlambdas = {lams12}\nshots = 196625\nseed = 12\n",
        f"omega = 0.2\nr = 0.95\nlambdas = {lams16}\nshots = 1000000000\nseed = 17\n",
    ):
        runs.append((("simulate", "--config", CONFIG, "--out", OUT), config))
    runs += [(("schedule", "--n", "1", "--omega", omega, "--out", OUT), None) for omega in DEC_EDGES]
    runs += [(("thresholds", "--grid", "7", "--delta2", d2, "--out", OUT), None)
             for d2 in ("0", "0.6", "1")]
    runs.append((("region", "--resolution", "2", "--out", OUT), None))
    runs += [(("poly", "--k", k, "--out", OUT), None) for k in ("11", "12")]
    lines = []
    for i, (argv, config) in enumerate(runs):
        shutil.rmtree(work, ignore_errors=True)
        out.mkdir(parents=True)
        if config is not None:
            cfg.write_text(config)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = seqrac_main([{OUT: str(out), CONFIG: str(cfg)}.get(a, a) for a in argv])
        stdout, stderr = (sha(s.getvalue().replace(str(work), "WORKDIR").encode())
                          for s in (stdout, stderr))
        lines.append(f"{i} {' '.join(argv[:2])} rc {code} stdout {stdout} stderr {stderr}")
        for f in sorted(out.iterdir()):
            data = f.read_bytes()
            if f.name.endswith("_manifest.json"):
                manifest = json.loads(data)
                del manifest["timestamp"]
                manifest["params"].pop("config", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            lines.append(f"{i} {f.name} {sha(data)}")
    import mpmath
    import numpy

    header = [f"# python {platform.python_version()}", f"# numpy {numpy.__version__}",
              f"# mpmath {mpmath.__version__}"]
    if write:
        LISTING.write_text("\n".join(header + lines) + "\n")
        print(f"wrote {len(lines)} lines for {len(runs)} runs to {LISTING}")
        return 0
    committed = LISTING.read_text().splitlines()
    if committed[:len(header)] != header:
        print("versions differ:", *committed[:len(header)], "here:", *header, sep="\n  ")
    want, got = defaultdict(list), defaultdict(list)
    for table, rows in ((want, committed[len(header):]), (got, lines)):
        for line in rows:
            table[line.split(" ", 1)[0]].append(line)
    skip = {str(i) for i, (argv, _) in enumerate(runs)
            if argv[0] == "simulate" and committed[1] != header[1]}
    differ = [i for i in sorted(set(want) | set(got), key=int) if want[i] != got[i] and i not in skip]
    for i in differ:
        print(f"run {i} differs:", *(f"- {x}" for x in want[i]), *(f"+ {x}" for x in got[i]),
              sep="\n  ")
    print(f"{len(runs)} runs, {len(differ)} differ from {LISTING.name}")
    if skip:
        print(f"{len(skip)} simulate runs not compared: {header[1][2:]} here, "
              f"{committed[1][2:]} in {LISTING.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
