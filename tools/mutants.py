"""Apply one-line mutations to a copy of ``src`` and report which ones the tests kill.

Usage, from anywhere:

    python tools/mutants.py

Each mutant changes one line of a file under ``src/seqrac``: the line is the
only one that contains the mutant's anchor, and the ``nth`` occurrence of
``old`` on it becomes ``new``.  An anchor on no line or on several, or an
``old`` that the line lacks, is reported as stale before any test runs.  The
mutant's own copy of ``src`` goes first on ``PYTHONPATH``, and only the test
files (or test ids) named for it run, stopping at the first failure.  First
the same tests run on an unmutated copy, which must pass.

The list covers the certified schedule kernel and the decimal printer: each
directed rounding in the prelude, the receiver loop, the report's M and margin
and ``_round`` flipped, each endpoint of a pair taken from the other end,
delta1 held to one of its two forms and their W < 1/2 switch moved to W < 1,
the lam in (0, 1) decision at both edges, the sticky bits of ``_div`` and
``_sqrt``, ``_mid``'s zero stripping, ``_add``'s sticky cutoff, ``_working_dps``'s n term,
``find_omega``'s stop test and its rounding, ``feasibility_report``'s doubling,
and ``_dec``'s guard width, re-read step, tie window, constants (their
precision and the shift of ln 2), carry, sign and final rounding; in ``rac``'s disc-bound
sampler, the maximum taken, the ball radius and the range of z; and in
``smallangle``'s exact table, T_k's factor 4, the back-shift from T_k to Q_k,
the byte slot's room for the sum of products, the decimal slot one digit
short and its slots packed or read in the wrong order, the 2^(k-1) over which
``poly`` prints P_k from that table and its shift let past k - 1, and one
product of ``omega_estimate``'s raw loop rounded in another order, and
``leading_coefficient`` at 30 digits instead of 40.  A mutant
marked equivalent carries the reason no test can kill it.

It prints one line per mutant (killed or survived, seconds, and the first
failing test, or the reason a survivor is equivalent); tests that run past
TIMEOUT_S kill their mutant.  It exits 1 if a mutant that is not marked
equivalent survives, or if the list is stale.  It always runs the whole list,
two mutants at a time.  Standard library only; about 5 minutes on 2 CPUs.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
KERNEL = ("tests/test_schedule.py",)
SEARCH = ("tests/test_schedule.py", "tests/test_cli.py::TestPinnedBytes")
PRINTER = ("tests/test_cli.py::TestDecimalStrings",)
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    old: str
    new: str
    tests: tuple
    nth: int = 0
    equivalent: Optional[str] = None


def _kernel(name, anchor, old, new, nth=0, equivalent=None):
    return Mutant(name, "schedule.py", anchor, old, new, KERNEL, nth, equivalent)


# (what a line computes, its anchor, its directed roundings down, and up): the
# prelude, the receiver loop, and the report's M and margins
ROUNDINGS = (
    ("W_1 lo", "w_lo = _div(_mul(s_lo", 2, 1), ("W_1 hi", "w_hi = _div(_mul(s_hi", 1, 2),
    ("r sin", "d1, rs_lo, rs_hi = ", 1, 1), ("1+eps", "inf_lo, inf_hi = _add(", 1, 1),
    ("lam lo", "lam_lo = _div(", 2, 0), ("lam hi", "lam_hi = _div(", 0, 2),
    ("lam^2", "sq_lo, sq_hi = _mul(", 1, 1), ("den lo", "den_lo = _add(", 3, 0),
    ("den hi", "den_hi = _add(", 0, 3), ("v", "v_lo, v_hi = _div(", 1, 1),
    ("t lo", "t_lo = _mul(", 1, 0), ("t hi", "t_hi = _mul(", 0, 1), ("W", "w_lo, w_hi = _add(", 1, 1),
    ("delta1 1-W", "d1 = _sub(one", 1, 1), ("delta1 - t", "d1 = _sub(d1[0]", 1, 1),
    ("M lo", "_div((d1[0][0]", 1, 0), ("M hi", "_div((d1[1][0]", 0, 1),
    ("margin", "_mul(eps4, w[0]", 1, 1),
)
FLIPS = tuple(
    _kernel(f"flip {what} {word}#{nth + 1}", anchor, f"prec, {old})", f"prec, {old == 'False'})",
            nth)
    for what, anchor, downs, ups in ROUNDINGS
    for word, old, count in (("down", "False", downs), ("up", "True", ups))
    for nth in range(count)
)

# An endpoint taken from the wrong end of its pair: (line, old, new)
SWAPS = tuple(_kernel(f"swap {line.split(' =')[0]}: {old}", line, old, new) for line, old, new in (
    ("w_lo = _div(_mul(s_lo", "c_hi", "c_lo"), ("w_hi = _div(_mul(s_hi", "c_lo", "c_hi"),
    ("lam_lo = _div(", "inf_lo", "inf_hi"), ("lam_lo = _div(", "w_lo", "w_hi"),
    ("lam_lo = _div(", "d2[1]", "d2[0]"), ("lam_hi = _div(", "inf_hi", "inf_lo"),
    ("lam_hi = _div(", "w_hi", "w_lo"), ("lam_hi = _div(", "d2[0]", "d2[1]"),
    ("sq_lo, sq_hi = _mul(", "lam_lo, lam_lo", "lam_hi, lam_hi"),
    ("sq_lo, sq_hi = _mul(", "lam_hi, lam_hi", "lam_lo, lam_lo"),
    ("den_lo = _add(", "sq_hi", "sq_lo"), ("den_hi = _add(", "sq_lo", "sq_hi"),
    ("v_lo, v_hi = _div(", "_div(sq_lo", "_div(sq_hi"), ("v_lo, v_hi = _div(", "den_hi", "den_lo"),
    ("v_lo, v_hi = _div(", "_div(sq_hi", "_div(sq_lo"), ("v_lo, v_hi = _div(", "den_lo", "den_hi"),
    ("t_lo = _mul(", "d1[0]", "d1[1]"), ("t_lo = _mul(", "(v_lo[0], v_lo[1]", "(v_hi[0], v_hi[1]"),
    ("t_hi = _mul(", "d1[1]", "d1[0]"), ("t_hi = _mul(", "(v_hi[0], v_hi[1]", "(v_lo[0], v_lo[1]"),
    ("w_lo, w_hi = _add(", "w_lo, t_lo", "w_lo, t_hi"), ("w_lo, w_hi = _add(", "w_hi, t_hi", "w_hi, t_lo"),
    ("d1 = _sub(one", "w_hi", "w_lo"), ("d1 = _sub(one", "w_lo", "w_hi"),
    ("d1 = _sub(d1[0]", "_sub(d1[0], t_hi", "_sub(d1[1], t_hi"),
    ("d1 = _sub(d1[0]", "t_hi", "t_lo"), ("d1 = _sub(d1[0]", "t_lo", "t_hi"),
    ("d1 = _sub(d1[0]", "_sub(d1[1], t_lo", "_sub(d1[0], t_lo"),
    ("_div((d1[0][0]", "c_hi", "c_lo"), ("_div((d1[1][0]", "c_lo", "c_hi"),
))

# delta1's two forms: 1 - W where W < 1/2, delta1 - t past it.  Each one-form mutant runs
# only a test that does not mirror the pass: near pi/2 1 - W cancels, and over ~38 receivers
# delta1 - t drifts from 1 - W by more than the Born form of P_k allows
SWITCH = "if w_hi[0].bit_length() + w_hi[1] < 0:"
NEAR_HALF_PI = ("tests/test_schedule.py::TestLambdaSequence::test_near_half_pi_against_the_m_recurrence",)
BORN = ("tests/test_schedule.py::TestReferenceOracle::test_seeded_grid[boundary-1e-20]",)
DECISION = "if not (lam_lo[0] > 0 and"
OTHERS = (
    _kernel("round: direction", "if up else m >> drop", "if up", "if not up"),
    _kernel("decide: lam > 0 as >= 0", DECISION, "lam_lo[0] > 0", "lam_lo[0] >= 0", equivalent=(
        "lam_lo is a product and quotient of positive endpoints rounded down, and an mpf "
        "exponent never underflows, so its mantissa is never 0")),
    _kernel("decide: lam < 1 as < 2", DECISION, "<= 0):", "<= 1):"),
    _kernel("decide: lam < 1 as < 1/2", DECISION, "<= 0):", "< 0):"),
    Mutant("delta1: always 1 - W", "schedule.py", SWITCH, "w_hi[0].bit_length() + w_hi[1] < 0",
           "True", NEAR_HALF_PI),
    Mutant("delta1: always delta1 - t", "schedule.py", SWITCH, "w_hi[0].bit_length() + w_hi[1] < 0",
           "False", BORN),
    _kernel("delta1: W < 1/2 as W < 1", SWITCH, "< 0:", "<= 0:"),
    _kernel("div: sticky bit", "return _round(q | (rem > 0)", "q | (rem > 0)", "q"),
    _kernel("div: shift", "shift = prec + 2 - a[0].bit_length() + b[0]", "prec + 2", "prec"),
    _kernel("sqrt: sticky bit", "return _round(root | (", "root | (root * root != a[0] << shift)",
            "root"),
    _kernel("mid: zero stripping", "zeros = (m & -m)", "(m & -m).bit_length() - 1", "0"),
    _kernel("add: sticky cutoff prec + 1, larger first", "if gap > prec + 4:", "prec + 4", "prec + 1",
            equivalent="see _add's docstring: from a gap of prec + 2 the smaller operand lies "
                       "within half a spacing of the larger"),
    _kernel("add: sticky cutoff prec + 1, smaller first", "elif gap < -prec - 4:", "-prec - 4",
            "-prec - 1", equivalent="as for the larger-first cutoff"),
    _kernel("add: sticky cutoff prec", "if gap > prec + 4:", "prec + 4", "prec"),
    _kernel("working dps: no n term", "return dps + math.ceil(n * math.log10(2))",
            "math.ceil(n * math.log10(2))", "0"),
    Mutant("search: stop 100x looser", "schedule.py", "close = full and", "mpf_le(gap, stop)",
           "mpf_le(gap, mul(stop, from_int(100)))", SEARCH),
    Mutant("search: stop 100x tighter", "schedule.py", "close = full and", "mpf_le(gap, stop)",
           "mpf_le(gap, div(stop, from_int(100)))", SEARCH),
    Mutant("search: rounded down, not to nearest", "schedule.py",
           "partial(f, prec=prec, rnd=", 'rnd="n"', 'rnd="f"', SEARCH),
    _kernel("report: doubling dropped", "b > mp.ldexp(a, 1)", "mp.ldexp(a, 1)", "a"),
)


def _printer(name, anchor, old, new, equivalent=None):
    return Mutant(name, "cli.py", anchor, old, new, PRINTER, 0, equivalent)


DEC = (
    _printer("dec: guard width 1", "_GUARD = 10", "10", "1"),
    _printer("dec: re-read adds no guard", "prec, guard = prec + 64", "guard + 19", "guard"),
    _printer("dec: re-read adds no precision", "prec, guard = prec + 64", "prec + 64", "prec"),
    _printer("dec: tie window 0", "if abs(2 * tail - 10**guard) > 4", "> 4", "> 0"),
    _printer("dec: constants at 256 bits", "k = -(-(e.bit_length()", "-(-(e.bit_length() + prec + 8) // 64) * 64",
             "256"),
    _printer("dec: carry dropped", "point = b + extra - 1 + len(digits)", "len(digits)", "DEC_DIGITS"),
    _printer("dec: sign dropped", "return f\"{'-' * sign}", "'-' * sign", "'' * sign"),
    _printer("dec: undecided rounds down", "head += 2 * tail >=", ">= 10**guard - 4", "> 10**guard + 4"),
    _printer("dec: ln 2 constant doubled", "ln2 >> 16", ">> 16", ">> 15"),
)

DISTRIBUTION = ("tests/test_rac.py::TestSamplerDistribution",)
SAMPLER = (
    Mutant("sampler: mean for max", "rac.py", "return float(_family_delta_sq(vectors)", ".max()",
           ".mean()", ("tests/test_rac.py::TestDiscBound", "tests/test_cli.py::TestVerifyCommand")),
    Mutant("sampler: ball radius sqrt for cbrt", "rac.py", "radius = np.cbrt(", "cbrt", "sqrt",
           DISTRIBUTION),
    Mutant("sampler: z range halved to [-1, 0)", "rac.py", "z *= 2.0", "2.0", "1.0", DISTRIBUTION),
)

SMALLANGLE = ("tests/test_smallangle.py",)
POLY = ("tests/test_cli.py::TestPolyCommand",)
ESTIMATE = ("tests/test_smallangle.py::TestOmegaEstimate",)
TABLE = (
    Mutant("table: T_k = 2*T_{k-1} + ...", "smallangle.py", "nxt[i] += c << 2", "<< 2", "<< 1",
           SMALLANGLE),
    Mutant("table: back-shift by k - 2", "smallangle.py", "return tuple((c << i) >> (k - 1)",
           "(k - 1)", "(k - 2)", SMALLANGLE),
    Mutant("kronecker: slot without the n term", "smallangle.py", "return -(-(2 * max(coeffs)",
           " + len(coeffs).bit_length()", "", SMALLANGLE),
    Mutant("decimal: slot one digit short", "smallangle.py", "width = 2 * max(map(len, digits))",
           "len(str(n))", "len(str(n)) - 1", SMALLANGLE),
    Mutant("decimal: slots packed lowest power first", "smallangle.py",
           "packed = decimal.Decimal(", "reversed(digits)", "digits", SMALLANGLE),
    Mutant("decimal: product read highest power first", "smallangle.py",
           "return [int(square[i - width:i])", "range(len(square), 0, -width)",
           "range(width, len(square) + 1, width)", SMALLANGLE),
    Mutant("poly: P_k over 2^k", "cli.py", "terms, den = [], len(expansion)", "len(expansion)",
           "2 * len(expansion)", POLY),
    Mutant("poly: shift past k - 1", "cli.py", "low = (b | den) & -(b | den)",
           "(b | den) & -(b | den)", "b & -b", POLY),
    Mutant("estimate: dx*p*p as dx*(p*p)", "smallangle.py", "dxpp = mpf_mul(",
           "mpf_mul(mpf_mul(dx, p, prec, rn), p, prec, rn)",
           "mpf_mul(dx, mpf_mul(p, p, prec, rn), prec, rn)", ESTIMATE),
    Mutant("leading coefficient at 30 digits", "smallangle.py",
           "leading_coefficient_numeric(k, c1, dps_to_prec(40))", "40", "30", SMALLANGLE),
)

MUTANTS = FLIPS + SWAPS + OTHERS + DEC + SAMPLER + TABLE


def mutate(text: str, m: Mutant) -> str:
    """``text`` with ``m`` applied; ValueError when ``m`` no longer fits it."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if m.anchor in line]
    if len(hits) != 1:
        raise ValueError(f"anchor {m.anchor!r} is on {len(hits)} lines")
    parts = lines[hits[0]].split(m.old)
    if len(parts) < m.nth + 2:
        raise ValueError(f"{m.old!r} occurs {len(parts) - 1} times on {m.anchor!r}'s line")
    lines[hits[0]] = m.old.join(parts[:m.nth + 1]) + m.new + m.old.join(parts[m.nth + 1:])
    return "".join(lines)


def run_tests(m: Optional[Mutant], tests: tuple, scratch: Path) -> tuple:
    """(pytest exit code, seconds, first failing test id) on a copy of src, mutated by ``m``."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if m is not None:
            path = src / "seqrac" / m.file
            path.write_text(mutate(path.read_text(), m))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(Path(tmp) / "pyc"))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start, f"timeout after {TIMEOUT_S} s"
        failed = re.search(r"^FAILED (\S+)", proc.stdout, re.M)
        return proc.returncode, time.perf_counter() - start, failed and failed.group(1)


def main() -> int:
    stale = []
    for m in MUTANTS:
        try:
            mutate((ROOT / "src" / "seqrac" / m.file).read_text(), m)
        except ValueError as exc:
            stale.append(f"stale     {m.name}: {exc}")
    if stale:
        print("\n".join(stale))
        return 1
    with tempfile.TemporaryDirectory(prefix="seqrac-mutants-") as scratch:
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, seconds, failed = run_tests(None, tests, Path(scratch))
        print(f"baseline  {' '.join(tests)}: exit {code} in {seconds:.1f} s")
        if code != 0:
            print(f"the unmutated tests fail ({failed}); no mutant can be judged")
            return 1
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = pool.map(lambda m: run_tests(m, m.tests, Path(scratch)), MUTANTS)
            bad = 0
            for m, (code, seconds, failed) in zip(MUTANTS, results):
                if code == 0:
                    verdict = "survived" + (" (equivalent)" if m.equivalent else "")
                    bad += not m.equivalent
                elif code == 1 or code is None:
                    verdict = "killed"
                else:
                    verdict, bad = f"error {code}", bad + 1
                print(f"{verdict:<22}{seconds:5.1f} s  {m.name:<44}{failed or m.equivalent or ''}",
                      flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not killed and not marked equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
