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
directed rounding of the pass's interval operations and ``_round``'s direction
flipped, each operand end of those operations taken from the other end, delta1
held to one of its two forms and their W < 1/2 switch moved to W < 1, the lam
in (0, 1) decision at both edges, the sticky bits of ``_div`` and ``_sqrt``,
``_mid``'s zero stripping, ``_add``'s sticky cutoff, ``_working_dps``'s n term,
``find_omega``'s stop test and its rounding, ``feasibility_report``'s doubling,
and ``_dec``'s guard width, re-read step, tie window, constants (their
precision and the shift of ln 2), carry, sign and final rounding; in ``rac``'s disc-bound
sampler, the maximum taken, the ball radius and the range of z; and in
``smallangle``'s exact table, T_k's first coefficient N^2 taken as N, each
factor of its coefficient ratio off by one and the back-shift from T_k to Q_k,
the 2^(k-1) over which ``poly`` prints P_k from that table and its shift let
past k - 1, and ``leading_coefficient`` at 30 digits instead of 40; in c_k's
closed form, sqrt(2) read as 2, the N shift k - 1 read as k, sinh and cosh
swapped and the guard's k term dropped, and ``omega_estimate``'s 1 - eps read
as 1; and five comparisons moved onto their tolerance edge: ``>=`` as ``>`` in
``_float_if_normal`` and in both of ``thresholds``' denominator tests,
``_check_alignment``'s full difference ``2.0 * along`` read as the halved one,
and ``<`` as ``<=`` at ``ZERO_PROB_TOL``.  A mutant marked equivalent carries
the reason no test can kill it.

It prints one line per mutant (killed or survived, seconds, and the first
failing test, or the reason a survivor is equivalent); tests that run past
TIMEOUT_S kill their mutant.  It exits 1 if a mutant that is not marked
equivalent survives, or if the list is stale.  It always runs the whole list,
two mutants at a time.  Standard library only; about 4 minutes on 2 CPUs.
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


# The certified pass's interval operations: each directed rounding flipped, and each operand
# end taken from the other end of its interval
OPERATIONS = {"add": "ab", "sub": "ab", "mul": "ab", "div": "ab", "sqrt": "a"}
FLIPS = tuple(_kernel(f"flip {op} {end}", f"def {op}(", f"prec, {old})", f"prec, {old == 'False'})")
              for op in OPERATIONS for end, old in (("lo", "False"), ("hi", "True")))
SWAPS = tuple(_kernel(f"swap {op}: {x}[{i}] as {x}[{1 - i}]", f"def {op}(", f"{x}[{i}]", f"{x}[{1 - i}]")
              for op, operands in OPERATIONS.items() for x in operands for i in (0, 1))

# delta1's two forms: 1 - W where W < 1/2, delta1 - t past it.  Each one-form mutant runs
# only a test that does not mirror the pass: near pi/2 1 - W cancels, and over ~38 receivers
# delta1 - t drifts from 1 - W by more than the Born form of P_k allows
SWITCH = "d1 = sub(one, w) if"
NEAR_HALF_PI = ("tests/test_schedule.py::TestLambdaSequence::test_near_half_pi_against_the_m_recurrence",)
BORN = ("tests/test_schedule.py::TestReferenceOracle::test_seeded_grid[boundary-1e-20]",)
DECISION = "if not (lam[0][0] > 0 and"
OTHERS = (
    _kernel("round: direction", "if up else m >> drop", "if up", "if not up"),
    _kernel("decide: lam > 0 as >= 0", DECISION, "lam[0][0] > 0", "lam[0][0] >= 0", equivalent=(
        "lam's lo end is a product and quotient of positive endpoints rounded down, and an mpf "
        "exponent never underflows, so its mantissa is never 0")),
    _kernel("decide: lam < 1 as < 2", DECISION, "<= 0):", "<= 1):"),
    _kernel("decide: lam < 1 as < 1/2", DECISION, "<= 0):", "< 0):"),
    Mutant("delta1: always 1 - W", "schedule.py", SWITCH, "w[1][0].bit_length() + w[1][1] < 0",
           "True", NEAR_HALF_PI),
    Mutant("delta1: always delta1 - t", "schedule.py", SWITCH, "w[1][0].bit_length() + w[1][1] < 0",
           "False", BORN),
    _kernel("delta1: W < 1/2 as W < 1", SWITCH, "< 0 else", "<= 0 else"),
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
RATIO = "t.append(t[-1] * ("
TABLE = (
    Mutant("table: t_0 = N", "smallangle.py", "t = [n * n]", "n * n", "n", SMALLANGLE),
    Mutant("table: N+i+1 as N+i", "smallangle.py", RATIO, "(n + i + 1)", "(n + i)", SMALLANGLE),
    Mutant("table: N-i-1 as N-i", "smallangle.py", RATIO, "(n - i - 1)", "(n - i)", SMALLANGLE),
    Mutant("table: 2i+3 as 2i+1", "smallangle.py", RATIO, "(2 * i + 3)", "(2 * i + 1)", SMALLANGLE),
    Mutant("table: i+2 as i+1", "smallangle.py", RATIO, "(i + 2)", "(i + 1)", SMALLANGLE),
    Mutant("table: back-shift by k - 2", "smallangle.py", "return tuple((c << i) >> (k - 1)",
           "(k - 1)", "(k - 2)", SMALLANGLE),
    Mutant("poly: P_k over 2^k", "cli.py", "terms, den = [], len(expansion)", "len(expansion)",
           "2 * len(expansion)", POLY),
    Mutant("poly: shift past k - 1", "cli.py", "low = (b | den) & -(b | den)",
           "(b | den) & -(b | den)", "b & -b", POLY),
    Mutant("leading coefficient at 30 digits", "smallangle.py",
           "leading_coefficient_numeric(k, c1, dps_to_prec(40))", "40", "30", SMALLANGLE),
)

# c_k's closed form 2*sinh(N*phi)^2/(N*c1) and the estimate's linearised denominator
SINH_COSH = "ch, sh = mpf_cosh_sinh("
CLOSED_FORM = (
    Mutant("closed form: sqrt(2) read as 2", "smallangle.py", "x = mpf_div(c, mpf_sqrt(ftwo",
           "mpf_sqrt(ftwo, wp, rn)", "ftwo", SMALLANGLE),
    Mutant("closed form: N shift k - 1 as k", "smallangle.py", SINH_COSH, "k - 1", "k", SMALLANGLE),
    Mutant("closed form: sinh and cosh swapped", "smallangle.py", SINH_COSH, "ch, sh", "sh, ch",
           SMALLANGLE),
    Mutant("closed form: guard's k term dropped", "smallangle.py", "wp = prec + k + abs(", "prec + k +",
           "prec +", SMALLANGLE),
    Mutant("estimate: (1 - eps) read as 1", "smallangle.py", "den = mpf_add(mpf_mul(mpf_sub(",
           "mpf_sub(fone, epsilon, prec, rn)", "fone", ESTIMATE),
)

# Comparisons at a tolerance, each moved onto its edge
EDGES = (
    Mutant("float if normal: >= as >", "smallangle.py", "abs(f) >= sys.float_info.min", ">=", ">",
           SMALLANGLE),
    Mutant("thresholds: symmetric >= as >", "rac.py", "lambda_symmetric_critical=1.0 / (d1 + d2) if",
           ">=", ">", ("tests/test_rac.py::TestThresholds",)),
    Mutant("thresholds: asymmetric >= as >", "rac.py", "lambda_asymmetric_critical=(1.0 - d1) / d2 if",
           ">=", ">", ("tests/test_rac.py::TestThresholds",)),
    Mutant("alignment: 2.0 * along as along", "sequential.py", "or 2.0 * along < -ALIGNMENT_TOL",
           "2.0 * along", "along", ("tests/test_sequential.py::TestAlignmentTolerance",)),
    Mutant("zero probability: < as <=", "channel.py", "if prob < ZERO_PROB_TOL:", "<", "<=",
           ("tests/test_channel.py",), equivalent=(
               "prob = (1 + x)/2 is below 1/4 only for x < -1/2: negative below x = -1, and on "
               "[-1, -1/2) 1 + x is exact (Sterbenz) and a multiple of 2^-53, so prob is one of "
               "2^-54; 1e-15 is 18.01 of those, so no prob equals ZERO_PROB_TOL")),
)

MUTANTS = FLIPS + SWAPS + OTHERS + DEC + SAMPLER + TABLE + CLOSED_FORM + EDGES


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
