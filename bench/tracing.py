"""Per-layer tracing from outside the package.

``Tracer.install`` replaces seqrac's public functions at the names their
callers look up (``seqrac.cli.find_omega``, ``seqrac.schedule.lambda_sequence``
and so on) with wrappers that record one span per call: name, start, end,
parent span, op id and a work count.  Spans are kept in memory as columns of
integers.  ``Tracer.remove`` puts the original objects back and reports any
attribute that is not the original afterwards.  Nothing under ``src/``
changes.

The layers are seqrac's modules; a span belongs to the module that defines
the wrapped function.  ``DensityOp.from_bloch`` is too hot to time, so it is
only counted.
"""

from __future__ import annotations

import functools
import importlib
import threading
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("bloch", "rac", "channel", "sequential", "schedule", "smallangle", "montecarlo", "cli")

# (owner, attribute) pairs wrapped with a timed span.  The owner is where the
# caller looks the name up, so a function imported into several modules is
# wrapped once per importing module.
SPAN_TARGETS = (
    ("seqrac.cli", "main"),
    ("seqrac.cli", "run_simulation"),
    ("seqrac.cli", "analytic_reference"),
    ("seqrac.cli", "square_preparations"),
    ("seqrac.cli", "thresholds"),
    ("seqrac.cli", "feasibility_report"),
    ("seqrac.cli", "find_omega"),
    ("seqrac.cli", "lambda_sequence"),
    ("seqrac.cli", "propagate"),
    ("seqrac.cli", "odd_power_expansion"),
    ("seqrac.cli", "small_angle_poly"),
    ("seqrac", "kraus_pair"),
    ("seqrac.rac", "theorem1_sampler"),
    ("seqrac.rac", "distinguishability"),
    ("seqrac.sequential", "lemma2_violation_probe"),
    ("seqrac.sequential", "propagate"),
    ("seqrac.sequential", "delta_pair"),
    ("seqrac.sequential", "nonselective_step"),
    ("seqrac.montecarlo", "propagate"),
    ("seqrac.montecarlo", "nonselective_step"),
    ("seqrac.schedule", "lambda_sequence"),
    ("seqrac.schedule", "leading_coefficient_numeric"),
    ("seqrac.smallangle", "small_angle_poly"),
    ("seqrac.smallangle", "odd_power_expansion"),
    ("seqrac.smallangle", "omega_estimate"),
    ("seqrac.smallangle.RationalPolynomial", "__mul__"),
)
COUNT_TARGETS = (("seqrac.bloch.DensityOp", "from_bloch"),)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _work_counters(shard_size: int) -> dict:
    """Work count recorded with each span, by span name."""
    return {
        "montecarlo.run": lambda a, k: -(-_arg(a, k, 0, "config").shots // shard_size),
        "schedule.lambda_sequence": lambda a, k: int(_arg(a, k, 3, "n")),
        "sequential.propagate": lambda a, k: len(_arg(a, k, 1, "steps")),
        "rac.theorem1_sampler": lambda a, k: int(_arg(a, k, 0, "count")),
        "smallangle.RationalPolynomial.__mul__":
            lambda a, k: len(a[0].coefficients) * len(a[1].coefficients),
    }


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` plus attribute ``C`` where needed."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def span_name(fn) -> str:
    fn = getattr(fn, "__func__", fn)
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class Tracer:
    """Records spans while installed and ``recording`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.work = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self.recording = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, work):
        name_id = self._name_id(span_name(fn))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.start)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.name.append(name_id)
            tracer.work.append(work(args, kwargs) if work else 0)
            tracer.start.append(0)
            tracer.end.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1

        return wrapper

    def _count_wrapper(self, method: classmethod) -> classmethod:
        func = method.__func__
        name = span_name(func)
        tracer = self

        @functools.wraps(func)
        def wrapper(cls, *args, **kwargs):
            if tracer.recording:
                tracer.counts[name] += 1
            return func(cls, *args, **kwargs)

        return classmethod(wrapper)

    def install(self) -> None:
        shard_size = importlib.import_module("seqrac.montecarlo").SHARD_SIZE
        work = _work_counters(shard_size)
        for path, attr in SPAN_TARGETS:
            owner = _resolve(path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span_wrapper(original, work.get(span_name(original))))
        for path, attr in COUNT_TARGETS:
            owner = _resolve(path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count_wrapper(original))

    def remove(self) -> list[str]:
        """Restore every wrapped attribute; return those not restored."""
        self.recording = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if vars(owner)[attr] is not original
        ]
        self._saved.clear()
        return wrong


def layer_metrics(tracer: Tracer, ops: int, op_wall_ns: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass over ``ops`` ops
    whose summed op latency was ``op_wall_ns``."""
    n_spans = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n_spans)]
    child = [0] * n_spans
    for i in range(n_spans):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    names = tracer.names
    span_names = [names[tracer.name[i]] for i in range(n_spans)]

    calls: Counter = Counter()
    total: Counter = Counter()  # inclusive ns by span name
    self_ns: Counter = Counter()  # self ns by span name
    work: Counter = Counter()
    for i, name in enumerate(span_names):
        calls[name] += 1
        total[name] += dur[i]
        self_ns[name] += dur[i] - child[i]
        work[name] += tracer.work[i]

    def mean(name: str, scale: float) -> float:
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    for name in calls:
        layer = name.partition(".")[0]
        layer_self[layer] += self_ns[name]
        layer_calls[layer] += calls[name]
    for name, count in tracer.counts.items():
        layer_calls[name.partition(".")[0]] += count
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(layer_self[layer], op_wall_ns)
        m[f"{layer}.calls_per_op"] = layer_calls[layer] / ops

    m["montecarlo.run_ms"] = mean("montecarlo.run", 1e-6)
    m["montecarlo.analytic_ms"] = mean("montecarlo.analytic_reference", 1e-6)
    m["montecarlo.shards_per_op"] = work["montecarlo.run"] / ops

    search = names.index("schedule.find_omega") if "schedule.find_omega" in names else -1
    evals = sum(
        1 for i, name in enumerate(span_names)
        if name == "schedule.lambda_sequence" and tracer.parent[i] >= 0
        and tracer.name[tracer.parent[i]] == search
    )
    m["schedule.evals_per_search"] = ratio(evals, calls["schedule.find_omega"])
    m["schedule.lambda_sequence_us_per_receiver"] = ratio(
        total["schedule.lambda_sequence"] * 1e-3, work["schedule.lambda_sequence"])
    m["schedule.find_omega_ms"] = mean("schedule.find_omega", 1e-6)

    mul = "smallangle.RationalPolynomial.__mul__"
    m["smallangle.mul_calls_per_op"] = calls[mul] / ops
    m["smallangle.coeff_products_per_op"] = work[mul] / ops
    m["smallangle.ns_per_coeff_product"] = ratio(self_ns[mul], work[mul])
    # Exact P_K build time per op that builds one: outermost calls only,
    # since small_angle_poly recurses through its own module name.
    poly = "smallangle.small_angle_poly"
    outer = [
        i for i, name in enumerate(span_names)
        if name == poly and (tracer.parent[i] < 0 or span_names[tracer.parent[i]] != poly)
    ]
    m["smallangle.poly_ms"] = ratio(
        sum(dur[i] for i in outer) * 1e-6, len({tracer.op[i] for i in outer}))
    m["smallangle.estimate_self_ms"] = ratio(
        self_ns["smallangle.omega_estimate"] * 1e-6, calls["smallangle.omega_estimate"])
    m["smallangle.leading_numeric_us"] = mean("smallangle.leading_coefficient_numeric", 1e-3)

    m["sequential.propagate_us_per_step"] = ratio(
        total["sequential.propagate"] * 1e-3, work["sequential.propagate"])
    m["channel.nonselective_step_us"] = mean("channel.nonselective_step", 1e-3)
    m["rac.delta_pair_us"] = mean("rac.delta_pair", 1e-3)
    m["rac.sampler_ns_per_family"] = ratio(
        total["rac.theorem1_sampler"], work["rac.theorem1_sampler"])
    m["bloch.states_built_per_op"] = tracer.counts["bloch.DensityOp.from_bloch"] / ops
    m["cli.self_ms_per_op"] = layer_self["cli"] * 1e-6 / ops
    return m
