"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each layer function in every `hasseweil.*` module
namespace that binds it (plus the `WeierstrassCurve` methods and
`mpmath.gammainc`) with a wrapper that records a span; `uninstall` puts the
original objects back.  The kernel implementation modules
(`hasseweil._kernels_py`, `hasseweil._kernels`) are left alone, so one kernel
span covers one whole kernel call.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

FIELDS = ("name", "start", "end", "parent", "request", "error")
NAME, START, END, PARENT, REQUEST, ERROR = range(6)


def _primes(tracer, args, kwargs):
    tracer.counts["kernels.ap_sweep.primes"] += len(args[5])


def _curve(tracer, args, kwargs):
    tracer.keys["curves.minimal_model"].add(args[0].ainvs())


def _bad_prime(tracer, args, kwargs):
    tracer.keys["localdata.tate_local"].add((args[0].ainvs(), args[1]))


def _n_asked(tracer, args, kwargs):
    curve, n = args[0].ainvs(), args[1]
    tracer.counts["lseries.dirichlet_coefficients.n_total"] += n
    tracer.n_asked[curve] = max(tracer.n_asked.get(curve, 0), n)


def _context(tracer, args, kwargs):
    ctx = args[0]
    tracer.contexts[id(ctx)] = (ctx.n_max, ctx.dps)


# layer -> [(module in hw, attribute)] and what the wrapper notes on each call;
# module "WeierstrassCurve" means the class, "mpmath" the mpmath module
LAYERS = {
    "kernels.ap_sweep": ([("kernels", "ap_sweep")], _primes),
    "kernels.ap_bsgs": ([("kernels", "ap_bsgs")], None),
    "kernels.count_points_mod_p": ([("kernels", "count_points_mod_p")], None),
    "curves.minimal_model": ([("WeierstrassCurve", "minimal_model")], _curve),
    "curves.torsion": ([("WeierstrassCurve", "torsion_subgroup"),
                        ("WeierstrassCurve", "torsion_order")], None),
    "localdata.ap_sweep": ([("localdata", "ap_sweep")], None),
    "localdata.ap": ([("localdata", "ap")], None),
    "localdata.tate_local": ([("localdata", "tate_local")], _bad_prime),
    "localdata.conductor": ([("localdata", "conductor")], None),
    "lseries.dirichlet_coefficients": ([("lseries", "dirichlet_coefficients")], _n_asked),
    "lseries.eval_euler": ([("lseries", "eval_euler")], None),
    "analytic.root_number": ([("analytic", "root_number")], _context),
    "analytic.f_on_imaginary_axis": ([("analytic", "f_on_imaginary_axis")], _context),
    "analytic.lambda_value": ([("analytic", "lambda_value")], _context),
    "analytic.l_value": ([("analytic", "l_value")], _context),
    "analytic.lambda_derivative": ([("analytic", "lambda_derivative")], _context),
    "analytic.incgamma_upper_deriv_at_1": ([("analytic", "incgamma_upper_deriv_at_1")], None),
    "analytic.analytic_rank": ([("analytic", "analytic_rank")], _context),
    "analytic.gammainc": ([("mpmath", "gammainc")], None),
    "heights.canonical_height": ([("heights", "canonical_height")], None),
    "bsd.real_period": ([("bsd", "real_period")], None),
    "bsd.regulator": ([("bsd", "regulator")], None),
    "bsd.bsd_report": ([("bsd", "bsd_report")], None),
    "cli.main": ([("cli", "main")], None),
}


def _owners(hw, module: str, attr: str):
    """Every namespace that binds the original object under `attr`."""
    if module == "WeierstrassCurve":
        return [hw.curves.WeierstrassCurve]
    if module == "mpmath":
        return [sys.modules["mpmath"]]
    original = getattr(getattr(hw, module), attr)
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "hasseweil" or name.startswith("hasseweil."))
            and not name.startswith("hasseweil._kernels")
            and getattr(mod, attr, None) is original]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.n_asked: dict = {}
        self.contexts: dict = {}
        self.patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(tracer, args, kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None,
                    tracer.request, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()

        return wrapper

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self.stack.append(len(self.spans))
        self.spans.append(["request", time.perf_counter(), 0.0, None, request_id, False])

    def end_request(self) -> None:
        self.spans[self.stack.pop()][END] = time.perf_counter()
        self.request = None

    # -- patching -----------------------------------------------------------

    def install(self, hw) -> None:
        for layer, (targets, note) in LAYERS.items():
            for module, attr in targets:
                owners = _owners(hw, module, attr)
                if not owners:
                    raise LookupError(f"{module}.{attr} not found for layer {layer}")
                original = owners[0].__dict__[attr]
                wrapper = self.wrap(layer, original, note)
                for owner in owners:
                    self.patches.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo, hi = max(spans[child][START], reach), min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, backend: str) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, selfs):
        calls[span[NAME]] += 1
        self_s[span[NAME]] += own
        errors[span[NAME]] += span[ERROR]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {"kernels.backend": (0 if backend == "python" else 1, "code")}
    for layer in LAYERS:
        if layer != "bsd.bsd_report":
            m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    for layer in ("kernels.ap_bsgs", "analytic.root_number", "analytic.analytic_rank",
                  "bsd.real_period"):
        m[f"{layer}.errors"] = (errors[layer], "count")
    primes = tracer.counts["kernels.ap_sweep.primes"]
    m["kernels.ap_sweep.primes"] = (primes, "count")
    m["kernels.ap_sweep.us_per_prime"] = (1e6 * ratio(self_s["kernels.ap_sweep"], primes), "us")
    m["kernels.ap_bsgs.us_per_prime"] = (
        1e6 * ratio(self_s["kernels.ap_bsgs"], calls["kernels.ap_bsgs"]), "us")
    m["curves.minimal_model.per_curve"] = (
        ratio(calls["curves.minimal_model"], len(tracer.keys["curves.minimal_model"])), "ratio")
    m["localdata.tate_local.per_bad_prime"] = (
        ratio(calls["localdata.tate_local"], len(tracer.keys["localdata.tate_local"])), "ratio")
    n_total = tracer.counts["lseries.dirichlet_coefficients.n_total"]
    m["lseries.dirichlet_coefficients.n_total"] = (n_total, "count")
    m["lseries.dirichlet_coefficients.redundancy"] = (
        ratio(n_total, sum(tracer.n_asked.values())), "ratio")
    contexts = list(tracer.contexts.values())
    m["analytic.n_max"] = (ratio(sum(c[0] for c in contexts), len(contexts)), "count")
    m["analytic.dps"] = (ratio(sum(c[1] for c in contexts), len(contexts)), "digits")
    return m

