"""Per-layer spans for supercrit, recorded by wrapping its functions from outside.

``Tracer.install`` replaces every binding a caller looks up with a timing
wrapper: the defining module's name and each ``from ... import`` alias of it
in the other modules (``runner.wave_run`` is ``wave_integrator.run``), the
``numpy.fft`` transforms, the runner's dispatch table, and the evaluators of
every nonlinearity spec the catalog hands out. ``uninstall`` puts the
originals back, so untraced runs execute the unmodified program.

Spans live in memory: name, layer, start, end, parent span and thread. Each
thread keeps its own parent stack, so spans opened by the runner's pool
threads do not nest under each other.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import threading
import time
from collections import defaultdict

import numpy as np
import numpy.fft

LAYERS = (
    "cli",
    "config",
    "runner",
    "nonlinearity",
    "field_core",
    "wave_integrator",
    "nls_integrator",
    "assumption_lab",
    "weak_strong",
)
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
SPEC_FACTORIES = ("from_selection", "builtin_catalog", "catalog_by_name", "truncate")
NLS_SPEC_METHODS = ("force", "dforce", "potential")
ESTIMATORS = (
    "assumption_lab.estimate_remainder_constant",
    "assumption_lab.estimate_taylor_constant",
    "assumption_lab.estimate_phase_bound",
    "assumption_lab.estimate_nls_taylor_constant",
    "assumption_lab.find_convexity_shift",
)
INTEGRATOR_RUNS = ("wave_integrator.run", "nls_integrator.run")
MIB = 2.0 ** 20


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "info")

    def __init__(self, name, layer, parent, thread):
        self.name, self.layer, self.parent, self.thread = name, layer, parent, thread
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# what a span records about its call, read from arguments and result
# ---------------------------------------------------------------------------

def _fft_info(args, kwargs, result):
    return {"points": result.size, "bytes": np.asarray(args[0]).nbytes + result.nbytes}


def _eval_info(args, kwargs, result):
    return {"points": np.size(args[0])}


def _method_info(args, kwargs, result):
    return {"points": np.size(args[1])}


def _run_info(args, kwargs, result):
    traj = result[0]
    arrays = list(traj.us) + list(getattr(traj, "uts", ()))
    return {
        "steps": args[0].steps(),
        "records": len(traj),
        "snapshot_bytes": sum(a.nbytes for a in arrays),
    }


def _body_info(args, kwargs, result):
    return {"payload_bytes": sum(len(data) for data in result[1].values())}


_INFO = {
    "wave_integrator.run": _run_info,
    "nls_integrator.run": _run_info,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn, name: str, info=None, post=None):
        local, spans, clock = self._local, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, layer, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return post(result) if post is not None else result

        traced.__traced__ = True
        return traced

    def _trace_spec(self, obj):
        """Wrap the evaluator fields of a spec, or of each spec in a list or dict."""
        if isinstance(obj, list):
            return [self._trace_spec(s) for s in obj]
        if isinstance(obj, dict):
            return {k: self._trace_spec(s) for k, s in obj.items()}
        fields = {
            f.name: self._wrap("nonlinearity", getattr(obj, f.name),
                               f"nonlinearity.{f.name}", info=_eval_info)
            for f in dataclasses.fields(obj)
            if callable(getattr(obj, f.name))
            and not getattr(getattr(obj, f.name), "__traced__", False)
        }
        return dataclasses.replace(obj, **fields)

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        modules = {layer: importlib.import_module(f"supercrit.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                post = self._trace_spec if layer == "nonlinearity" and attr in SPEC_FACTORIES else None
                wrapped[obj] = self._wrap(layer, obj, name, info=_INFO.get(name), post=post)
        for attr in FFT_FUNCTIONS:
            fn = getattr(numpy.fft, attr)
            wrapped[fn] = self._wrap("fft", fn, f"fft.{attr}", info=_fft_info)

        for mod in [*modules.values(), numpy.fft]:
            for attr, obj in list(vars(mod).items()):
                try:
                    replacement = wrapped.get(obj)
                except TypeError:        # unhashable module attribute
                    continue
                if replacement is not None:
                    self._patch(mod, attr, replacement)

        dispatch = modules["runner"]._DISPATCH
        for kind, body in list(dispatch.items()):
            self._patch(dispatch, kind, self._wrap("runner", body, "runner.body", info=_body_info))
        nls_spec = modules["nonlinearity"].NlsNonlinearitySpec
        for attr in NLS_SPEC_METHODS:
            method = nls_spec.__dict__[attr]
            self._patch(nls_spec, attr, self._wrap("nonlinearity", method,
                                                   f"nonlinearity.{attr}", info=_method_info))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans[:] = list(self.spans), []
        return spans


# ---------------------------------------------------------------------------
# per-layer metrics of one experiment
# ---------------------------------------------------------------------------

def _is_eval(span) -> bool:
    return span.layer == "nonlinearity" and span.info is not None


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of the spans of one CLI experiment, keyed by name.

    Self time is a span's duration minus its children's; children share the
    parent's thread, so they never overlap. ``X.fft_calls`` counts transforms
    with a span of layer X among their ancestors.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    anc_cache: dict = {}

    def ancestors(s) -> frozenset:
        key = id(s)
        if key not in anc_cache:
            p = s.parent
            anc_cache[key] = frozenset() if p is None else ancestors(p) | {p.layer}
        return anc_cache[key]

    def self_time(s) -> float:
        return s.duration - sum(c.duration for c in children[id(s)])

    def layer_self(layer) -> float:
        return sum(self_time(s) for s in spans if s.layer == layer)

    def named(name) -> list:
        return [s for s in spans if s.name == name]

    ffts = [s for s in spans if s.layer == "fft"]
    evals = [s for s in spans if _is_eval(s) and not (s.parent and _is_eval(s.parent))]

    def ffts_under(layer, without=None) -> int:
        return sum(1 for s in ffts
                   if layer in ancestors(s) and (without is None or without not in ancestors(s)))

    def mpoints_under(layer) -> float:
        return sum(s.info["points"] for s in evals if layer in ancestors(s)) / 1e6

    out = {
        "fft.calls": len(ffts),
        "fft.self_s": sum(s.duration for s in ffts),
        "fft.mbytes_computed": sum(s.info["bytes"] for s in ffts) / 1e6,
        "fft.gflop_computed": sum(5.0 * s.info["points"] * math.log2(s.info["points"])
                                  for s in ffts if s.info["points"] > 1) / 1e9,
    }

    for layer in ("wave_integrator", "nls_integrator"):
        runs = named(f"{layer}.run")
        steps = sum(s.info["steps"] for s in runs)
        out[f"{layer}.steps"] = steps
        out[f"{layer}.ffts_per_step"] = ffts_under(layer, without="field_core") / steps if steps else 0.0
        out[f"{layer}.snapshot_mib"] = sum(s.info["snapshot_bytes"] for s in runs) / MIB
        if layer == "wave_integrator":
            out[f"{layer}.records"] = sum(s.info["records"] for s in runs)
            # the stepper is private: a step is the run minus its diagnostics
            stepping = sum(
                s.duration - sum(c.duration for c in children[id(s)] if c.layer == "field_core")
                for s in runs
            )
            out[f"{layer}.step_ms"] = 1e3 * stepping / steps if steps else 0.0
        else:
            for flow in ("linear_flow", "nonlinear_flow"):
                out[f"{layer}.{flow}_s"] = sum(s.duration for s in named(f"{layer}.{flow}"))

    out["field_core.calls"] = sum(1 for s in spans if s.layer == "field_core")
    out["field_core.self_s"] = layer_self("field_core")
    out["field_core.fft_calls"] = ffts_under("field_core")

    out["nonlinearity.calls"] = len(evals)
    out["nonlinearity.mpoints"] = sum(s.info["points"] for s in evals) / 1e6
    out["nonlinearity.self_s"] = layer_self("nonlinearity")

    estimates = sum(len(named(name)) for name in ESTIMATORS)
    out["assumption_lab.estimates"] = estimates
    out["assumption_lab.self_s"] = layer_self("assumption_lab")
    out["assumption_lab.mpoints"] = mpoints_under("assumption_lab")
    out["assumption_lab.mpoints_per_estimate"] = (
        out["assumption_lab.mpoints"] / estimates if estimates else 0.0
    )

    out["weak_strong.calls"] = sum(1 for s in spans if s.layer == "weak_strong")
    out["weak_strong.self_s"] = layer_self("weak_strong")
    out["weak_strong.fft_calls"] = ffts_under("weak_strong")
    out["weak_strong.mpoints"] = mpoints_under("weak_strong")

    (experiment,) = named("runner.run_experiment")
    (body,) = named("runner.body")
    (cli_main,) = named("cli.main")
    out["runner.body_s"] = body.duration
    out["runner.publish_s"] = experiment.end - body.end
    out["runner.payload_kib"] = body.info["payload_bytes"] / 1024.0
    out["runner.trajectories"] = sum(len(named(name)) for name in INTEGRATOR_RUNS)
    out["cli.parse_s"] = experiment.start - cli_main.start
    return out


def span_records(spans: list) -> list:
    """JSON-ready span list; parents are given by index into the list."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "thread": s.thread,
            **({"info": s.info} if s.info else {}),
        }
        for s in spans
    ]
