"""Where the traced run wraps the program, and the per-layer metrics.

Every wrapped entry point is one row of :data:`TRACE_POINTS`: the
module, the attribute, and the span name (``None`` when only a hook
counts).  A refactor that moves one of them needs only this table
changed.  The shard transports of the fleet are wrapped by
:class:`ShardProxy`, the transport module's ``json`` by a small shim.
"""

from __future__ import annotations

import importlib
import json
from types import SimpleNamespace

#: (module, class or None, attribute, span name or None, hook key)
TRACE_POINTS = [
    ("repro.service.server", "AllocationService", "step", "server.step", "step"),
    ("repro.extensions.online", "OnlineScheduler", "placement_gain", "online.placement", "placement"),
    ("repro.extensions.online", "OnlineScheduler", "add_thread", "online.mutate", "submit"),
    ("repro.extensions.online", "OnlineScheduler", "remove_thread", "online.mutate", "mutation"),
    ("repro.extensions.online", "OnlineScheduler", "update_capacity", "online.mutate", "mutation"),
    ("repro.extensions.online", "OnlineScheduler", "total_utility", "online.read", None),
    ("repro.extensions.online", "OnlineScheduler", "assignment", "online.read", None),
    ("repro.extensions.online", "OnlineScheduler", "problem", "online.read", None),
    ("repro.extensions.online", "OnlineScheduler", "rebalance", "online.rebalance", "replan"),
    ("repro.engine.context", "SolveContext", "linearization", "engine.linearization", None),
    ("repro.engine.cache", "LinearizationCache", "get", None, "cache"),
    ("repro.allocation.waterfill", None, "water_fill", "kernel.waterfill", "waterfill"),
    ("repro.core.linearize", None, "linearize", "kernel.linearize", None),
    ("repro.core.algorithm2", None, "algorithm2", "kernel.alg2", None),
    ("repro.core.postprocess", None, "reclaim", "kernel.reclaim", None),
    ("repro.allocation.prices", None, "price_discovery", "kernel.prices", None),
    ("repro.allocation.prices", None, "discover_prices_batch", None, "prices"),
    ("repro.core.batch", None, "linearize_batch", "batch.linearize", "trials"),
    ("repro.allocation.waterfill", None, "water_fill_batch", None, "bisection"),
    ("repro.core.algorithm2_batch", None, "algorithm2_batch_kernel", "batch.alg2", None),
    ("repro.core.batch", None, "reclaim_batch", "batch.reclaim", None),
    ("repro.utility.batch", "GenericBatch", "value", None, "scalar"),
    ("repro.utility.batch", "GenericBatch", "derivative", None, "scalar"),
    ("repro.utility.batch", "GenericBatch", "inverse_derivative", None, "scalar"),
    ("repro.utility.batch", "GenericBatch", "inverse_derivative_each", None, "scalar"),
    ("repro.service.transport", None, "request_from_dict", "transport.decode", None),
    ("repro.service.transport", None, "response_from_dict", "transport.decode", None),
    ("repro.service.transport", None, "request_to_dict", "transport.encode", None),
    ("repro.service.transport", None, "response_to_dict", "transport.encode", None),
    ("repro.service.transport", None, "_encode_lines", "transport.encode", None),
    ("repro.service.transport", "TcpServer", "_process_batch", "transport.server_batch", None),
    ("repro.service.fleet.coordinator", "FleetCoordinator", "process", "fleet.process", "window"),
    ("repro.service.fleet.coordinator", "FleetCoordinator", "_certify", "fleet.certify", None),
    ("repro.service.fleet.coordinator", "FleetCoordinator", "rebalance", "fleet.rebalance", "fleet_rebalance"),
]
# Also wrapped outside this table: the heuristics' batch functions
# (re-attached through ``repro.engine.attach_batch_fn`` as span
# ``batch.heuristics``), ``json.loads`` as seen by the transport module
# (``transport.decode``) and each fleet shard transport (``fleet.dispatch``).


def _hooks(counts):
    def add(**kv):
        for key, value in kv.items():
            counts[key] += value

    def window(a, k, r):
        info = (a[2] if len(a) > 2 else k.get("transport_info")) or {}
        counts["transport.coalesce_wait_s"] += float(info.get("coalesce_wait_s", 0.0))

    return {
        "window": window,
        "placement": lambda a, k, r: add(**{"online.placement_calls": 1}),
        "submit": lambda a, k, r: add(**{"online.submits": 1, "online.mutations": 1}),
        "mutation": lambda a, k, r: add(**{"online.mutations": 1}),
        "replan": lambda a, k, r: add(**{"online.replans": 1, "online.migrations": r.migrations}),
        "waterfill": lambda a, k, r: add(**{"waterfill.calls": 1, "waterfill.iterations": int(r.iterations)}),
        "prices": lambda a, k, r: add(**{"kernel.price_calls": 1, "kernel.price_iterations": int(r.iterations.sum())}),
        "trials": lambda a, k, r: add(**{"batch.trials": a[0].n_trials}),
        "bisection": lambda a, k, r: add(**{"batch.bisection_iterations": int(r.iterations.sum())}),
        "scalar": lambda a, k, r: add(**{"utility.scalar_evals": len(a[0])}),
        "fleet_rebalance": lambda a, k, r: add(**{
            "fleet.rebalances": 1, "fleet.migrations": r["migrations"], "fleet.rollbacks": r["rollbacks"]}),
    }


def install(tracer) -> None:
    """Wrap every entry point of :data:`TRACE_POINTS` (traced run only)."""
    from repro.engine import attach_batch_fn, list_solvers
    from repro.service.server import AllocationService

    counts = tracer.counts
    hooks = _hooks(counts)
    for module_name, cls_name, attr, span, hook_key in TRACE_POINTS:
        module = importlib.import_module(module_name)
        hook = hooks.get(hook_key)
        if cls_name is None:
            tracer.patch_function(module, attr, span, hook)
        elif hook_key == "step":
            original = AllocationService.step

            def step(self, *args, _original=original, **kwargs):
                if tracer.armed and self.queue_length:
                    counts["server.steps"] += 1
                    counts["server.batched"] += self.queue_length
                return _original(self, *args, **kwargs)

            AllocationService.step = tracer.wrap(span, step)
        elif hook_key == "cache":
            cls = getattr(module, cls_name)
            original = cls.get

            def get(self, *args, _original=original, **kwargs):
                hits = self.hits
                out = _original(self, *args, **kwargs)
                if tracer.armed:
                    counts["engine.cache_hits" if self.hits > hits else "engine.cache_misses"] += 1
                return out

            cls.get = get
        else:
            tracer.patch_method(getattr(module, cls_name), attr, span, hook)
    for spec in list_solvers(kind="heuristic"):
        attach_batch_fn(spec.name, tracer.wrap("batch.heuristics", spec.batch_fn))
    transport = importlib.import_module("repro.service.transport")
    transport.json = SimpleNamespace(
        loads=tracer.wrap("transport.decode", json.loads), dumps=json.dumps
    )


class ShardProxy:
    """A fleet shard transport that times each batch sent to the shard."""

    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def request(self, *requests):
        tracer = self._tracer
        if tracer.armed:
            tracer.counts["fleet.shard_batches"] += 1
            tracer.counts["fleet.status_probes"] += sum(
                1 for r in requests if r.op == "query" and r.thread_id is None
            )
        return tracer.call("fleet.dispatch", self._inner.request, *requests)


#: Integer work counts that must repeat exactly at one seed.
WORK_COUNTS = (
    "calls", "requests", "server.steps", "server.batched", "online.placement_calls",
    "online.submits", "online.mutations", "online.replans", "online.migrations",
    "engine.cache_hits", "engine.cache_misses", "waterfill.calls", "waterfill.iterations",
    "utility.scalar_evals", "kernel.price_calls", "kernel.price_iterations", "batch.trials",
    "batch.bisection_iterations", "fleet.shard_batches", "fleet.status_probes",
    "fleet.rebalances", "fleet.migrations", "fleet.rollbacks",
)

LAYERS = ("server", "online", "engine", "kernel", "batch", "transport", "fleet")

def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, overhead: float, wire: bool) -> dict[str, float]:
    """Every per-layer metric, from the traced leg's spans and counts.

    ``selftime.*`` plus the coalescing window plus ``trace.residual_ms``
    add up to ``trace.call_ms``: the residual is the call time that no
    wrapped layer accounts for (on a socket workload, the wire).
    """
    c = tracer.counts
    spans = tracer.spans
    name_of = [s[0] for s in spans]

    def parent_name(k):
        p = spans[k][3]
        return name_of[p] if p >= 0 else ""

    def total(pick) -> float:
        return sum(s[2] - s[1] for k, s in enumerate(spans) if pick(k, s[0]))

    self_t = tracer.self_times()
    calls = c["calls"]
    steps, requests = c["server.steps"], c["requests"]
    call_s = total(lambda k, n: n.startswith("call"))
    layer_s = {
        layer: sum(t for n, t in self_t.items() if n.split(".")[0] == layer)
        for layer in LAYERS
    }
    window_s = c["transport.coalesce_wait_s"]
    residual_s = call_s - sum(layer_s.values()) - window_s
    placement_s = total(lambda k, n: n == "online.placement")
    point = lambda k: tracer.under(k, "call.point")  # noqa: E731
    m = {
        "server.step_self_ms": _div(self_t["server.step"], steps) * 1e3,
        "server.batch_size": _div(c["server.batched"], steps),
        "online.placement_ms": _div(placement_s, steps) * 1e3,
        "online.placement_calls_per_submit": _div(c["online.placement_calls"], c["online.submits"]),
        "online.refill_ms": _div(
            total(lambda k, n: n == "online.mutate")
            - total(lambda k, n: n == "online.placement" and parent_name(k) == "online.mutate"),
            c["online.mutations"]) * 1e3,
        "online.read_ms": _div(total(
            lambda k, n: n == "online.read" and parent_name(k) != "online.read"
            and not tracer.under(k, "online.rebalance")), steps) * 1e3,
        "online.rebalance_ms": _div(total(lambda k, n: n == "online.rebalance"), c["online.replans"]) * 1e3,
        "online.replans": _div(c["online.replans"], steps),
        "online.migrations": _div(c["online.migrations"], steps),
        "engine.certify_ms": _div(total(
            lambda k, n: n == "engine.linearization"
            and not tracer.under(k, "online.rebalance")), steps) * 1e3,
        "engine.cache_hits": _div(c["engine.cache_hits"], steps),
        "engine.cache_misses": _div(c["engine.cache_misses"], steps),
        "waterfill.calls_per_request": _div(c["waterfill.calls"], requests),
        "waterfill.iterations_per_call": _div(c["waterfill.iterations"], c["waterfill.calls"]),
        "waterfill.us_per_call": _div(total(lambda k, n: n == "kernel.waterfill"), c["waterfill.calls"]) * 1e6,
        "utility.scalar_evals_per_request": _div(c["utility.scalar_evals"], requests),
        "kernel.price_iterations": _div(c["kernel.price_iterations"], c["kernel.price_calls"]),
        "batch.bisection_iterations_per_trial": _div(c["batch.bisection_iterations"], c["batch.trials"]),
        "transport.coalesce_wait_ms": _div(window_s, calls) * 1e3,
        "transport.decode_us": _div(self_t["transport.decode"], requests) * 1e6,
        "transport.encode_us": _div(self_t["transport.encode"], requests) * 1e6,
        "transport.wire_ms": _div(residual_s, calls) * 1e3 if wire else 0.0,
        "fleet.process_self_ms": _div(self_t["fleet.process"], calls) * 1e3,
        "fleet.dispatch_ms": _div(total(
            lambda k, n: n == "fleet.dispatch" and not tracer.under(k, "fleet.rebalance")), calls) * 1e3,
        "fleet.shard_batches_per_call": _div(c["fleet.shard_batches"], calls),
        "fleet.status_probes_per_call": _div(c["fleet.status_probes"], calls),
        "fleet.certify_ms": _div(total(lambda k, n: n == "fleet.certify"), calls) * 1e3,
        "fleet.rebalance_ms": _div(total(lambda k, n: n == "fleet.rebalance"), c["fleet.rebalances"]) * 1e3,
        "fleet.rebalances": _div(c["fleet.rebalances"], calls),
        "fleet.migrations": _div(c["fleet.migrations"], calls),
        "fleet.rollbacks": _div(c["fleet.rollbacks"], calls),
        "trace.call_ms": _div(call_s, calls) * 1e3,
        "trace.residual_ms": _div(residual_s, calls) * 1e3,
        "trace.overhead": overhead,
    }
    for kernel in ("linearize", "alg2", "reclaim", "prices"):
        seconds = total(lambda k, n: n == f"kernel.{kernel}")
        count = sum(1 for n in name_of if n == f"kernel.{kernel}")
        m[f"kernel.{kernel}_ms"] = _div(seconds, count) * 1e3
    for part in ("linearize", "alg2", "reclaim", "heuristics"):
        seconds = total(lambda k, n: n == f"batch.{part}" and point(k))
        m[f"batch.{part}_us_per_trial"] = _div(seconds, c["batch.trials"]) * 1e6
    for layer in LAYERS:
        m[f"selftime.{layer}_ms"] = _div(layer_s[layer], calls) * 1e3
    if residual_s < -1e-6 * max(call_s, 1.0):
        raise RuntimeError(f"layer self times exceed the call time by {-residual_s:.6f} s")
    return m
