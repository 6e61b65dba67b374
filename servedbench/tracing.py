"""Per-layer spans for the served-path benchmark.

The tracer wraps the public functions of each mlabe module at the module
and class attributes their callers look up, records one span per call,
and restores every original attribute when it is uninstalled. Nothing
under ``src/`` is modified.

Spans nest through a per-thread stack. A span opened on a service thread
with an empty stack belongs to the client request in flight: the
benchmark drives one client in a closed loop, so at most one request is
being served at any time. A span's self time is its duration minus the
durations of its direct children, including those server-side children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import mlabe.abe
import mlabe.containers
import mlabe.exchange.services
import mlabe.exchange.storage
import mlabe.exchange.transport
import mlabe.hybrid
import mlabe.multilayer
import mlabe.policy

_S = mlabe.exchange.services

# (layer metric name, owner holding the original, attribute name)
TARGETS = [
    ("policy.parse_policy", mlabe.policy, "parse_policy"),
    ("abe.abe_encrypt", mlabe.abe, "abe_encrypt"),
    ("abe.abe_decrypt", mlabe.abe, "abe_decrypt"),
    ("hybrid.hybrid_encrypt", mlabe.hybrid, "hybrid_encrypt"),
    ("hybrid.fo_decrypt", mlabe.hybrid, "fo_decrypt"),
    ("multilayer.add_layers", mlabe.multilayer, "add_layers"),
    ("multilayer.peel_layers", mlabe.multilayer, "peel_layers"),
    ("multilayer.update_outer_layers", mlabe.multilayer, "update_outer_layers"),
    ("containers.HybridCiphertext.to_bytes", mlabe.containers.HybridCiphertext, "to_bytes"),
    ("containers.HybridCiphertext.from_bytes", mlabe.containers.HybridCiphertext, "from_bytes"),
    ("storage.CtStore.put_new", mlabe.exchange.storage.CtStore, "put_new"),
    ("storage.CtStore.get", mlabe.exchange.storage.CtStore, "get"),
    ("storage.CtStore.update", mlabe.exchange.storage.CtStore, "update"),
    ("storage.CtStore.by_policy", mlabe.exchange.storage.CtStore, "by_policy"),
    ("storage.atomic_write", mlabe.exchange.storage, "atomic_write"),
    ("transport.ServiceClient.request", mlabe.exchange.transport.ServiceClient, "request"),
    ("services.InternalCtEngine.publish", _S.InternalCtEngine, "publish"),
    ("services.InternalCtEngine.on_policy_update", _S.InternalCtEngine, "on_policy_update"),
    ("services.ExternalCtEngine.request", _S.ExternalCtEngine, "request"),
    ("services.AdminService.update_policy", _S.AdminService, "update_policy"),
    ("services.DataOwner.encrypt", _S.DataOwner, "encrypt"),
    ("services.Consumer.decrypt", _S.Consumer, "decrypt"),
]

# Layers moved by one call of each multilayer function, from its bound
# arguments. For an update, the layers peeled plus the layers added.
LAYER_COUNTS = {
    "multilayer.add_layers": lambda a: len(a["policies"]),
    "multilayer.peel_layers": lambda a: a["n"],
    "multilayer.update_outer_layers":
        lambda a: a["ct"].n_layers - a["keep"] + len(a["new_policies"]),
}

CLIENT_REQUEST = "transport.ServiceClient.request"


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    layers: int = 0


@dataclass
class _Span:
    name: str
    parent: "_Span | None"
    start_ns: int
    child_ns: int = 0


@dataclass
class Tracer:
    """Records spans while ``active``; aggregates them per layer name
    across every install."""

    active: bool = False
    stats: dict[str, LayerStats] = field(
        default_factory=lambda: {name: LayerStats() for name, _, _ in TARGETS})
    # CtStore.get calls made inside CtStore.by_policy, i.e. records the
    # update scan read.
    scan_reads: int = 0
    patched: list[tuple[object, str, object]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _in_flight: _Span | None = None

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        count_layers = LAYER_COUNTS.get(name)
        signature = inspect.signature(fn) if count_layers else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._in_flight
            span = _Span(name, parent, time.perf_counter_ns())
            stack.append(span)
            if name == CLIENT_REQUEST:
                tracer._in_flight = span
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if name == CLIENT_REQUEST:
                    tracer._in_flight = None
                duration = end - span.start_ns
                with tracer._lock:
                    if parent is not None:
                        parent.child_ns += duration
                        if name == "storage.CtStore.get" and parent.name == "storage.CtStore.by_policy":
                            tracer.scan_reads += 1
                    entry = tracer.stats[name]
                    entry.calls += 1
                    entry.self_ns += duration - span.child_ns
                    if count_layers:
                        entry.layers += count_layers(
                            signature.bind(*args, **kwargs).arguments)

        return traced

    def install(self) -> None:
        """Wrap every target at each attribute that holds the original.

        Functions are also replaced in every loaded ``mlabe`` module that
        imported them by name (``from .multilayer import add_layers``), so
        those callers reach the wrapper too.
        """
        if self.patched:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in TARGETS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
                self._patch(owner, attr, original, replacement)
            elif isinstance(owner, type):
                self._patch(owner, attr, original, self._wrap(name, original))
            else:
                wrapped = self._wrap(name, original)
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("mlabe")
                            and vars(module).get(attr) is original):
                        self._patch(module, attr, original, wrapped)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self.patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()
