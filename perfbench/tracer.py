"""Per-layer tracing from outside the program.

The tracer replaces the module-level names that callers resolve (for
example ``sys.modules["pes_denoise.denoise"].dwt_analysis`` and
``sys.modules["pes_denoise.projections"].project_l1_ball``) with timing
wrappers, and puts the originals back on exit.  No library source is edited.
The layers are the package's modules; each wrapped function is a span.

Spans nest through a thread-local stack, because the harness runs its
trials on a thread pool.  A span's self time is its duration minus that of
the spans it called on the same thread.  A name that cannot be wrapped is
an error, never a silent zero.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import threading
import time
import types

import numpy as np

PACKAGE = "pes_denoise"
TARGETS = (
    ("spectrum", "select_levels"),
    ("transforms", "dwt_analysis"),
    ("transforms", "dwt_synthesis"),
    ("transforms", "pyramid_analysis"),
    ("transforms", "pyramid_synthesis"),
    ("projections", "project_epigraph_l1"),
    ("projections", "project_l1_ball"),
    ("projections", "soft_threshold"),
    ("denoise", "denoise"),
    ("signals", "generate_test_signal"),
    ("signals", "add_gaussian_noise"),
    ("signals", "snr_db"),
    ("harness", "run_experiment"),
)
HARNESS_SPAN = "harness.run_experiment"


class TraceError(RuntimeError):
    pass


def resolve(module: str, name: str):
    """The original function ``name`` of ``pes_denoise.<module>``.

    Looked up in ``sys.modules``: the package attribute ``pes_denoise.denoise``
    is the function, not the module.
    """
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    if not isinstance(mod, types.ModuleType):
        raise TraceError(f"module {PACKAGE}.{module} is not loaded")
    fn = getattr(mod, name, None)
    if not callable(fn):
        raise TraceError(f"{PACKAGE}.{module} has no function {name!r} to wrap")
    return fn


class Patcher:
    """Rebinds every name in the package's modules that refers to a function."""

    def __init__(self) -> None:
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def replace(self, original, replacement) -> None:
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    bound += 1
        if bound == 0:
            raise TraceError(f"no module binds {original!r}")

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def rows_of(x) -> int:
    """Signals in one denoise input: 1 for a 1-D array, T for a (T, n) batch."""
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


class CallTimer:
    """CPU time of the calling thread in each ``denoise()`` call the harness
    makes, per signal.

    On the harness's thread pool a call's wall time mostly measures when the
    interpreter lock was handed over; the thread's CPU time measures the call.
    The only wrap in an untraced run: one name, two clock reads per call.
    """

    def __init__(self) -> None:
        self.per_signal_s: list[float] = []
        self._patcher = Patcher()

    def __enter__(self) -> CallTimer:
        original = resolve("harness", "denoise")
        sink = self.per_signal_s

        @functools.wraps(original)
        def timed(x, *args, **kwargs):
            t0 = time.thread_time()
            out = original(x, *args, **kwargs)
            sink.append((time.thread_time() - t0) / rows_of(x))
            return out

        self._patcher.replace(original, timed)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()


class _Span:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Context manager: spans for every function in TARGETS while active."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records: list[list[tuple[str, float, float, bool]]] = []
        self._patcher = Patcher()
        self._harness_thread: int | None = None
        # Distinct select_levels inputs: summed over finished units, plus the
        # set of the unit in progress.
        self.distinct_inputs = 0
        self._unit_inputs: set[bytes] = set()
        self.fast_path: list[bool] = []
        self.fir_mmac = 0.0

    # -- span bookkeeping -------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.records = []
            with self._lock:
                self._records.append(local.records)
        return local

    def _span(self, name: str, fn, args, kwargs):
        state = self._thread_state()
        stack = state.stack
        span = _Span(name)
        stack.append(span)
        if name == HARNESS_SPAN:
            self._harness_thread = threading.get_ident()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.child_s += duration
                harness_child = parent.name == HARNESS_SPAN
            else:
                # A trial run on a pool thread has no parent on its own stack.
                harness_child = (
                    self._harness_thread is not None
                    and threading.get_ident() != self._harness_thread
                )
            if name == HARNESS_SPAN:
                self._harness_thread = None
            state.records.append((name, duration, duration - span.child_s, harness_child))

    def _exclude(self, seconds: float) -> None:
        """Keep tracer work done inside a caller out of the caller's self time."""
        stack = self._thread_state().stack
        if stack:
            stack[-1].child_s += seconds

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, module: str, name: str, original):
        label = f"{module}.{name}"
        signature = inspect.signature(original)
        tracer = self

        if (module, name) == ("denoise", "denoise"):

            def wrapper(*args, **kwargs):
                method = signature.bind(*args, **kwargs).arguments["cfg"].method
                return tracer._span(f"denoise.{method}", original, args, kwargs)

        elif (module, name) == ("spectrum", "select_levels"):

            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                x = np.ascontiguousarray(signature.bind(*args, **kwargs).arguments["x"])
                digest = hashlib.blake2b(x.view(np.uint8), digest_size=16).digest()
                with tracer._lock:
                    tracer._unit_inputs.add(digest)
                tracer._exclude(time.perf_counter() - t0)
                return tracer._span(label, original, args, kwargs)

        elif (module, name) == ("transforms", "pyramid_analysis"):

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stages = len(bound.arguments["cutoffs"])
                mmac = bound.arguments["taps"] * np.size(bound.arguments["x"]) * stages / 1e6
                with tracer._lock:
                    tracer.fir_mmac += mmac
                return tracer._span(label, original, args, kwargs)

        elif (module, name) == ("projections", "project_epigraph_l1"):

            def wrapper(*args, **kwargs):
                result = tracer._span(label, original, args, kwargs)
                tracer.fast_path.append(bool(result.fast_path))
                return result

        else:

            def wrapper(*args, **kwargs):
                return tracer._span(label, original, args, kwargs)

        return functools.wraps(original)(wrapper)

    def __enter__(self) -> Tracer:
        try:
            for module, name in TARGETS:
                original = resolve(module, name)
                self._patcher.replace(original, self._wrap(module, name, original))
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def end_unit(self) -> None:
        """Count distinct inputs per unit: units repeat the same inputs."""
        with self._lock:
            self.distinct_inputs += len(self._unit_inputs)
            self._unit_inputs.clear()

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, tuple[list[float], float]]:
        """name -> (durations, total self time)."""
        out: dict[str, tuple[list[float], float]] = {}
        with self._lock:
            records = [r for per_thread in self._records for r in per_thread]
        for name, duration, self_s, _ in records:
            durations, total_self = out.get(name, ([], 0.0))
            durations.append(duration)
            out[name] = (durations, total_self + self_s)
        return out

    def harness_children_busy_s(self) -> float:
        with self._lock:
            return sum(r[1] for per_thread in self._records for r in per_thread if r[3])
