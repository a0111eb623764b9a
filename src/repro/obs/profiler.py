"""A zero-dependency sampling wall-clock profiler for live workers.

:class:`SamplingProfiler` snapshots every thread's Python stack via
``sys._current_frames()`` on a fixed wall-clock cadence from a daemon
sampler thread, and folds the samples into collapsed-stack
("folded flamegraph") lines — ``root;frame;...;leaf count`` — the input
format of ``flamegraph.pl`` and speedscope.  No signals, no C extension,
no third-party profiler: ``sys._current_frames`` holds the GIL for the
duration of one snapshot, so a sample costs roughly *threads x depth*
attribute reads and the profiled process keeps serving.

On interpreters without ``sys._current_frames`` (it is a CPython
implementation detail) the profiler degrades to a safe no-op: sessions
report ``"supported": false`` and an empty profile instead of failing.

Phase annotations
-----------------
Every :class:`~repro.obs.trace.span` names the *calling thread's* phase
while a session is live: the release engine's ``engine.execute`` /
``engine.starting_context`` / ``engine.sample`` / ``engine.select`` and
its ``release`` / ``admission`` phases, the server's
``server.handle`` and ``admission``.  The sampler prepends the thread's
innermost open span as a synthetic ``[phase]`` frame right after the
thread root, so hot stacks group by phase in the flamegraph.  When no
session is running, a span reads one module-global integer here and
marks nothing (``benchmarks/bench_obs_overhead.py`` gates the idle cost).

Serving integration
-------------------
Workers expose ``GET /v1/debug/profile?seconds=N&hz=M`` through a
:class:`ProfileSessions` registry: every in-flight session is tracked so
server drain can *disarm* it — the session wakes early, returns the
samples it has, and the drain barrier never waits out a 30-second
profile.  A disarmed registry refuses new sessions with
:class:`ProfilerDisarmed`, which the HTTP layer maps to the same typed
503 + ``Retry-After`` as every other drain-guarded route.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_SECONDS",
    "MAX_HZ",
    "MAX_SECONDS",
    "ProfileSessions",
    "ProfilerDisarmed",
    "SamplingProfiler",
    "collect_profile",
    "merge_folded",
    "profiler_supported",
    "profiling_active",
    "render_folded",
    "validate_profile_args",
]

DEFAULT_SECONDS = 5.0
DEFAULT_HZ = 99.0
MAX_SECONDS = 60.0
MAX_HZ = 1000.0

#: Frames kept per stack (deeper stacks are truncated at the root end,
#: keeping the leaves — the hot code — intact).
MAX_STACK_DEPTH = 64

#: Number of live sampling sessions, module-wide.  Read unlocked on the
#: hot path (:class:`~repro.obs.trace.span`); mutated under ``_active_lock``.
_active_sessions = 0
_active_lock = threading.Lock()

#: thread ident -> the thread's innermost open span while a session is
#: live (annotated into sampled stacks); written only by spans.
_engine_phases: Dict[int, str] = {}


class ProfilerDisarmed(RuntimeError):
    """New profile session refused: the server is draining."""


def profiler_supported() -> bool:
    """Whether this interpreter can sample stacks at all."""
    return hasattr(sys, "_current_frames")


def profiling_active() -> bool:
    """True while at least one :class:`SamplingProfiler` is sampling."""
    return _active_sessions > 0


def validate_profile_args(
    seconds: Optional[float], hz: Optional[float]
) -> Tuple[float, float]:
    """Clamp-and-validate endpoint parameters; raises ``ValueError``."""
    seconds = DEFAULT_SECONDS if seconds is None else float(seconds)
    hz = DEFAULT_HZ if hz is None else float(hz)
    if not 0.0 < seconds <= MAX_SECONDS:
        raise ValueError(
            f"seconds must be in (0, {MAX_SECONDS:g}], got {seconds:g}"
        )
    if not 1.0 <= hz <= MAX_HZ:
        raise ValueError(f"hz must be in [1, {MAX_HZ:g}], got {hz:g}")
    return seconds, hz


def _frame_label(frame) -> str:
    """``module.function`` with folded-format separators sanitised out."""
    module = frame.f_globals.get("__name__") or "?"
    label = f"{module}.{frame.f_code.co_name}"
    return label.replace(";", ":").replace(" ", "_")


def _thread_label(name: str) -> str:
    return (name or "?").replace(";", ":").replace(" ", "_")


class SamplingProfiler:
    """One sampling session: a daemon thread folding stack snapshots.

    Use :meth:`start` / :meth:`stop`, or the blocking
    :func:`collect_profile` helper.  ``folded()`` returns the collapsed
    stacks accumulated so far (``{stack: count}``); :meth:`result` wraps
    them in the JSON payload the debug endpoint serves.
    """

    def __init__(self, hz: float = DEFAULT_HZ):
        if not 1.0 <= float(hz) <= MAX_HZ:
            raise ValueError(f"hz must be in [1, {MAX_HZ:g}], got {hz}")
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self._folded: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._samples = 0
        self._max_threads = 0
        self._started_at: Optional[float] = None
        self._duration = 0.0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "SamplingProfiler":
        """Begin sampling (idempotent; no-op on unsupported platforms)."""
        global _active_sessions
        if self._thread is not None or not profiler_supported():
            return self
        self._started_at = time.monotonic()
        with _active_lock:
            _active_sessions += 1
        self._thread = threading.Thread(
            target=self._run, name="pcor-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and join the sampler thread (idempotent)."""
        global _active_sessions
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
            with _active_lock:
                _active_sessions -= 1
        if self._started_at is not None:
            self._duration = time.monotonic() - self._started_at
            self._started_at = None
        return self

    def _run(self) -> None:
        next_tick = time.monotonic()
        while True:
            self._sample_once()
            next_tick += self.interval
            delay = next_tick - time.monotonic()
            if delay <= 0:
                # Sampling overran the cadence (huge thread count or a
                # stalled box): resynchronise rather than spin to catch up.
                next_tick = time.monotonic()
                if self._stop.is_set():
                    return
                continue
            if self._stop.wait(delay):
                return

    # ------------------------------------------------------------- sampling

    def _sample_once(self) -> None:
        own = threading.get_ident()
        # sys._current_frames() holds the interpreter's thread-list lock
        # while it allocates; a collection started there can run code that
        # takes the same lock and hang the process (seen on CPython 3.11
        # as this thread stuck in the call while the interpreter collects).
        collecting = gc.isenabled()
        gc.disable()
        try:
            frames = sys._current_frames()
        except Exception:  # pragma: no cover - interpreter quirk
            return
        finally:
            if collecting:
                gc.enable()
        names = {t.ident: t.name for t in threading.enumerate()}
        counted = 0
        with self._lock:
            for ident, frame in frames.items():
                if ident == own:
                    continue
                stack: List[str] = []
                depth = 0
                while frame is not None and depth < MAX_STACK_DEPTH:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                    depth += 1
                stack.reverse()
                parts = [_thread_label(names.get(ident, f"tid-{ident}"))]
                phase = _engine_phases.get(ident)
                if phase is not None:
                    parts.append(f"[{phase}]")
                parts.extend(stack)
                key = ";".join(parts)
                self._folded[key] = self._folded.get(key, 0) + 1
                counted += 1
            self._samples += 1
            self._max_threads = max(self._max_threads, counted)

    # -------------------------------------------------------------- results

    def folded(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._folded)

    def result(
        self, seconds: Optional[float] = None, disarmed: bool = False
    ) -> Dict[str, Any]:
        """The debug-endpoint payload for this session."""
        with self._lock:
            folded = dict(self._folded)
            samples = self._samples
            threads = self._max_threads
        return {
            "supported": profiler_supported(),
            "seconds": (
                float(seconds) if seconds is not None else self._duration
            ),
            "duration_s": round(self._duration, 3),
            "hz": self.hz,
            "samples": samples,
            "threads": threads,
            "disarmed": bool(disarmed),
            "folded": folded,
        }


def collect_profile(
    seconds: float = DEFAULT_SECONDS,
    hz: float = DEFAULT_HZ,
    stop: Optional[threading.Event] = None,
) -> Dict[str, Any]:
    """Profile this process for ``seconds`` and return the payload.

    Blocks the calling thread (the HTTP handler).  An external ``stop``
    event ends the session early — the drain-disarm path — returning
    whatever samples were gathered, flagged ``"disarmed": true``.
    """
    seconds, hz = validate_profile_args(seconds, hz)
    profiler = SamplingProfiler(hz=hz).start()
    try:
        if stop is None:
            time.sleep(seconds)
            disarmed = False
        else:
            disarmed = stop.wait(seconds)
    finally:
        profiler.stop()
    return profiler.result(seconds=seconds, disarmed=disarmed)


class ProfileSessions:
    """Per-server registry of in-flight profile sessions.

    The server owns one; :meth:`run` backs the debug endpoint and
    :meth:`disarm` is called at the top of shutdown, *before* the drain
    barrier waits — otherwise a 30-second profile session parked inside
    the drain window would stall (and then time out) the drain.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stops: List[threading.Event] = []
        self._disarmed = False

    @property
    def disarmed(self) -> bool:
        return self._disarmed

    def run(
        self, seconds: Optional[float] = None, hz: Optional[float] = None
    ) -> Dict[str, Any]:
        """Run one blocking session; raises :class:`ProfilerDisarmed` if
        the server is already draining."""
        seconds, hz = validate_profile_args(seconds, hz)
        stop = threading.Event()
        with self._lock:
            if self._disarmed:
                raise ProfilerDisarmed(
                    "server is draining; profiling is disarmed"
                )
            self._stops.append(stop)
        try:
            return collect_profile(seconds, hz, stop=stop)
        finally:
            with self._lock:
                if stop in self._stops:
                    self._stops.remove(stop)

    def disarm(self) -> None:
        """Refuse new sessions and wake every in-flight one (idempotent)."""
        with self._lock:
            self._disarmed = True
            stops = list(self._stops)
        for stop in stops:
            stop.set()


# ----------------------------------------------------------------- folding


def merge_folded(
    profiles: List[Tuple[str, Dict[str, int]]]
) -> Dict[str, int]:
    """Merge per-source folded stacks under ``<prefix>;`` roots.

    The router labels each worker's profile ``shard<N>`` (and its own
    ``router``), so one flamegraph shows the whole fleet side by side.
    """
    merged: Dict[str, int] = {}
    for prefix, folded in profiles:
        prefix = _thread_label(str(prefix))
        for stack, count in (folded or {}).items():
            key = f"{prefix};{stack}"
            merged[key] = merged.get(key, 0) + int(count)
    return merged


def render_folded(folded: Dict[str, int]) -> str:
    """The collapsed-stack text format ``flamegraph.pl`` / speedscope
    ingest directly: one ``stack count`` line, sorted for stable diffs."""
    return "\n".join(
        f"{stack} {count}" for stack, count in sorted(folded.items())
    ) + ("\n" if folded else "")
