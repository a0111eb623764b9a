"""The system under test of one benchmark round, in its own process.

``python3 releasebench/host.py CONFIG`` reads the JSON config ``run.py``
wrote for the round (``PYTHONPATH`` must reach ``src``):

* ``"mode": "engine"`` loads the CSV with ``read_csv``, builds one
  ``PredicateMaskIndex`` and answers release requests arriving as JSON
  lines on stdin, each with a fresh ``ReleaseEngine`` that shares the
  dataset and the index, so nothing is cached between releases;
* ``"mode": "serve"`` builds a ``PCORServer`` from the config's
  ``server`` section, builds the dataset and its index before taking
  traffic, and serves HTTP on an ephemeral port.

Both write JSON lines to stdout: ``ready`` once built, ``marked`` when the
timed phase starts (span totals restart there), and ``final`` after
``stop``, with peak RSS, engine counters at the mark and at the stop, and,
when the config sets ``trace``, the span totals of ``layers.py``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

#: Engine counters reported at the mark and at the stop.
COUNTERS = (
    "profile_hits",
    "profile_misses",
    "profiles_cached",
    "profiles_invalidated",
    "batch_flushes",
    "batch_requests",
    "batch_queue_wait_s",
)


def emit(kind: str, **fields) -> None:
    sys.stdout.write(json.dumps({"kind": kind, **fields}) + "\n")
    sys.stdout.flush()


def commands():
    for line in sys.stdin:
        yield json.loads(line)


def counters(metrics: dict) -> dict:
    return {key: metrics.get(key) or 0 for key in COUNTERS}


def fingerprint() -> dict:
    import numpy

    from repro.bitops import kernel_backend_name

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend_name(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_engine(config: dict, clock, ready: dict) -> None:
    from repro.data.csvio import read_csv
    from repro.data.masks import PredicateMaskIndex
    from repro.exceptions import ReproError
    from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

    dataset = read_csv(config["csv"], metric=config["metric"])
    masks = PredicateMaskIndex(dataset)
    spec = PipelineSpec.from_dict(config["spec"])
    emit("ready", t_built=time.monotonic(), **ready)
    # Each release has its own engine: sum their counters.
    totals = dict.fromkeys(COUNTERS, 0)
    at_mark = dict(totals)
    for msg in commands():
        if msg["cmd"] == "release":
            with ReleaseEngine(dataset, mask_index=masks) as engine:
                try:
                    result = engine.submit(
                        ReleaseRequest(
                            record_id=msg["record_id"], spec=spec, seed=msg["seed"]
                        )
                    )
                except ReproError as exc:
                    emit("error", error=f"{type(exc).__name__}: {exc}")
                else:
                    emit("result", result=result.to_dict())
                for key, value in counters(engine.metrics().to_dict()).items():
                    totals[key] += value
        elif msg["cmd"] == "mark":
            at_mark = dict(totals)
            if clock is not None:
                clock.reset()
            emit("marked")
        elif msg["cmd"] == "stop":
            break
    emit(
        "final",
        peak_rss_mb=peak_rss_mb(),
        at_mark=at_mark,
        at_stop=totals,
        layers=clock.report() if clock is not None else None,
        n_records=len(dataset),
    )


def run_serve(config: dict, clock, ready: dict) -> None:
    from repro.server import PCORServer, ServerConfig

    name = config["dataset"]
    server = PCORServer(ServerConfig.from_dict(config["server"]), port=0)
    try:
        entry = server.registry.get(name)
        entry.engine.masks  # the dataset and its index, before any traffic
        server.start()
        emit(
            "ready",
            t_built=time.monotonic(),
            port=server.port,
            replay_s=clock.replay_s if clock is not None else None,
            **ready,
        )

        def snapshot() -> dict:
            return counters(server.metrics()["datasets"][name])

        at_mark = snapshot()
        for msg in commands():
            if msg["cmd"] == "mark":
                at_mark = snapshot()
                if clock is not None:
                    clock.reset()
                emit("marked")
            elif msg["cmd"] == "stop":
                break
        at_stop = snapshot()
    finally:
        server.shutdown()
    emit(
        "final",
        peak_rss_mb=peak_rss_mb(),
        at_mark=at_mark,
        at_stop=at_stop,
        layers=clock.report() if clock is not None else None,
        n_records=len(entry.engine.dataset),
    )


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    clock = None
    if config["trace"]:
        from layers import LayerClock, install

        clock = LayerClock()
        install(clock)
    import repro  # noqa: F401  (the whole package, as a user imports it)

    ready = {"t_imported": time.monotonic(), "env": fingerprint()}
    if config["mode"] == "engine":
        run_engine(config, clock, ready)
    else:
        run_serve(config, clock, ready)
    return 0


if __name__ == "__main__":
    sys.exit(main())
