"""End-to-end ``pcor serve`` smoke: spawn, release, budget, clean shutdown.

This is the CI smoke test the ISSUE asks for: a real subprocess running the
CLI entrypoint, spoken to over real sockets, stopped with a real SIGTERM.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.data.generators import salary_reduced
from repro.exceptions import ReproError, ServerError
from repro.server import JsonlLedgerStore, PCORClient

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

SPEC = {
    "detector": "zscore",
    "detector_kwargs": {"z_threshold": 2.5, "min_population": 8},
    "sampler": "uniform",
    "epsilon": 0.1,
    "n_samples": 3,
}


def write_config(tmp_path: Path) -> Path:
    config = tmp_path / "server.json"
    config.write_text(
        json.dumps(
            {
                "server": {
                    "port": 0,
                    "ledger": "jsonl",
                    "ledger_dir": str(tmp_path / "ledgers"),
                },
                "datasets": {
                    "salary": {
                        "source": "salary_reduced",
                        "records": 300,
                        "seed": 3,
                        "budget": 5.0,
                        "tenant_budget": 0.3,
                    }
                },
            }
        )
    )
    return config


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    return env


def spawn_server(config: Path) -> tuple:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--config", str(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=server_env(),
    )
    # The CLI prints its bound URL (flush=True) as its first line.
    line = process.stdout.readline()
    assert "listening on" in line, f"unexpected banner: {line!r}"
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return process, url


def find_outlier() -> int:
    from repro.core.verification import OutlierVerifier
    from repro.outliers.zscore import ZScoreDetector

    dataset = salary_reduced(n_records=300, seed=3)
    verifier = OutlierVerifier(
        dataset, ZScoreDetector(z_threshold=2.5, min_population=8)
    )
    return next(
        rid
        for rid in map(int, dataset.ids)
        if verifier.is_matching(dataset.record_bits(rid), rid)
    )


def test_serve_release_budget_shutdown(tmp_path):
    config = write_config(tmp_path)
    process, url = spawn_server(config)
    try:
        client = PCORClient(url, tenant="smoke")
        assert client.health()["status"] == "ok"

        record_id = find_outlier()
        response = client.release("salary", record_id=record_id, spec=SPEC, seed=42)
        assert response["result"]["record_id"] == record_id

        budget = client.budget(dataset="salary")["datasets"]["salary"]
        assert budget["spent"] == pytest.approx(0.1)
        assert budget["remaining"] == pytest.approx(0.2)

        # The WAL exists and holds exactly the admitted charge.
        ledger = tmp_path / "ledgers" / "salary.ledger.jsonl"
        [record] = [json.loads(l) for l in ledger.read_text().splitlines()]
        assert record["tenant"] == "smoke"
        assert record["epsilon"] == 0.1
    finally:
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
    assert process.returncode == 0, out
    assert "stopped; ledgers closed" in out


def test_sigterm_drains_inflight_requests_and_closes_ledger_cleanly(tmp_path):
    """SIGTERM racing live handler threads must not tear the ledger.

    ``ThreadingHTTPServer`` handler threads are daemonic — without the
    drain barrier a SIGTERM could close the WAL underneath an in-flight
    admission.  Here concurrent clients hammer a *coalescing* dataset
    while SIGTERM lands mid-flight; afterwards the ledger must replay
    cleanly and hold exactly one charge per successful response (503s and
    connection drops during shutdown are never charged)."""
    config = tmp_path / "server.json"
    config.write_text(
        json.dumps(
            {
                "server": {
                    "port": 0,
                    "ledger": "jsonl",
                    "ledger_dir": str(tmp_path / "ledgers"),
                },
                "datasets": {
                    "salary": {
                        "source": "salary_reduced",
                        "records": 300,
                        "seed": 3,
                        "budget": 200.0,
                        "max_batch": 4,
                        "max_delay_ms": 5.0,
                    }
                },
            }
        )
    )
    process, url = spawn_server(config)
    record_id = find_outlier()
    successes = [0] * 4
    stop = threading.Event()

    def hammer(i):
        client = PCORClient(url, tenant=f"hammer-{i}", timeout=30.0)
        seed = i * 10_000
        try:
            while not stop.is_set():
                seed += 1
                try:
                    client.release(
                        "salary", record_id=record_id, spec=SPEC, seed=seed
                    )
                    successes[i] += 1
                except ServerError:
                    return  # 503 during drain, or the listener went away
                except ReproError:
                    return  # budget exhausted etc. — stop hammering
        finally:
            client.close()

    threads = [
        threading.Thread(target=hammer, args=(i,))
        for i in range(len(successes))
    ]
    try:
        for t in threads:
            t.start()
        time.sleep(0.5)  # let requests be genuinely in flight
    finally:
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
        stop.set()
        for t in threads:
            t.join(timeout=60)
    assert process.returncode == 0, out
    assert "stopped; ledgers closed" in out
    assert sum(successes) > 0, "no request ever completed"

    # Ledger integrity: every line parses, the store replays without
    # complaint (no torn tail truncation needed after a *clean* drain),
    # and the charges match the acknowledged successes exactly.
    ledger = tmp_path / "ledgers" / "salary.ledger.jsonl"
    raw = ledger.read_text()
    assert raw.endswith("\n"), "ledger has a torn final record"
    records = [json.loads(line) for line in raw.splitlines()]
    assert all(r["epsilon"] == 0.1 for r in records)
    store = JsonlLedgerStore(ledger)
    assert len(list(store.replay())) == len(records) == sum(successes)
    store.close()


def test_serve_rejects_bad_config(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"server": {}, "datasets": {}}))
    process = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--config", str(config)],
        capture_output=True,
        text=True,
        timeout=60,
        env=server_env(),
    )
    assert process.returncode == 1
    assert "no datasets" in process.stderr
