"""Shared fixtures: a micro dataset sized so full enumeration is instant.

The micro schema has three attributes of three values each (t = 9), so the
context space has 512 bitmasks, 343 structurally valid contexts, and 64
contexts containing any given record — small enough that every integration
test can compare sampled behaviour against exhaustively computed truth.
"""

from __future__ import annotations

import json
import socket
from urllib.parse import urlparse

import numpy as np
import pytest

from repro.core.reference import ReferenceFile
from repro.core.verification import OutlierVerifier
from repro.data.generators import (
    SALARY_EMPLOYERS,
    SALARY_JOB_TITLES,
    SALARY_YEARS,
    synthetic_salary_dataset,
    tiny_income_dataset,
)
from repro.outliers.zscore import ZScoreDetector
from repro.schema import CategoricalAttribute, MetricAttribute, Schema


def make_mini_schema() -> Schema:
    return Schema(
        attributes=[
            CategoricalAttribute("Jobtitle", SALARY_JOB_TITLES[:3]),
            CategoricalAttribute("Employer", SALARY_EMPLOYERS[:3]),
            CategoricalAttribute("Year", SALARY_YEARS[:3]),
        ],
        metric=MetricAttribute("Salary"),
    )


def make_mini_dataset(n_records: int = 300, seed: int = 3):
    return synthetic_salary_dataset(
        n_records=n_records,
        seed=seed,
        anomaly_fraction=0.04,
        schema=make_mini_schema(),
    )


@pytest.fixture(scope="session")
def mini_schema() -> Schema:
    return make_mini_schema()


@pytest.fixture(scope="session")
def mini_dataset():
    return make_mini_dataset()


@pytest.fixture(scope="session")
def mini_detector():
    return ZScoreDetector(z_threshold=2.5, min_population=8)


@pytest.fixture(scope="session")
def mini_verifier(mini_dataset, mini_detector):
    return OutlierVerifier(mini_dataset, mini_detector)


@pytest.fixture(scope="session")
def mini_reference(mini_verifier):
    return ReferenceFile.build(mini_verifier)


@pytest.fixture(scope="session")
def mini_outlier(mini_reference) -> int:
    """A record with a healthy number of matching contexts."""
    best = None
    for rid in mini_reference.outlier_records():
        n = len(mini_reference.matching_contexts(rid))
        if best is None or n > best[1]:
            best = (rid, n)
    assert best is not None, "micro dataset produced no contextual outliers"
    assert best[1] >= 5, f"best outlier has only {best[1]} matching contexts"
    return best[0]


@pytest.fixture(scope="session")
def tiny_dataset():
    return tiny_income_dataset()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def raw_post():
    """POST over a bare socket with a verbatim ``Content-Length`` header.

    Returns ``(status, headers, payload)`` of the one response the server
    sends before closing the connection; a server that keeps it open
    instead times the read out.
    """

    def post(url: str, path: str, content_length: str, body: bytes):
        where = urlparse(url)
        with socket.create_connection((where.hostname, where.port), timeout=10) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                "X-PCOR-Tenant: raw-socket\r\nContent-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n\r\n".encode() + body
            )
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        head, _, payload = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        return int(status_line.split()[1]), headers, json.loads(payload)

    return post
