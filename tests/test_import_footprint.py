"""Start-up imports: releases load neither scipy nor networkx.

Every process that serves releases pays ``import repro`` first: the CLI,
``pcor serve``, each process-backend worker and each cluster worker.  scipy
(for Grubbs' critical value and the experiment statistics) and networkx
(for the two ``ContextGraph`` exports) are imported inside the functions
that use them, so the start-up path and a LOF or zscore release never load
either.  Each case runs in a fresh interpreter, because this test process
has usually imported both already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Imports ``repro``, then ``repro.cli``, then runs one budgeted release at
#: n=2,000 with the detector named in argv, noting after each step which of
#: the heavy packages ``sys.modules`` holds.
SCRIPT = r"""
import json
import sys

HEAVY = ("scipy", "networkx")
loaded = {}


def note(step):
    loaded[step] = [name for name in HEAVY if name in sys.modules]


import repro

note("import repro")

import repro.cli

note("import repro.cli")

from repro import PipelineSpec, ReleaseEngine, ReleaseRequest, salary_reduced

detector = sys.argv[1]
spec = PipelineSpec.from_dict(
    {
        "detector": detector,
        "detector_kwargs": {"k": 10, "threshold": 1.5} if detector == "lof" else {},
        "sampler": "bfs",
        "n_samples": 20,
        "epsilon": 0.2,
    }
)
dataset = salary_reduced(n_records=2000, seed=7)
with ReleaseEngine(dataset, budget=1.0) as engine:
    verifier = engine.verifier_for(spec.build_detector())
    record_id = next(
        rid
        for rid in map(int, dataset.ids)
        if verifier.is_matching(dataset.record_bits(rid), rid)
    )
    engine.submit(ReleaseRequest(record_id=record_id, spec=spec, seed=1))
note(f"{detector} release")
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("detector", ["lof", "zscore"])
def test_start_up_and_release_load_neither_scipy_nor_networkx(detector):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, detector],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {
        "import repro": [],
        "import repro.cli": [],
        f"{detector} release": [],
    }
