"""End-to-end CLI smoke: build --mmap -> inspect -> query --mmap -> serve.

One tiny synthetic dataset flows through the whole command surface the
way an operator would drive it — the same sequence the CI smoke job
runs from a shell.  Each step asserts on the human-facing output, so a
regression anywhere in the build/persist/load/serve pipeline fails
loudly here before it reaches an actual deployment.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import main

N = 400
QUERIES = 5
SIFT_DIM = 128  # the simulated sift dataset's dimensionality
SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("smoke") / "smoke.bundle")
    rc = main(
        [
            "build", "--dataset", "sift", "--n", str(N),
            "--queries", str(QUERIES), "--method", "lccs",
            "--out", path, "--mmap",
        ]
    )
    assert rc == 0
    return path


def test_importing_the_cli_does_not_load_scipy_stats():
    """Cold start: every server, worker and CLI start imports ``repro``,
    and ``scipy.stats`` costs ~0.9 s and ~60 MB for a normal CDF that
    serving never evaluates.  In a subprocess: this one has long since
    imported it for other tests."""
    probe = (
        "import sys, repro.cli; "
        "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_build_reports_the_index_and_mmap_open(bundle, capsys):
    # The fixture already ran build; rebuild output is gone, so re-run
    # inspect-level assertions through a fresh build into the same dir.
    argv = [
        "build", "--dataset", "sift", "--n", str(N),
        "--queries", str(QUERIES), "--method", "lccs",
        "--out", bundle, "--mmap",
    ]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert f"built LCCS-LSH on sift n={N} d={SIFT_DIM}" in out
    assert "saved bundle to" in out
    assert "mmap cold-open check" in out
    # The sharded build options are gone: argparse refuses them.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--shards", "2"])
    assert exc.value.code == 2
    assert "--shards" in capsys.readouterr().err


def test_inspect_describes_the_bundle(bundle, capsys):
    assert main(["inspect", bundle]) == 0
    out = capsys.readouterr().out
    assert "LCCSLSH" in out
    assert "csa.sorted_idx" in out
    assert f"{N}x{SIFT_DIM}" in out  # the data payload's shape
    assert main(["inspect", bundle, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["format_version"] == 5
    assert summary["class"] == "LCCSLSH"
    assert summary["extra"]["method"] == "lccs"
    assert "shards" not in summary
    assert "shards" not in summary["extra"]


def test_query_mmap_evaluates_the_bundle(bundle, capsys):
    rc = main(["query", bundle, "--k", "5", "--batch", "--mmap"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recall" in out
    assert f"n={N}" in out


def test_serve_answers_one_stdin_request(bundle, tmp_path, capsys):
    rng = np.random.default_rng(0)
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        json.dumps({"query": rng.normal(size=SIFT_DIM).tolist(), "k": 3})
        + "\n"
    )
    rc = main(
        [
            "serve", bundle, "--mmap", "--requests", str(requests),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    response = json.loads(captured.out.strip().splitlines()[-1])
    assert len(response["ids"]) == 3
    assert len(response["dists"]) == 3
    assert response["dists"] == sorted(response["dists"])
    assert "served 1 responses" in captured.err


def test_serve_tcp_round_trip(bundle):
    """The same bundle over ``serve --tcp``: a real subprocess, a real

    socket, results byte-identical to a direct in-process query, and a
    clean SIGTERM drain.
    """
    from repro.serve import load_index, read_manifest
    from repro.serve.client import ServeClient

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", bundle,
            "--tcp", "127.0.0.1:0", "--mmap", "--max-inflight", "16",
        ],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        port = None
        deadline = time.time() + 120
        while time.time() < deadline:
            line = proc.stderr.readline()
            if not line:
                break
            found = re.search(r"listening on [\d.]+:(\d+)", line)
            if found:
                port = int(found.group(1))
                break
        assert port is not None, "no readiness line on stderr"
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(3, SIFT_DIM))
        index = load_index(bundle, mmap=True)
        # the server folds the manifest's default query kwargs into
        # every request — the local reference must query the same way
        kwargs = dict(
            read_manifest(bundle).get("extra", {}).get("query_kwargs", {})
        )
        with ServeClient("127.0.0.1", port, timeout=60) as client:
            assert client.ping()
            for q in queries:
                ids, dists = client.query(q, k=4)
                want_ids, want_dists = index.query(q, k=4, **kwargs)
                assert ids.tolist() == want_ids.tolist()
                assert dists.tobytes() == want_dists.tobytes()
            stats = client.stats()
            assert stats["server"]["ops"]["query"]["requests"] == 3
            assert stats["server"]["ops"]["query"]["p99_ms"] > 0.0
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        assert rc == 0
        assert "drained" in proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
