"""``repro serve`` as a child process: answer over a real socket, then shut
the handler pool down cleanly on SIGINT."""

import json
import os
import select
import signal
import subprocess
import sys
import urllib.request

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_serve_answers_then_exits_zero_on_sigint():
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "no address printed within 60 s"
        line = proc.stdout.readline()
        assert line.startswith("serving on http://"), line
        base_url = line.split()[2]
        with urllib.request.urlopen(f"{base_url}/version",
                                    timeout=10) as resp:
            assert resp.status == 200
            assert json.loads(resp.read()) == {"version": 0, "n_reads": 0}
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
        assert proc.stderr.read() == ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
