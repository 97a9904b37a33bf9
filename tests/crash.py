"""Kill-and-resume harness of the journal, repair and monitor suites.

A child process (``_session_child.py``) makes one journaled Session
call and writes its answer as JSON.  :func:`kill_when_journaled` starts
it held at a deterministic point (``REPRO_TEST_HOLD_*``, see
repro.resilience.journal) and SIGKILLs it once the journal shows the
hold was reached; :func:`run_child` then runs it again, resuming.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_CHILD = str(Path(__file__).with_name("_session_child.py"))
_SRC = str(Path(__file__).parents[1] / "src")


def _child(journal, out, call, **holds):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update({key: str(value) for key, value in holds.items()})
    return [sys.executable, _CHILD, journal, out, json.dumps(call)], env


def run_child(journal, out, call):
    """Run the child to the end and return the answer it wrote."""
    argv, env = _child(journal, out, call)
    result = subprocess.run(argv, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(Path(out).read_text(encoding="utf-8"))


def wait_journaled(proc, journal, sentinel, count=1):
    """Return once ``sentinel`` is in ``journal`` ``count`` times."""
    deadline = time.monotonic() + 90
    while time.monotonic() < deadline:
        if os.path.exists(journal) and open(
            journal, encoding="utf-8", errors="replace"
        ).read().count(sentinel) >= count:
            return
        if proc.poll() is not None:
            pytest.fail(f"child exited (rc={proc.returncode}) before the "
                        f"hold point {sentinel!r} was journaled")
        time.sleep(0.05)
    pytest.fail(f"hold point {sentinel!r} never reached")


def kill_when_journaled(journal, out, call, sentinel, count=1, **holds):
    """Start a held child; SIGKILL it once ``sentinel`` is journaled
    ``count`` times."""
    argv, env = _child(journal, out, call, REPRO_TEST_HOLD_S=60, **holds)
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        wait_journaled(proc, journal, sentinel, count)
        # The hold parks the process inside the append *after* the
        # sentinel entry was fsync'd: SIGKILL lands at a deterministic
        # point of the run.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait(timeout=30)
    assert not os.path.exists(out), "killed child must not have finished"
