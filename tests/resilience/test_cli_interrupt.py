"""Ctrl-C and SIGTERM handling of the ``diffprov`` CLI.

An interrupted diagnosis must flush its journal, print a partial
summary (including the exact resume command), and exit with the
conventional 128+signal status — 130 for SIGINT, 143 for SIGTERM
(what process supervisors send on shutdown) — distinct from both
success (0) and argument errors (2).
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.cli import EXIT_INTERRUPTED, EXIT_TERMINATED

from ..crash import wait_journaled

_SRC = str(Path(__file__).parents[2] / "src")


def _spawn_held_diagnose(journal):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TEST_HOLD_PHASE"] = "minimize"
    env["REPRO_TEST_HOLD_S"] = "60"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli",
            "diagnose", "SDN1", "--minimize", "--journal", journal,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _await_minimize_hold(proc, journal):
    wait_journaled(proc, journal, '"name":"minimize"')


def test_sigint_flushes_journal_and_exits_130(tmp_path):
    journal = str(tmp_path / "cli.journal")
    proc = _spawn_held_diagnose(journal)
    try:
        _await_minimize_hold(proc, journal)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.communicate()

    assert proc.returncode == EXIT_INTERRUPTED == 130
    assert "interrupted" in stderr
    assert "journal flushed" in stderr
    # The partial summary tells the operator exactly how to continue.
    assert f"--journal {journal} --resume" in stderr
    # Everything journaled before the interrupt survives on disk.
    assert os.path.getsize(journal) > 0


def test_sigterm_flushes_journal_and_exits_143(tmp_path):
    """SIGTERM — what supervisors and ``kill`` send — unwinds exactly
    like Ctrl-C: flushed journal, resume hint, 128+15 exit status."""
    journal = str(tmp_path / "cli.journal")
    proc = _spawn_held_diagnose(journal)
    try:
        _await_minimize_hold(proc, journal)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.communicate()

    assert proc.returncode == EXIT_TERMINATED == 143
    assert "terminated" in stderr
    assert "journal flushed" in stderr
    assert f"--journal {journal} --resume" in stderr
    assert os.path.getsize(journal) > 0


def test_interrupted_cli_run_can_be_resumed(tmp_path):
    journal = str(tmp_path / "cli.journal")
    proc = _spawn_held_diagnose(journal)
    try:
        _await_minimize_hold(proc, journal)
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.communicate()

    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    resumed = subprocess.run(
        [
            sys.executable, "-m", "repro.cli",
            "diagnose", "SDN1", "--minimize",
            "--journal", journal, "--resume",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "root-cause change" in resumed.stdout
    assert "resumed" in resumed.stdout
