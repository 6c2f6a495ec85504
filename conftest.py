"""Session-wide checks for every test directory (``tests`` and
``perfbench``): a test run must leave git's tracked files as it found them.

At session start the check records ``git status --porcelain`` and a digest
of ``git diff --binary``; at session end it fails the session, naming the
paths, if either changed. It is skipped, with a one-line note, outside a
git work tree, when git is missing, and under ``MOCE_ARCHIVE_ACCEPTANCE=1``,
which rewrites ``artifacts/acceptance/`` on purpose.
"""

import hashlib
import os
import subprocess

import pytest

_ROOT = os.path.dirname(os.path.abspath(__file__))
_BEFORE = pytest.StashKey[tuple]()
_NOTE = pytest.StashKey[str]()


def _tree() -> tuple[list[bytes], str]:
    """The work tree's status lines and the digest of its diff."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=_ROOT,
                              capture_output=True, check=True).stdout

    return (git("status", "--porcelain").splitlines(),
            hashlib.sha256(git("diff", "--binary")).hexdigest())


def pytest_sessionstart(session) -> None:
    if os.environ.get("MOCE_ARCHIVE_ACCEPTANCE") == "1":
        reason = "MOCE_ARCHIVE_ACCEPTANCE=1 rewrites artifacts/acceptance/"
    else:
        try:
            session.config.stash[_BEFORE] = _tree()
            return
        except (OSError, subprocess.CalledProcessError):
            reason = "not in a git work tree, or git is missing"
    session.config.stash[_NOTE] = f"tracked-files check skipped: {reason}"


def pytest_sessionfinish(session) -> None:
    before = session.config.stash.get(_BEFORE, None)
    if before is None:
        return
    after = _tree()
    if after == before:
        return
    # a status line is "XY path"; a file dirty before and changed further
    # changes only the diff, so then every dirty path is named
    changed = set(before[0]) ^ set(after[0]) or set(after[0])
    paths = sorted(line[3:].decode(errors="replace") for line in changed)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
    session.config.stash[_NOTE] = ("the tests changed tracked files: "
                                   + ", ".join(paths))


def pytest_terminal_summary(terminalreporter, config) -> None:
    if _NOTE in config.stash:
        terminalreporter.write_line(config.stash[_NOTE])
