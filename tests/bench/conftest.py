"""Shared bench fixtures."""

import contextlib
import io
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.__main__ import main as bench_main


@pytest.fixture(scope="session")
def bench_trajectory(tmp_path_factory):
    """``python -m repro bench trajectory --out <tmp>``, run once.

    Regenerating all six ``BENCH_*.json`` artifacts takes most of a
    minute, so every test that reads them shares this one CLI run:
    ``code`` is its exit status, ``stdout`` what it printed, ``out``
    the directory, and ``written`` the paths from its ``wrote`` lines,
    in order.
    """
    out = tmp_path_factory.mktemp("trajectory")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = bench_main(["trajectory", "--out", str(out)])
    text = stdout.getvalue()
    written = [
        Path(line.removeprefix("wrote "))
        for line in text.splitlines()
        if line.startswith("wrote ")
    ]
    return SimpleNamespace(code=code, stdout=text, out=out, written=written)
