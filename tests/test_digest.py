"""The committed output digest, ``DIGEST.txt``, against a fresh run of the tool.

Each line of ``tools/output_digest.py`` is a SHA-256 (or a sampler-error
summary) of one user-visible output, so a mismatch names the output
that moved.  A change that moves an output on purpose regenerates
``DIGEST.txt`` with the tool and says why in its change notes.
"""

import importlib.util
import logging
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    """The module ``tools/<name>.py``, imported from its path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def listing(lines):
    """label -> digest of the tool's output lines, skipping the ``#`` header."""
    out = {}
    for line in lines:
        if line and not line.startswith("#"):
            digest, _, label = line.rpartition("  ")
            out[label] = digest
    return out


def numpy_of(header):
    return header.rpartition("numpy ")[2]


def test_outputs_match_committed_digest(tmp_path):
    tool = load_tool("output_digest")
    committed = (ROOT / "DIGEST.txt").read_text(encoding="utf-8").splitlines()
    # with no handler configured, as in a plain run, a warning goes to the
    # stderr that the tool captures and digests
    root = logging.getLogger()
    handlers = root.handlers[:]
    root.handlers.clear()
    try:
        fresh = {label: digest for label, digest in tool.digests(tmp_path)}
    finally:
        root.handlers[:] = handlers
    expected = listing(committed)

    differing = [f"{label}: committed {expected.get(label, '(absent)')}, "
                 f"now {fresh.get(label, '(absent)')}"
                 for label in dict.fromkeys([*expected, *fresh])
                 if expected.get(label) != fresh.get(label)]
    if differing and numpy_of(committed[0]) != np.__version__:
        differing.insert(0, f"numpy: committed {numpy_of(committed[0])}, running "
                            f"{np.__version__}; the sampler lines follow numpy's streams")
    assert not differing, "outputs differ from DIGEST.txt:\n" + "\n".join(differing)
