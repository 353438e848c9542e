"""The fixed CLI script of ``byte_identity.py`` writes the same bytes twice."""

from __future__ import annotations

import byte_identity

EXPECTED_FILES = {
    "run.cfg",
    "model.bin",
    "halving.cfg",
    "model-halving.bin",
    "eval.json",
    "sweep.json",
    "sweep.csv",
    "decompose.json",
    "theory.json",
    "data/source/masks.csv",
    *(f"data/{role}/{name}" for role in ("source", "target")
      for name in ("edges.csv", "features.bin", "labels.csv")),
    *(f"adapt-{base}-{arm}.{suffix}" for base in ("erm", "tent", "t3a")
      for arm in ("default", "joint") for suffix in ("json", "trace.csv")),
}


def test_two_runs_of_the_cli_script_write_identical_bytes(tmp_path):
    first = byte_identity.run(tmp_path / "first")
    second = byte_identity.run(tmp_path / "second")
    assert {name for _, name in first} == EXPECTED_FILES
    assert first == second
