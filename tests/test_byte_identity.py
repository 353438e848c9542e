"""The fixed CLI script of ``byte_identity.py`` writes the same bytes twice,
through the same comparison as ``byte_identity.py --against``."""

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
    src = byte_identity.REPO_SRC
    assert byte_identity.compare(tmp_path, "tiny", src, src) == []
    tree = tmp_path / "tree"
    assert {p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()} == (
        EXPECTED_FILES
    )
