"""The environment block written into every benchmark record."""

from __future__ import annotations

import os
import platform
from pathlib import Path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _version(module_name: str) -> str:
    try:
        module = __import__(module_name)
    except ImportError:
        return "absent"
    return getattr(module, "__version__", "unknown")


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def git_commit(root: Path) -> str:
    """HEAD's commit id read from ``.git``; ``unknown`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines(root: Path) -> int:
    """Line count of the lab's Python source, ``src/adarc/**/*.py``."""
    return sum(
        len(path.read_bytes().splitlines())
        for path in sorted((root / "src" / "adarc").rglob("*.py"))
    )


def environment(root: Path, blas_threads: int) -> dict:
    """Call after the lab is imported: ``adarc_backend`` is the kernel that ran."""
    import adarc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_imports": _version("numba") != "absent",
        "numba": _version("numba"),
        "adarc_backend": adarc.BACKEND,
        "adarc_kernels_env": os.environ.get("ADARC_KERNELS", "unset"),
        "blas": _blas(),
        "blas_threads": blas_threads,
        "git_commit": git_commit(root),
        "src_adarc_lines": source_lines(root),
    }
