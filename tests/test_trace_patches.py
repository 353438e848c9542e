"""The benchmark's tracer still finds every layer function it wraps.

``perfbench.tracing.instrument`` replaces each layer function in every module
that imports it by name, and raises ``LookupError`` when one of those names
is gone; this keeps that contract under the lab's own tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer, instrument  # noqa: E402


def test_instrument_finds_every_layer_function():
    with instrument(Tracer()):
        pass
