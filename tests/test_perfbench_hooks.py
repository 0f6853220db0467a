"""Every library name the benchmark's traced run hooks must exist.

``perfbench/run.py --trace 1`` wraps each ``(module, attribute)`` in
``perfbench/layers.py``'s ``TARGETS`` with ``getattr``/``setattr``, so a
rename or deletion in the library would otherwise surface only there.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def benchmark_targets():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
    finally:
        sys.path.remove(PERFBENCH)
    return sorted({f"{module}.{attr}" for module, attr, *_ in layers.TARGETS})


@pytest.mark.parametrize("target", benchmark_targets())
def test_hooked_name_resolves(target):
    module, attr = target.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), attr))
