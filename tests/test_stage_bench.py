"""``scripts/stage_bench.py`` refuses a root without pairrank sources before it generates any data."""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "stage_bench.py")


def test_root_without_sources_is_refused_before_any_data(tmp_path):
    root, scratch = tmp_path / "not-a-checkout", tmp_path / "tmp"
    root.mkdir()
    scratch.mkdir()
    # The data would be generated in a temporary directory under TMPDIR.
    result = subprocess.run([sys.executable, SCRIPT, "--root", str(root)], capture_output=True, text=True,
                            env={**os.environ, "TMPDIR": str(scratch)}, timeout=60)
    assert result.returncode != 0
    assert result.stderr == f"error: no pairrank sources under {root / 'src'}\n"
    assert result.stdout == ""
    assert not any(scratch.iterdir())
