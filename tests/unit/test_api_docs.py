"""``docs/api.md`` is what ``scripts/gen_api_md.py`` prints today.

CONTRIBUTING asks for the reference to be regenerated after any change
to a public name or docstring; this test fails until it is.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

_SRC = pathlib.Path(repro.__file__).resolve().parents[1]
_ROOT = _SRC.parent


def test_api_reference_is_regenerated():
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "gen_api_md.py")],
        capture_output=True, text=True, timeout=120, cwd=_ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    expected = (_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    assert proc.stdout == expected, (
        "docs/api.md is stale: run `python scripts/gen_api_md.py > docs/api.md`"
    )
