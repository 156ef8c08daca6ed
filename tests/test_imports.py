"""``import repro`` must work with only the declared dependencies.

A fresh interpreter installs a ``sys.meta_path`` finder that refuses
the blocked packages, then imports the package; an undeclared import
anywhere on that path fails the test instead of a clean install.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: importable in a dev environment, but not dependencies of ``repro``
BLOCKED = ("networkx",)

_PROBE = """
import sys

class _Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {blocked!r}:
            raise ImportError(f"{{name}} is not a declared dependency")
        return None

sys.meta_path.insert(0, _Blocker())
import repro
import repro.workflows
"""


def test_import_repro_without_undeclared_packages():
    env = dict(os.environ)
    root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(blocked=BLOCKED)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
