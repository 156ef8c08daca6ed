"""Every ``repro`` module must import with only the declared dependencies.

A fresh interpreter installs a ``sys.meta_path`` finder that admits
only the standard library, ``repro`` itself and the
``[project].dependencies`` of ``pyproject.toml``, then walks the
package and imports every module; an undeclared import anywhere in
the package fails the test instead of a clean install.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PACKAGE = Path(repro.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

_PROBE = """
import importlib
import pkgutil
import sys

allowed = set(sys.stdlib_module_names) | {{"repro"}} | {declared!r}

class _Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            raise ImportError(f"{{name}} is not a declared dependency")
        return None

sys.meta_path.insert(0, _Blocker())
import repro

failed = []
for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=lambda name: None):
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        failed.append(f"{{info.name}}: {{exc!r}}")
    else:
        print(info.name)
if failed:
    sys.exit("\\n".join(failed))
"""


def _declared_imports() -> set[str]:
    """Top-level import names of the ``[project].dependencies``."""
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().replace("-", "_") for dep in deps}


def test_import_repro_without_undeclared_packages():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(declared=_declared_imports())],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    imported = out.stdout.split()
    # the walk reached every source file (``repro`` itself is the +1)
    assert len(imported) + 1 == len(list(PACKAGE.rglob("*.py")))
