"""Import guard: heavy third-party modules stay out of every entry point.

``scipy.stats`` (~1 s, ~70 MB) and ``networkx`` (~0.1 s) each serve one
function (``compare_conditions``, ``detect_communities``), so they are
imported inside it.  A module-level import anywhere on the path of
``import repro`` or the CLI would charge that cost to every command,
benchmark child and pool worker; this test pins that it does not (see
DESIGN.md "Imports").
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = ("repro", "repro.cli", "repro.experiments", "repro.serving",
                "repro.training.parallel")
LAZY_ONLY = ("scipy.stats", "networkx")


def test_entry_points_do_not_import_lazy_only_modules():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = (f"import sys\n"
            f"for name in {ENTRY_POINTS!r}:\n"
            f"    __import__(name)\n"
            f"print(','.join(m for m in {LAZY_ONLY!r} if m in sys.modules))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", (
        f"imported at start-up: {result.stdout.strip()}")
