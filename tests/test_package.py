"""The package's export list and import path."""

import os
import subprocess
import sys
from pathlib import Path

import locmst

ROOT = Path(__file__).resolve().parents[1]


def test_export_list_matches_the_imports():
    # every listed name resolves and is listed once, and every public
    # function or class the package imports from its modules is listed, so
    # the import block and __all__ cannot drift apart
    names = locmst.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(locmst, name)
    imported = {
        name
        for name, value in vars(locmst).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", "").startswith("locmst.")
    }
    assert imported == set(names)


def test_importing_the_cli_loads_no_scipy():
    # scipy.special costs a process about 0.2 s and 26 MB; only prop1's
    # exact event probability needs it, and loads it on first use
    code = "\n".join((
        "import sys",
        "import locmst.cli",
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "from locmst.experiments import prop1_demo",
        "print(repr(prop1_demo(2, reps=1, mode='planted').event_log10))",
    ))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == -422.2991435319093  # pinned in test_experiments
