import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dcsam"

# Imports each named module as the first module of a bare ``dcsam`` package,
# so that no module is loaded because ``__init__`` happened to load it first.
PROBE = """
import importlib, sys, types
failed = []
for name in sys.argv[2:]:
    for key in [k for k in sys.modules if k == "dcsam" or k.startswith("dcsam.")]:
        del sys.modules[key]
    package = types.ModuleType("dcsam")
    package.__path__ = [sys.argv[1]]
    package.__version__ = "0"  # the one name a module reads from the package (cli)
    sys.modules["dcsam"] = package
    try:
        importlib.import_module("dcsam." + name)
    except Exception as err:
        failed.append(f"{name}: {type(err).__name__}: {err}")
print("\\n".join(failed))
"""


def test_every_module_imports_on_its_own():
    # __init__ imports the package in one order, and __main__ runs the CLI
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(PACKAGE), *names],
                          capture_output=True, text=True, timeout=120, check=True)
    assert {"config", "pipeline", "cli"} <= set(names)
    assert proc.stdout.strip() == ""


# Loads ``dcsam.reference`` alone and lists every dcsam module that came with it.
REFERENCE_PROBE = """
import importlib, sys, types
package = types.ModuleType("dcsam")
package.__path__ = [sys.argv[1]]
sys.modules["dcsam"] = package
importlib.import_module("dcsam.reference")
print(" ".join(sorted(k for k in sys.modules if k.startswith("dcsam."))))
"""


def test_importing_the_package_loads_neither_the_oracles_nor_the_reference():
    # the audit modules load only when asked for (the CLI's oracle command)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import dcsam; "
             "print(' '.join(sorted(k for k in sys.modules if k.startswith('dcsam'))))")
    proc = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert {"dcsam", "dcsam.trainer"} <= loaded
    assert not loaded & {"dcsam.oracles", "dcsam.reference"}


def test_the_reference_forward_shares_no_code_with_the_layers_it_checks():
    proc = subprocess.run([sys.executable, "-c", REFERENCE_PROBE, str(PACKAGE)],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert "dcsam.reference" in loaded
    assert not loaded & {"dcsam.tensor", "dcsam.pipeline", "dcsam.attention", "dcsam.decoder",
                         "dcsam.losses"}
