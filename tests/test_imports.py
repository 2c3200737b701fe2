import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded(select: str, run: str = "pass") -> str:
    """Sorted names of the modules m, `select` true, loaded in a fresh interpreter
    by `import ddmemory` and the statement `run`."""
    code = f"import sys, ddmemory; {run}; print(sorted(m for m in sys.modules if {select}))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded("m.split('.')[0] == 'scipy'") == "[]"


def test_udd_chi_loads_no_mpmath():
    # UDD moments come from a closed form in exact rationals
    run = "ddmemory.chi(ddmemory.udd(5, 16e-6), ddmemory.load_preset('gaas'))"
    assert _loaded("m.split('.')[0] == 'mpmath'", run) == "[]"


_PROCESS_MODULES = "m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'"


def test_import_loads_no_process_pool():
    # no module of the package starts or imports worker processes
    assert _loaded(_PROCESS_MODULES) == "[]"


def test_search_starts_no_process():
    # workers is checked and ignored: every candidate is scored in the calling process
    run = "ddmemory.best_sequence(16e-6, 1e-6, ddmemory.load_preset('gaas'), workers=2)"
    assert _loaded(_PROCESS_MODULES, run) == "[]"


def test_no_module_imports_a_private_integrals_name():
    # every band walk lives in integrals; other modules use its public API only
    offenders = []
    for path in sorted((SRC / "ddmemory").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("integrals", "ddmemory.integrals"):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []
