"""Import hygiene: the library, its CLI and its battery run on numpy
alone, and every entry point the benchmark's tracer wraps exists."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path


def _run(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)


def _scipy_modules_after(statement):
    out = _run(
        f"{statement}; import sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import bellproc") == "[]"


def test_cli_import_loads_no_scipy():
    # every bellproc command imports the CLI, the battery included
    assert _scipy_modules_after("import bellproc.cli") == "[]"


def test_verify_runs_with_scipy_unimportable():
    # a None entry in sys.modules makes every `import scipy...` fail
    out = _run(
        "import sys; sys.modules['scipy'] = None; "
        "from bellproc.cli import main; "
        "sys.exit(main(['verify', '--seed', '12345']))"
    )
    assert out.returncode == 0, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 29 and all(line.startswith("PASS ") for line in lines)


def test_bench_tracer_entry_points_exist():
    # bench/spans.py wraps these names for --trace 1; a rename or deletion
    # in the library would break the traced benchmark
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.ENTRY_POINTS.items():
        module = importlib.import_module(f"bellproc.{layer}")
        assert [n for n in names if not callable(getattr(module, n, None))] == [], layer
