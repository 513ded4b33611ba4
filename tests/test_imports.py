"""Import hygiene: the library runs on numpy alone."""

import subprocess
import sys


def test_import_loads_no_scipy():
    # only bellproc.verify needs scipy; importing the package must not
    # pull it in
    code = (
        "import bellproc, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
