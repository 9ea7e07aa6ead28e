import os
import subprocess
import sys
import types
from pathlib import Path

import chemolab as cl


def test_all_lists_every_public_name_and_no_module():
    exported = set(cl.__all__)
    assert len(exported) == len(cl.__all__)
    assert all(hasattr(cl, name) for name in cl.__all__)
    assert not [name for name in cl.__all__ if isinstance(getattr(cl, name), types.ModuleType)]
    public = {
        name for name in dir(cl)
        if not name.startswith("_") and not isinstance(getattr(cl, name), types.ModuleType)
    }
    assert exported == public


def test_import_loads_no_scipy_sparse_linalg_integrate_or_fftpack():
    # a fresh import pays only for what chemolab uses: scipy's sparse,
    # dense linear algebra and ODE packages would add to every start-up, and
    # the transforms call scipy.fft's kernel without scipy.fftpack's wrappers
    src = str(Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, chemolab, chemolab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'sparse'], ['scipy', 'linalg'], ['scipy', 'integrate'], "
        "['scipy', 'fftpack'])))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
