"""scipy's compiled solver modules, without scipy's Python packages.

The solvers call two of scipy's extension modules: SuperLU's _superlu
(richards2d) and LAPACK's _flapack (linear1d).  Importing them through scipy
runs the __init__ of scipy.sparse, scipy.sparse.linalg and scipy.linalg,
which pull in most of scipy, numpy.f2py and numpy.testing: more than half of
a cold start.  extension() loads the shared object from scipy's install
directory instead and runs no scipy __init__.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from types import ModuleType


def extension(name: str) -> ModuleType:
    """The compiled module scipy imports as name, e.g.
    "scipy.linalg._flapack".  A module scipy already loaded is reused; one
    loaded here is registered under name, so a later scipy import shares
    it.  An install without the file there (an editable build, say) falls
    back to the plain import."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    package = name.rpartition(".")[0].split(".")
    root = importlib.util.find_spec(package[0])
    spec = None
    if root is not None and root.submodule_search_locations:
        directory = os.path.join(root.submodule_search_locations[0],
                                 *package[1:])
        spec = FileFinder(directory, (ExtensionFileLoader,
                                      EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module
