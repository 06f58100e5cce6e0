"""scipy's compiled routines, loaded from their extension files.

Importing scipy.linalg, scipy.special or scipy.optimize runs the package's
__init__.py, and each loads scipy's array-API layer, which brings in
numpy.f2py, email, socket and unittest: about 0.25 s of a cold start that
calls none of them. `routines` loads just the extension module a caller's
routines live in, running no scipy __init__.py, and checks each routine's
signature; a caller that gets None imports the public module instead. Each
(relpath, signatures) lookup runs once per process and its result is kept.
"""

import functools
import os
import sys
import types
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from typing import Optional, Tuple

import numpy as np


def extension(relpath: str) -> Optional[types.ModuleType]:
    """scipy's extension module at relpath under the scipy directory ("linalg/_flapack"):
    the one in sys.modules, else loaded from its file; None when there is no such
    file or it fails to load.

    scipy, scipy._lib and the module's package, where not yet imported, stand in as
    stubs whose __path__ is their directory (scipy's is found with find_spec), so no
    scipy __init__.py runs. Every sys.modules entry the load adds is removed again: a later
    `import scipy.<package>` runs as usual, and finds the same routine objects.
    """
    package, _, stem = relpath.rpartition("/")
    name = "scipy." + relpath.replace("/", ".")
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    root = scipy.submodule_search_locations[0]
    directory = os.path.join(root, *package.split("/"))
    path = next((p for p in (os.path.join(directory, stem + s) for s in EXTENSION_SUFFIXES) if os.path.isfile(p)),
                None)
    if path is None:
        return None
    before = set(sys.modules)
    for stubbed, location in (("scipy", root), ("scipy._lib", os.path.join(root, "_lib")),
                              (name.rpartition(".")[0], directory)):
        if stubbed not in sys.modules:
            sys.modules[stubbed] = stub = types.ModuleType(stubbed)
            stub.__path__ = [location]
    try:
        loader = ExtensionFileLoader(name, path)
        module = module_from_spec(spec_from_loader(name, loader))
        loader.exec_module(module)
    except ImportError:
        return None
    finally:
        for added in set(sys.modules) - before:
            del sys.modules[added]
    return module


def signature(routine) -> str:
    """A ufunc's name and inputs as numpy names them ("stdtr(x1, x2)"), since
    scipy.special rewrites its ufuncs' docs on import; for any other routine
    the first line of its __doc__, where f2py and scipy's C code put it."""
    if isinstance(routine, np.ufunc):
        inputs = ["x"] if routine.nin == 1 else [f"x{i}" for i in range(1, routine.nin + 1)]
        return f"{routine.__name__}({', '.join(inputs)})"
    return (getattr(routine, "__doc__", None) or "").partition("\n")[0]


@functools.cache
def routines(relpath: str, signatures: Tuple[str, ...]) -> Optional[types.SimpleNamespace]:
    """The routines of scipy's extension module at relpath, by name, when each
    one's signature() is its entry of `signatures`; None when one's is not. A
    routine's name is the word before the first "(" of its signature. Kept per
    (relpath, signatures) for the process; `routines.__wrapped__` looks again."""
    module = extension(relpath)
    found = {}
    for expected in signatures:
        name = expected.partition("(")[0].rpartition(" ")[2]
        found[name] = getattr(module, name, None)
        if signature(found[name]) != expected:
            return None
    return types.SimpleNamespace(**found)
