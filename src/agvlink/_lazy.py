"""numpy, bound at import and loaded at the first computation.

Every module that computes binds `np` from here at its top
(`from ._lazy import np`). The binding is a module whose code runs when one
of its attributes is first read (`importlib.util.LazyLoader`, as in the
Scientific Python's SPEC 1), so importing the package, `--help`,
`--version` or a refused config load none of numpy (0.07-0.10 s to import),
and the first computation loads it in full. If numpy was imported first,
`np` is that module. Only finding numpy happens at import, so a missing
numpy fails the import of the package, not its first computation.

Before Python 3.13 `LazyLoader` takes no lock: two threads that read `np`
for the first time at once could see a half-loaded numpy. The package
starts no threads; a threaded caller avoids the race by importing numpy
first.
"""

import importlib.util
import sys

if "numpy" in sys.modules:
    import numpy as np
else:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
