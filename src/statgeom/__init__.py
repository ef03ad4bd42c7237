"""Statistical geometry of probability vectors and density matrices.

Classical Fisher-Rao geometry on the simplex, the monotone-metric family
on quantum states, operator means, Bures-Uhlmann fidelity and geodesics,
optimal distinguishing measurements, and the boundary billiard traced by
geodesic great circles.

The package exports each submodule's ``__all__``, in the order below.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["__version__"]
for _name in (
    "errors", "linalg", "sampling", "classical", "means", "monotone",
    "bures", "measurement", "billiard", "acceptance",
):
    _module = import_module(f".{_name}", __name__)
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _name, _module, import_module
