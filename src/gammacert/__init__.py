"""Special-function kernel and inequality certification toolkit.

The package evaluates the log-gamma/digamma/polygamma family with its own
Stirling-series kernel, exposes the two-parameter function family

    h_{alpha,y}(x) = [Gamma(x+y+1)/Gamma(y+1)]^(1/x) / (x+y+1)^alpha

together with closed-form derivatives of ln h, and certifies sign conditions,
inequality windows, and classification scans over (alpha, y) with explicit
noise-aware verdicts.  The ``gammacert`` console script drives the suites.

Each library module's ``__all__`` is its public API; the package re-exports
all of them and declares no name of its own but ``__version__``.  The
re-exports load on first use (PEP 562): ``import gammacert`` imports no
submodule, ``import gammacert.X`` only X and what X imports, and the first
package-level name, ``__all__`` or ``dir()`` imports the whole library.
The console script (``cli``) and its suite builders (``suites``) are not
part of it.
"""

__version__ = "0.1.0"

#: The modules whose ``__all__`` the package re-exports, in that order.
_LIBRARY = ("auxchain", "ballvol", "certify", "checks", "errors", "gammakit", "hfamily",
            "ineq", "means", "psiwindows", "records", "report")


def _load_library() -> None:
    if "__all__" in globals():
        return
    from importlib import import_module

    names = ["__version__"]
    for name in _LIBRARY:
        module = import_module(f"{__name__}.{name}")
        globals().update((public, getattr(module, public)) for public in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    # no private name, nor a submodule outside the library, is a re-export:
    # the import system loads such a submodule itself once this refuses it
    if name == "__all__" or not (name.startswith("_") or name in ("cli", "suites")):
        _load_library()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load_library()
    return sorted(globals())
