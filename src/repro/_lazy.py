"""Package exports that are imported on first use (PEP 562)."""

from importlib import import_module
from typing import Any, Callable, Dict, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, Tuple[str, ...]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for the package whose ``globals()`` is
    ``namespace``: the first access to a name in ``exports`` (module ->
    the names it provides) imports that module and binds the name."""
    where = {name: mod for mod, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(import_module(where[name]), name)
        return value

    return __getattr__
