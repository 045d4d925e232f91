"""Find and clear every functools cache in the magspec package.

The caches are found by walking the package's loaded modules (and the
classes defined in them) rather than from a fixed list, so a cache added
to the package later is cleared too.  Clearing them before each operation
makes it cost what it costs in a fresh ``magspec`` process.
"""

from __future__ import annotations

import sys

PACKAGE = "magspec"


def package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _is_cache(obj) -> bool:
    return (callable(getattr(obj, "cache_clear", None))
            and callable(getattr(obj, "cache_info", None)))


def package_caches() -> dict:
    """Qualified name -> cached callable, for every cache in the package."""
    found = {}
    for module in package_modules():
        for value in list(vars(module).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                candidates += [getattr(v, "__func__", v) for v in vars(value).values()]
            for obj in candidates:
                if _is_cache(obj):
                    name = f"{obj.__module__}.{getattr(obj, '__qualname__', obj.__name__)}"
                    found[name] = obj
    return found


def clear_package_caches() -> int:
    caches = package_caches()
    for cached in caches.values():
        cached.cache_clear()
    return len(caches)
