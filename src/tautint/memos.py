"""The engine memos, listed in one registry with a name and a scope.

Every memo of the package registers here once: each unbounded
`functools.lru_cache` through `cached` or `cached_per_block`, each
module-level memo dict through `register`.  Registering stores a reference
and returns the memo itself, so a lookup runs no code of this module.

Scope "process" memos live as long as the process.  Scope "block" memos are
those whose keys carry r and grow with the space: `release` empties them,
and `checks.iter_suite` calls it as it enters each (space, r) block, so the
identity suite holds one block's entries at a time, not the whole grid's.
"""

from __future__ import annotations

from functools import lru_cache

PROCESS, BLOCK = "process", "block"

# {name: (memo, scope)}
_memos: dict[str, tuple] = {}
# {name: [hits, misses]} of the lru_caches that `release` emptied
_released: dict[str, list[int]] = {}


def register(name: str, memo, scope: str = PROCESS):
    """Record `memo` under `name` with `scope`; return it unchanged."""
    if name in _memos:
        raise ValueError(f"memo {name!r} is registered twice")
    _memos[name] = (memo, scope)
    return memo


def cached(fn, scope: str = PROCESS):
    """`fn` under an unbounded lru_cache, registered as module.name."""
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
    return register(name, lru_cache(maxsize=None)(fn), scope)


def cached_per_block(fn):
    return cached(fn, BLOCK)


def release() -> None:
    """Empty every memo of scope "block"."""
    for name, (memo, scope) in _memos.items():
        if scope == BLOCK and isinstance(memo, dict):
            memo.clear()
        elif scope == BLOCK:
            tally, info = _released.setdefault(name, [0, 0]), memo.cache_info()
            tally[0] += info.hits
            tally[1] += info.misses
            memo.cache_clear()


def _entries(memo: dict) -> int:
    """The leaf entries of a memo dict, whose values may be dicts in turn."""
    return sum(_entries(v) if isinstance(v, dict) else 1 for v in memo.values())


def stats() -> dict[str, dict]:
    """Per memo name: its scope and entries and, for an lru_cache, its hits
    and misses since the process started, released ones included."""
    out = {}
    for name, (memo, scope) in _memos.items():
        if isinstance(memo, dict):
            out[name] = {"scope": scope, "entries": _entries(memo)}
        else:
            info, (hits, misses) = memo.cache_info(), _released.get(name, (0, 0))
            out[name] = {"scope": scope, "entries": info.currsize, "hits": info.hits + hits,
                         "misses": info.misses + misses}
    return out
