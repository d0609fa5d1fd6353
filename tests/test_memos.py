import importlib
import pkgutil

import tautint
from tautint import graphs, memos, omega
from tautint.checks import SMALL_GRID, iter_suite
from tautint.omega import OmegaSpec, omega_pairings

BLOCK_MEMOS = {
    "omega._pairing_cache",
    "omega._config_cache",
    "omega._vertex_cache",
    "omega._leg_convolution",
}


def test_every_memo_is_registered_once():
    # every lru_cache and every module-level memo dict of the package, found
    # by walking its modules (a name imported into several modules is one
    # object), is in the registry, under one name only
    found = {}
    for info in pkgutil.iter_modules(tautint.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"tautint.{info.name}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") or (isinstance(obj, dict) and attr.endswith("cache")):
                found.setdefault(id(obj), f"{info.name}.{attr}")
    registered = {id(memo): name for name, (memo, _) in memos._memos.items()}
    assert len(registered) == len(memos._memos), "a memo is registered under two names"
    assert sorted(found[k] for k in found.keys() - registered.keys()) == []
    assert sorted(registered[k] for k in registered.keys() - found.keys()) == []
    assert {"omega._pairing_cache", "omega._config_cache", "omega._vertex_cache", "psi._cache"} <= set(memos._memos)
    scopes = {name: scope for name, (_, scope) in memos._memos.items()}
    assert set(scopes.values()) == {memos.PROCESS, memos.BLOCK}
    assert {name for name, scope in scopes.items() if scope == memos.BLOCK} == BLOCK_MEMOS


def test_release_empties_block_memos_and_stats_count_across_it():
    spec = OmegaSpec(2, 0, (1, 1, 2, 2))
    monos = [((), (1, 0, 0, 0)), ((), (0, 0, 0, 1))]
    memos.release()
    omega_pairings(0, 4, spec, monos)
    before = memos.stats()
    assert all(before[name]["entries"] > 0 for name in BLOCK_MEMOS)
    memos.release()
    after = memos.stats()
    for name, entry in after.items():
        if name in BLOCK_MEMOS:
            assert entry["entries"] == 0, name
        else:
            assert entry == before[name], name
        # hits and misses of an lru_cache are counted across releases
        assert entry.get("hits") == before[name].get("hits"), name
        assert entry.get("misses") == before[name].get("misses"), name
    assert after["omega._leg_convolution"]["hits"] > 0


def test_suite_releases_block_memos_per_space_and_r(monkeypatch):
    # iter_suite empties the memos keyed by r as it enters each (space, r)
    # block; the process memos keep their entries and counts
    release = memos.release
    held = []

    def checked_release():
        before = memos.stats()
        orbits = graphs._graph_orbits.cache_info()
        release()
        after = memos.stats()
        held.append(sum(before[name]["entries"] for name in BLOCK_MEMOS))
        assert all(after[name]["entries"] == 0 for name in BLOCK_MEMOS)
        assert {k: v for k, v in after.items() if k not in BLOCK_MEMOS} == {
            k: v for k, v in before.items() if k not in BLOCK_MEMOS
        }
        assert graphs._graph_orbits.cache_info() == orbits

    monkeypatch.setattr(memos, "release", checked_release)
    reports = list(iter_suite(SMALL_GRID))
    assert len(reports) == 1061 and all(rep.passed for rep in reports)
    assert len(held) == len(SMALL_GRID.spaces()) * SMALL_GRID.max_r
    # each block leaves entries behind for the next release to drop
    assert all(held[1:])
    assert omega._pairing_cache, "the last block keeps its entries"
