import hashlib
import random
from fractions import Fraction as F

import pytest
from oracles import descending_vectors

from tautint.omega import OmegaSpec, omega_integral
from tautint.psi import clear_cache, load_cache, psi_integral, save_cache, stable_types

# classical values; the genus >= 2 ones match the standard tables
KNOWN = {
    (0, (0, 0, 0)): F(1),
    (0, (1, 0, 0, 0)): F(1),
    (0, (2, 0, 0, 0, 0)): F(1),
    (0, (1, 1, 0, 0, 0)): F(2),
    (1, (1,)): F(1, 24),
    (1, (0, 2)): F(1, 24),
    (1, (1, 1)): F(1, 24),
    (1, (2, 1, 0)): F(1, 12),
    (1, (1, 1, 1)): F(1, 12),
    (2, (4,)): F(1, 1152),
    (2, (5, 0)): F(1, 1152),
    (2, (4, 1)): F(1, 384),
    (2, (3, 2)): F(29, 5760),
    (2, (2, 2, 2)): F(7, 240),
    (3, (7,)): F(1, 82944),
}


def test_known_values():
    for (g, d), v in KNOWN.items():
        assert psi_integral(g, d) == v, (g, d)


def test_dimension_gate_and_symmetry():
    assert psi_integral(1, (2,)) == 0
    assert psi_integral(0, (1, 1, 1, 0)) == 0
    assert psi_integral(2, (3, 2)) == psi_integral(2, (2, 3))


def test_psi_digest_pinned():
    # every sorted exponent vector with 3g-3+n <= 10, recomputed from an empty
    # memo; the digest was recorded before the recursion grouped equal
    # exponents (string, dilaton and the linear term once per distinct
    # exponent, the quadratic term over sub-multisets with binomial weights)
    clear_cache()
    h = hashlib.sha256()
    count = 0
    for g, n in stable_types(10):
        if n == 0:
            continue
        dim = 3 * g - 3 + n
        for d in descending_vectors(dim, n, dim):
            h.update(f"{g};{d}={psi_integral(g, d)}\n".encode())
            count += 1
    assert count == 423
    assert h.hexdigest() == "979cb9cd5aba40a301609822555f87e6875151f9f36a62ba22cc9940eccf38e9"


def test_unstable_raises():
    with pytest.raises(ValueError):
        psi_integral(0, (0, 0))
    with pytest.raises(ValueError):
        psi_integral(1, ())
    with pytest.raises(ValueError):  # 2g-2+n > 0, but there is no genus -1
        psi_integral(-1, (0,) * 6)


def _random_stable_indices(count, seed=20240817):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = rng.randint(0, 3)
        n = rng.randint(1, 6)
        if 2 * g - 2 + n <= 0:
            continue
        dim = 3 * g - 3 + n
        cuts = sorted(rng.randint(0, dim) for _ in range(n - 1))
        d = []
        prev = 0
        for c in cuts + [dim]:
            d.append(c - prev)
            prev = c
        out.append((g, tuple(d)))
    return out


def test_string_equation_randomized():
    for g, d in _random_stable_indices(50, seed=11):
        if 2 * g - 2 + (len(d) + 1) <= 0:
            continue
        lhs = psi_integral(g, d + (0,))
        rhs = sum(
            psi_integral(g, d[:j] + (d[j] - 1,) + d[j + 1 :]) for j in range(len(d)) if d[j] >= 1
        )
        assert lhs == rhs, (g, d)


def test_dilaton_equation_randomized():
    for g, d in _random_stable_indices(50, seed=12):
        n = len(d)
        lhs = psi_integral(g, d + (1,))
        rhs = (2 * g - 2 + n) * psi_integral(g, d)
        assert lhs == rhs, (g, d)


def test_cache_roundtrip(tmp_path):
    psi_integral(2, (4,))
    path = tmp_path / "cache.txt"
    saved = save_cache(path)
    assert saved > 0
    text = path.read_text()
    assert text.splitlines()[0].startswith("#")
    clear_cache()
    loaded = load_cache(path)
    assert loaded == saved
    assert psi_integral(2, (4,)) == F(1, 1152)


def test_concurrent_psi_queries_agree():
    import threading

    queries = [(2, (4,)), (2, (3, 2)), (1, (1, 1, 1)), (3, (7,)), (0, (2, 0, 0, 0, 0))]
    results = []

    def worker():
        results.append([psi_integral(g, d) for g, d in queries])

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_cache_skips_corrupt_lines(tmp_path, caplog):
    path = tmp_path / "bad.txt"
    lines = ["# header", "1;1;1/24", "not a line", "1;1;0/0", "9;1,2;3/4"]
    # these pass the degree gate (sum(d) = 3g-3+n, 2g-2+n > 0) but have a
    # negative genus or exponent
    lines += ["-1;0,0,0,0,0,0;5", "0;2,0,0,-1;7"]
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level("WARNING"):
        loaded = load_cache(path)
    assert loaded == 1  # only the valid <tau_1>_1 line
    assert psi_integral(1, (1,)) == F(1, 24)
    with pytest.raises(ValueError):
        psi_integral(-1, (0,) * 6)
    with pytest.raises(ValueError):
        omega_integral(-1, 6, OmegaSpec(1, 0, (0,) * 6))


def test_failed_save_keeps_previous_cache(tmp_path):
    # a file-size limit makes the second, larger save fail part-way through
    # its write; the file written by the first save must survive unchanged
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tautint

    path = tmp_path / "cache.txt"
    script = f"""
import resource, signal, sys
from tautint.psi import psi_integral, save_cache
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
psi_integral(1, (1,))
save_cache({str(path)!r})
size = len(open({str(path)!r}, "rb").read())
psi_integral(3, (3, 3, 3))
resource.setrlimit(resource.RLIMIT_FSIZE, (size + 50, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    save_cache({str(path)!r})
except OSError:
    sys.exit(3)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(tautint.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 3, proc.stderr
    assert path.read_text() == "# tautint-psi-cache v1\n1;1;1/24\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]


def test_stable_types_against_brute_force():
    from test_acceptance import _stable_range

    from tautint.psi import stable_types

    for dimmax in range(-1, 9):
        assert stable_types(dimmax) == _stable_range(dimmax)
        for gmax in range(0, 4):
            want = [(g, n) for g, n in _stable_range(dimmax) if g <= gmax]
            assert stable_types(dimmax, gmax) == want
