"""A long equality sweep of the float-to-text kernels, run by hand:

    PYTHONPATH=src python3 tests/floattext_sweep.py [MILLIONS] [SEED]

Compares ``floattext.csv_rows`` with per-value ``repr`` and
``floattext.svg_circles`` with per-value ``'%.2f'`` on MILLIONS (default
10) million doubles for each, in chunks of a million:

- a quarter with random bits, so every exponent, sign, subnormal and
  non-finite value (NaN too) turns up;
- a quarter log-uniform over the whole vectorised repr range, 1e-4 to
  1e16, with random signs;
- a quarter at or next to powers of two and of ten in that range;
- a quarter uniform on [-10, 10).

The '%.2f' sweep formats pairs: the values themselves, and the values
times 100 (half of them) or exact multiples of 1/8 up to 2^42 (a quarter),
so exact ties, near-ties and the 2^40 edge all occur. Prints one line per kernel
and exits 1 at the first difference. pytest does not collect this file.
"""
import sys

import numpy as np

from rejmc.floattext import csv_rows, svg_circles

CHUNK = 1_000_000


def edges(rng, n):
    """Powers of two and ten in [1e-4, 1e16), and their neighbours."""
    base = np.concatenate([2.0 ** np.arange(-14, 54), 10.0 ** np.arange(-4, 17)])
    x = rng.choice(base, n) * rng.choice([-1.0, 1.0], n)
    steps = rng.integers(-3, 4, n)
    for _ in range(3):
        x = np.where(steps > 0, np.nextafter(x, np.inf), x)
        x = np.where(steps < 0, np.nextafter(x, -np.inf), x)
        steps -= np.sign(steps)
    return x


def chunk(rng, n):
    q = n // 4
    bits = rng.integers(0, 2**64, q, dtype=np.uint64, endpoint=False).view(np.float64)
    loguniform = 10.0 ** rng.uniform(-4, 16, q) * rng.choice([-1.0, 1.0], q)
    return np.concatenate([bits, loguniform, edges(rng, q), rng.uniform(-10, 10, n - 3 * q)])


def main() -> int:
    millions = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    rng = np.random.default_rng(int(sys.argv[2]) if len(sys.argv) > 2 else 2020)
    checked = {"repr": 0, "%.2f": 0}
    for _ in range(millions):
        x = chunk(rng, CHUNK)
        want = "".join(repr(v) + "\n" for v in x.tolist()).encode()
        if b"".join(csv_rows(x.reshape(-1, 1))) != want:
            print("repr: a value differs in this chunk")
            return 1
        checked["repr"] += len(x)
        # x * 100 for half of them, and exact multiples of 1/8 for a quarter
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.where(rng.random(len(x)) < 0.5, x * 100, x)
        y[::4] = rng.integers(-(2**45), 2**45, len(y[::4])) / 8
        pairs = zip(y.tolist(), x.tolist())
        want = "".join('<circle cx="%.2f" cy="%.2f" r="1"/>\n' % p for p in pairs).encode()
        if b"".join(svg_circles(y, x)) != want:
            print("%.2f: a value differs in this chunk")
            return 1
        checked["%.2f"] += 2 * len(x)
    for kernel, count in checked.items():
        print(f"{kernel}: {count} values equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
