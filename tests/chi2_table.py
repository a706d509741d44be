"""Print the chi-square threshold table of ``rejmc.stats``, run by hand:

    python3 tests/chi2_table.py

Prints the ``_CHI2_999`` literal: the 0.999 quantile of chi-square with
dof = 1 .. 511 degrees of freedom, as the installed scipy computes it,
``float(2 * gammaincinv(dof / 2, 0.999))``. ``repr`` round-trips each
double, so pasting the output over the literal in ``src/rejmc/stats.py``
keeps the thresholds bit for bit. tests/test_stats.py checks the table
against scipy. pytest does not collect this file.
"""
import numpy as np
from scipy.special import gammaincinv

MAX_DOF = 511
PER_LINE = 3


def main() -> None:
    values = [float(v) for v in 2 * gammaincinv(np.arange(1, MAX_DOF + 1) / 2, 0.999)]
    print("_CHI2_999 = (")
    for i in range(0, len(values), PER_LINE):
        print("    " + " ".join(f"{v!r}," for v in values[i : i + PER_LINE]))
    print(")")


if __name__ == "__main__":
    main()
