"""Rewrite the exact binomial tail table that ships with fedsurv.

    PYTHONPATH=src python tools/write_cdf_table.py

Run it from the repository root. It builds ``numerics._CdfTable`` at the
default hypothesis's rho, rows 0..``numerics.EXACT_MAX_N``, and saves the
table as little-endian float64 to ``numerics._table_path(rho)``, the file
``binomial_cdf_exact`` maps instead of building the table.
"""

import numpy as np

from fedsurv import numerics
from fedsurv.surge import SurgeHypothesis


def main() -> None:
    rho = SurgeHypothesis().rho
    table = numerics._CdfTable(rho)
    table.lookup(np.array([0]), np.array([numerics.EXACT_MAX_N]))
    path = numerics._table_path(rho)
    path.parent.mkdir(exist_ok=True)
    np.save(path, table.values.astype("<f8"), allow_pickle=False)
    print(f"wrote {path}: {table.values.size} values")


if __name__ == "__main__":
    main()
