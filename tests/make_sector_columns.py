"""Regenerate src/usdsim/_sector_columns.py, the 50:50 splitter's per-sector table.

    PYTHONPATH=src python3 tests/make_sector_columns.py

Run from the root of a checkout.  Sector n = 0..MAX_ANCILLA_DIM-1 of the
generator theta*(a^dag v - a v^dag), theta = pi/4, holds |n1, n - n1>,
n1 = 0..n; its vacuum-port column U|n, 0> is the last column of the
sector's exponential, which depends on n only, not on the truncation.  The
script takes those columns from ``oracles.vacuum_columns_reference`` (one
dense ``scipy.linalg.expm`` per sector) at the largest dim, undoes the port
parity (multiplying by +-1 is exact, signed zeros included) and writes each
sector's entries as one line of ``float.hex`` values.  Regenerating changes
the ancilla POVM's bits wherever the local expm differs from the one the
table was made with: do it only for an announced change of those bits.
"""

import sys
from pathlib import Path

import oracles

from usdsim.discrimination import MAX_ANCILLA_DIM

TARGET = Path("src") / "usdsim" / "_sector_columns.py"

HEADER = '''"""Vacuum-port columns U|n, 0> of the 50:50 beam splitter, by sector.

Generated by ``PYTHONPATH=src python3 tests/make_sector_columns.py``; do not
edit.  Line n of ``_HEX`` holds sector n's column, the entries at
|n1, n - n1> for n1 = 0..n, before the port parity (-1)^(n2): the bits of the
last column of exp(theta*G_n), theta = pi/4, for the sector's generator block
G_n, as scipy.linalg.expm computed them.  The sectors do not depend on the
truncation, so these MAX_ANCILLA_DIM lines serve every dim up to the cap.
"""

_HEX = """\\
'''

FOOTER = '''"""

#: SECTOR_COLUMNS[n][n1] is the amplitude of |n1, n - n1> in U|n, 0> before
#: the port parity.
SECTOR_COLUMNS: tuple[tuple[float, ...], ...] = tuple(
    tuple(map(float.fromhex, line.split())) for line in _HEX.splitlines()
)
'''


def main() -> int:
    dim = MAX_ANCILLA_DIM
    w = oracles.vacuum_columns_reference(0.5, dim).real
    parity = oracles.port_parity(dim)
    lines = []
    for total in range(dim):
        rows = [n1 * dim + (total - n1) for n1 in range(total + 1)]
        lines.append(" ".join(float.hex(float(w[r, total] * parity[r])) for r in rows))
    TARGET.write_text(HEADER + "\n".join(lines) + "\n" + FOOTER)
    print(f"{TARGET}: {dim} sectors, {dim * (dim + 1) // 2} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
