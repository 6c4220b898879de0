"""Plain linear algebra over exact fields (QQ or a prime field).

Matrices are lists of rows whose entries are field elements coerced by the
given ring object.  `rref` is the one elimination routine; ranks, kernels
and solutions are read off its result.
"""


def rref(ring, rows):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = [[ring.coerce(x) for x in row] for row in rows]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = ring.inv(R[r][c])
        R[r] = [ring.coerce(x * inv) for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [ring.coerce(x - f * y) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots

