"""Plain linear algebra over exact fields (QQ or a prime field).

Matrices are lists of rows whose entries are field elements coerced by the
given ring object.  Used for finite-cover homology, where everything is a
finite-dimensional vector space, and for exact matrix inverses.  `rref` is the one elimination routine;
kernels, solutions and inverses are read off its result.
"""


def rref(ring, rows):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = [row[:] for row in rows]
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
        R[r] = [x * inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def kernel_basis(ring, rows, ncols):
    """Basis (list of column vectors) of the right kernel of `rows`."""
    zero = ring.coerce(0)
    one = ring.coerce(1)
    R, pivots = rref(ring, rows)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for j in free:
        v = [zero] * ncols
        v[j] = one
        for r_i, c in enumerate(pivots):
            v[c] = -R[r_i][j]
        basis.append(v)
    return basis


def solve(ring, columns, targets, nrows):
    """Coordinates x with K * x = w for each target w; K has the given columns.

    Row-reduces [K | W]: when K has full column rank its pivots are the
    first len(columns) columns, and the rows above read off the solutions.
    Raises ValueError if the columns are dependent or a target is outside
    their span.
    """
    k = len(columns)
    aug = [[col[i] for col in columns] + [w[i] for w in targets]
           for i in range(nrows)]
    R, pivots = rref(ring, aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("columns are linearly dependent")
    if len(pivots) > k:
        raise ValueError("vector not in the column span")
    return [[R[i][k + t] for i in range(k)] for t in range(len(targets))]


def inverse(ring, rows):
    """Inverse of a square matrix, read from the row reduction of [A | I]."""
    n = len(rows)
    zero = ring.coerce(0)
    one = ring.coerce(1)
    R, pivots = rref(ring, [list(row) + [one if i == j else zero for j in range(n)]
                            for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


class QuotientSpace:
    """ker/im presentation of a homology group over a field.

    `kernel` is a list of column vectors spanning ker (linearly
    independent); `image_cols` are vectors inside ker spanning im.
    """

    def __init__(self, ring, kernel, image_cols, ambient_dim):
        self.ring = ring
        self.kernel = kernel
        self.ambient_dim = ambient_dim
        coords = solve(ring, kernel, image_cols, ambient_dim)
        s = len(kernel)
        # echelonize the image coordinates inside kappa**s
        echelon, self.im_pivots = rref(ring, coords)
        self.echelon = [row for row in echelon if any(row)]
        pivset = set(self.im_pivots)
        self.quot_indices = [i for i in range(s) if i not in pivset]

    @property
    def dim(self):
        return len(self.quot_indices)

    def reduce(self, coords):
        """Project kernel coordinates to quotient coordinates."""
        v = coords[:]
        for row, p in zip(self.echelon, self.im_pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return [v[i] for i in self.quot_indices]

    def action_matrix(self, op):
        """Matrix on ker/im of an ambient linear map preserving ker and im.

        `op` maps an ambient vector to its image.
        """
        images = [op(self.kernel[i]) for i in self.quot_indices]
        cols = [self.reduce(c)
                for c in solve(self.ring, self.kernel, images, self.ambient_dim)]
        return [[cols[j][i] for j in range(len(cols))] for i in range(self.dim)]
