"""The dense Gaussian elimination that the package used before its sparse
Echelon, kept as a test-only oracle: solve_linear takes the rows of A and
the column b and works over any exact field whose zero and one it is
given."""


class LinearSolution:
    """Result of exact Gaussian elimination: kind is 'unique',
    'parametrized' (particular + kernel basis) or 'inconsistent'."""

    def __init__(self, kind, particular=None, kernel=None):
        self.kind = kind
        self.particular = particular
        self.kernel = kernel or []


def solve_linear(rows, rhs, zero, one):
    """Solve A x = b exactly over a field.

    rows: list of rows of A; rhs: column b.  Returns a LinearSolution.
    Entries must support +, -, *, /, unary -, and truth-testing for zero.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    n = len(rows[0]) if m else 0
    for r in rows:
        if len(r) != n:
            raise ValueError("ragged matrix")
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = one / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n]:
            return LinearSolution("inconsistent")
    part = [zero] * n
    for r, col in enumerate(pivots):
        part[col] = a[r][n]
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return LinearSolution("unique", part)
    kernel = []
    for fc in free:
        vec = [zero] * n
        vec[fc] = one
        for r, col in enumerate(pivots):
            vec[col] = -a[r][fc]
        kernel.append(vec)
    return LinearSolution("parametrized", part, kernel)
