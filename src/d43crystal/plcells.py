"""Systems of integer linear inequalities, decided by Fourier-Motzkin
elimination with Chvatal-Gomory rounding.

A row (a, c) is the inequality a . z <= c over integer vectors z, with
integer coefficients a and an integer bound c.  Eliminating a variable
adds each pair of rows in which it has opposite signs, scaled so that it
cancels: every derived row is a nonnegative combination of the given
ones, so it holds at every rational solution.  After each step every row
is divided by the gcd g of its coefficients and its bound floored: a . z
is then a multiple of g at integer z, so a . z <= c gives
(a / g) . z <= floor(c / g) at every integer solution.  A derived row
0 <= c with c < 0 therefore proves that no integer z satisfies the
system.  Anything else -- all variables eliminated without such a row,
or more than ROW_CAP rows after some step -- is "undecided": the system
may or may not have an integer solution, and nothing is claimed.  Of the
rows with one coefficient vector only the smallest bound is kept; it
implies the others.
"""

from math import gcd

INFEASIBLE = "infeasible"
UNDECIDED = "undecided"
ROW_CAP = 400


def le(a, c):
    """a . z <= c."""
    return (tuple(a), c)


def ge(a, c):
    """a . z >= c, as -a . z <= -c."""
    return (tuple(-x for x in a), -c)


def shifted(row, dz):
    """The row at z + dz, as a row in z: a . z <= c - a . dz."""
    a, c = row
    return (a, c - sum(x * d for x, d in zip(a, dz)))


def _rounded(a, c):
    g = gcd(*a)
    return (tuple(x // g for x in a), c // g) if g else (a, c)


def decide(rows):
    """INFEASIBLE when elimination derives 0 <= c with c < 0, else
    UNDECIDED."""
    system = {}

    def add(a, c):
        a, c = _rounded(a, c)
        if c < system.get(a, c + 1):
            system[a] = c

    for a, c in rows:
        add(tuple(a), c)
    if not system:
        return UNDECIDED
    zero = (0,) * len(next(iter(system)))
    while True:
        if system.get(zero, 0) < 0:
            return INFEASIBLE
        live = [v for v in range(len(zero)) if any(a[v] for a in system)]
        if not live:
            return UNDECIDED
        # the variable with the fewest new rows goes first
        k = min(live, key=lambda v: (sum(a[v] > 0 for a in system)
                                     * sum(a[v] < 0 for a in system)))
        rows = list(system.items())
        system = {}
        for a, c in rows:
            if a[k] == 0:
                add(a, c)
        for pa, pc in rows:
            if pa[k] > 0:
                for na, nc in rows:
                    if na[k] < 0:
                        s, t = pa[k], -na[k]
                        add(tuple(t * x + s * y for x, y in zip(pa, na)),
                            t * pc + s * nc)
        if len(system) > ROW_CAP:
            return UNDECIDED
