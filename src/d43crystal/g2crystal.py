"""Classical crystal B(j) of one-row G2 shapes in six coordinates.

An element is a tuple (x1, x2, x3, x3b, x2b, x1b) of nonnegative integers
with x3 = x3b mod 2; the level-j piece additionally satisfies
x1 + x2 + (x3 + x3b)/2 + x2b + x1b = j.  The operators here are raw case
updates; affine.apply_op is the one guarded path, returning None when the
result leaves the crystal ("absent"), so the killed value is never encoded
as an element.
"""

def pos(v):
    return v if v > 0 else 0


def valid_coords(b):
    return len(b) == 6 and (b[2] - b[3]) % 2 == 0


def gsum(b):
    """x1 + x2 + (x3+x3b)/2 + x2b + x1b (the tableau length)."""
    return b[0] + b[1] + (b[2] + b[3]) // 2 + b[4] + b[5]


def e1_raw(b):
    """Case dispatch only; no nonnegativity guard (the limit crystal
    allows negative coordinates)."""
    x1, x2, x3, x3b, x2b, x1b = b
    if x2b - x3b >= pos(x2 - x3):
        return (x1, x2, x3, x3b, x2b + 1, x1b - 1)
    if x2b - x3b < 0 <= x3 - x2:
        return (x1, x2, x3 + 1, x3b - 1, x2b, x1b)
    return (x1 + 1, x2 - 1, x3, x3b, x2b, x1b)


def f1_raw(b):
    x1, x2, x3, x3b, x2b, x1b = b
    if pos(x2b - x3b) <= x2 - x3:
        return (x1 - 1, x2 + 1, x3, x3b, x2b, x1b)
    if x2b - x3b <= 0 < x3 - x2:
        return (x1, x2, x3 - 1, x3b + 1, x2b, x1b)
    return (x1, x2, x3, x3b, x2b - 1, x1b + 1)


def e2_raw(b):
    x1, x2, x3, x3b, x2b, x1b = b
    if x3b >= x3:
        return (x1, x2, x3, x3b + 2, x2b - 1, x1b)
    return (x1, x2 + 1, x3 - 2, x3b, x2b, x1b)


def f2_raw(b):
    x1, x2, x3, x3b, x2b, x1b = b
    if x3b <= x3:
        return (x1, x2 - 1, x3 + 2, x3b, x2b, x1b)
    return (x1, x2, x3, x3b - 2, x2b + 1, x1b)


def eps1(b):
    x1, x2, x3, x3b, x2b, x1b = b
    return x1b + pos(x3b - x2b + pos(x2 - x3))


def phi1(b):
    x1, x2, x3, x3b, x2b, x1b = b
    return x1 + pos(x3 - x2 + pos(x2b - x3b))


def eps2(b):
    x1, x2, x3, x3b, x2b, x1b = b
    return x2b + pos(x3 - x3b) // 2


def phi2(b):
    x1, x2, x3, x3b, x2b, x1b = b
    return x2 + pos(x3b - x3) // 2


def enumerate_g2(j):
    """All elements of B(j), lexicographically ordered."""
    out = []
    for x1 in range(j + 1):
        for x2 in range(j + 1 - x1):
            rest1 = j - x1 - x2
            for h in range(rest1 + 1):  # h = (x3 + x3b)/2
                rest2 = rest1 - h
                for x3 in range(2 * h + 1):
                    x3b = 2 * h - x3
                    for x2b in range(rest2 + 1):
                        out.append((x1, x2, x3, x3b, x2b, rest2 - x2b))
    out.sort()
    return out


def g2_dim(j):
    """#B(j), counted from the one-row tableau model."""
    def comb6(n):
        if n < 0:
            return 0
        num = 1
        for k in range(1, 7):
            num = num * (n + k) // k
        return num

    return comb6(j) - comb6(j - 2)


# tableau rendering: letters 1,2,3,0,3b,2b,1b in weakly increasing order

LETTERS = ("1", "2", "3", "0", "3b", "2b", "1b")


def to_tableau(b):
    """Word of letters; barred letters rendered with a 'b' suffix."""
    x1, x2, x3, x3b, x2b, x1b = b
    w0 = x3 % 2
    counts = (x1, x2, (x3 - w0) // 2, w0, (x3b - w0) // 2, x2b, x1b)
    word = []
    for letter, n in zip(LETTERS, counts):
        word.extend([letter] * n)
    return word


def from_tableau(word):
    counts = {letter: 0 for letter in LETTERS}
    for letter in word:
        counts[letter] += 1
    w0 = counts["0"]
    if w0 > 1:
        raise ValueError("letter 0 may occur at most once")
    return (
        counts["1"],
        counts["2"],
        2 * counts["3"] + w0,
        2 * counts["3b"] + w0,
        counts["2b"],
        counts["1b"],
    )
