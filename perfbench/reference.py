"""Reference answers for the benchmark's checks.

Nothing here imports frobenius3: every answer the benchmark compares the
program's output against is computed from a published formula with plain
integer arithmetic, so a fault in the program cannot hide behind a fault
shared with its check.
"""

import math


def pairwise_coprime(*xs: int) -> bool:
    return all(math.gcd(x, y) == 1 for i, x in enumerate(xs) for y in xs[i + 1:])


def is_degenerate(a1: int, a2: int, a3: int) -> bool:
    """True iff a3 is a nonnegative combination of a1 and a2.

    Expects sorted pairwise-coprime generators. Such a combination of a3 can
    have no zero coefficient, so this is also the positive-combination test.
    """
    u = a3 * pow(a1, -1, a2) % a2
    return u * a1 <= a3


def sylvester(x: int, y: int) -> int:
    """Frobenius number of two coprime generators (Sylvester 1884)."""
    return x * y - x - y


def rodseth(a1: int, a2: int, a3: int) -> int:
    """Frobenius number of a non-degenerate sorted triple (Rødseth 1978).

    With s0 the residue in [0, a1) of a3 * a2^-1 mod a1, expand a1/s0 as a
    negative continued fraction: s_{i-1} = q_{i+1} s_i - s_{i+1} and
    P_{i+1} = q_{i+1} P_i - P_{i-1}, from s_{-1} = a1, P_{-1} = 0, P_0 = 1.
    For the index v with s_{v+1}/P_{v+1} <= a3/a2 < s_v/P_v,
    g = -a1 + a2 (s_v - 1) + a3 (P_{v+1} - 1) - min(a2 s_{v+1}, a3 P_v).

    A run of partial quotients q = 2 moves s and P by constant steps, so it
    is crossed with one division; without that, expansions with a long run
    (arithmetic progressions, for one) would take time linear in a1.
    """
    s_prev, s = a1, a3 * pow(a2, -1, a1) % a1
    p_prev, p = 0, 1
    # loop invariant: s_prev / p_prev > a3 / a2 (infinite while p_prev = 0)
    while s * a2 > a3 * p:
        ds, dp = s_prev - s, p - p_prev
        if ds <= s:
            # q = 2 for the next `run` steps; stop early where the ratio
            # first drops to a3/a2
            run = s // ds
            need = -(-(s * a2 - a3 * p) // (ds * a2 + dp * a3))
            j = min(run, need)
            s_prev, s = s - (j - 1) * ds, s - j * ds
            p_prev, p = p + (j - 1) * dp, p + j * dp
        else:
            q = -(-s_prev // s)
            s_prev, s = s, q * s - s_prev
            p_prev, p = p, q * p - p_prev
    return -a1 + a2 * (s_prev - 1) + a3 * (p - 1) - min(a2 * s, a3 * p_prev)


def frobenius_g(x1: int, x2: int, x3: int) -> int:
    """Classical Frobenius number of three pairwise-coprime generators."""
    a1, a2, a3 = sorted((x1, x2, x3))
    if is_degenerate(a1, a2, a3):
        return sylvester(a1, a2)
    return rodseth(a1, a2, a3)


def roberts_ap(a: int, d: int) -> int:
    """Frobenius number of (a, a+d, a+2d) with gcd(a, d) = 1 (Roberts 1956)."""
    return ((a - 2) // 2 + 1) * a + (d - 1) * (a - 1) - 1


def pair_least_multiple(a: int, b: int) -> tuple[int, int, int]:
    """(m, u, w) for the least m with m*b = u*a + w*(a+b), u, w >= 1.

    (m - w) b = (u + w) a forces m - w = j a with j >= 1, so m >= a + 1,
    and m = a + 1 is met only by w = 1, u = b - 1.
    """
    return a + 1, b - 1, 1


def crt(residues, moduli) -> int:
    """Least nonnegative x with x = r_i (mod m_i), pairwise-coprime m_i."""
    modulus = math.prod(moduli)
    x = 0
    for r, m in zip(residues, moduli):
        rest = modulus // m
        x += r * rest * pow(rest, -1, m)
    return x % modulus


def frobenius_candidates(a1: int, a2: int, a3: int, l1: int, l2: int, l3: int) -> tuple[int, int]:
    """Solutions of the two cyclic systems built from the least multiples L_i of a_i.

    System A: x = L1 (mod a3), L2 (mod a1), L3 (mod a2).
    System B: x = L1 (mod a2), L2 (mod a3), L3 (mod a1).
    The larger one is f_pos = g + a1 + a2 + a3.
    """
    return (crt((l1, l2, l3), (a3, a1, a2)),
            crt((l1, l2, l3), (a2, a3, a1)))
