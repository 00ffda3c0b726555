"""Independent reference implementations used to cross-check the package.

These deliberately share no code with ``martkit`` internals: the upcrossing
counter is a two-state scanner, the sigma/tau chain is the N-bounded
recursion that rescans the path for every bound (the package scans each path
once and clips), the analyst modulus is plain subset enumeration, and the
stopping-time check walks partition blocks by hand.
"""

from fractions import Fraction
from itertools import combinations

from martkit import RootValue


def upcrossings_state_machine(values, a, b, N):
    """Count completed a-to-b upcrossings watching only times 0..N-1.

    armed once the path is at or below a; a visit at or above b while armed
    completes one crossing and disarms.
    """
    count = 0
    armed = False
    for t in range(N):
        v = values[t]
        if not armed:
            if v <= a:
                armed = True
        elif v >= b:
            count += 1
            armed = False
    return count


def crossing_chain_recursion(values, a, b, N):
    """(sigmas, taus) of the N-bounded recursion on one path, by row until
    the sigma row repeats.

    sigma_0 = 0; tau_k is the first time in [sigma_k, N] with a value <= a,
    sigma_{k+1} the first time in [tau_k, N] with a value >= b, and each scan
    falls back to N.  Rows past the returned ones repeat the last.
    """

    def scan(hit, start):
        for j in range(start, N + 1):
            if hit(values[j]):
                return j
        return N

    sigmas, taus = [0], []
    while True:
        taus.append(scan(lambda v: v <= a, sigmas[-1]))
        sigmas.append(scan(lambda v: v >= b, taus[-1]))
        if sigmas[-1] == sigmas[-2]:
            return tuple(sigmas), tuple(taus)


def upcrossings_by_recursion(values, a, b, N):
    """Largest n in 0..N with sigma_n < N on the bounded chain (0 at N = 0)."""
    if N == 0:
        return 0
    sigmas, _ = crossing_chain_recursion(values, a, b, N)
    if sigmas[-1] < N:
        # stuck below N: every row stays below N (only when a >= b)
        return N
    return next(r for r, s in enumerate(sigmas) if s >= N) - 1


def brute_analyst_power(space, members, delta, p):
    """max over members and subsets A with mu(A) <= delta of integral |f|^p on A.

    Returns the p-th power of the modulus (exact Fraction), so callers
    compare without taking roots. Finite integer p only.
    """
    atoms = [w for w in range(space.atom_count) if space.weights[w] > 0]
    best = Fraction(0)
    for f in members:
        for r in range(len(atoms) + 1):
            for subset in combinations(atoms, r):
                mass = sum((space.weights[w] for w in subset), Fraction(0))
                if mass > delta:
                    continue
                total = sum(
                    (abs(Fraction(f.values[w])) ** p * space.weights[w] for w in subset),
                    Fraction(0),
                )
                if total > best:
                    best = total
    return best


def norm_power_equals(value, p, power):
    """Exact check that value**p == power for Fraction or RootValue values."""
    if isinstance(value, RootValue):
        # value = base**(1/root), so value**p == power iff base**p == power**root
        return Fraction(value.base) ** p == Fraction(power) ** value.root
    return Fraction(value) ** p == Fraction(power)


def stopping_time_oracle(tau_values, filtration):
    """{tau <= i} must be decided by step i, checked block by block."""
    for i in range(filtration.horizon + 1):
        for block in filtration.steps[i].blocks():
            hits = {tau_values[w] <= i for w in block}
            if len(hits) > 1:
                return False
    return True
