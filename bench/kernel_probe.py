"""Seeded rate of CyclotomicNumber multiplication at fixed conductors.

    python3 bench/kernel_probe.py --seed N

Prints one JSON object {"12": products/s, "60": ..., "500": ...}.  Operands
are sparse random elements (four terms, small rational coefficients) drawn
from the seed.  Each timed product a*b is then checked, untimed: against distributivity
a*(b+c) == a*b + a*c the first time its operands occur, and against that
first product when the operand pool wraps round.  So no rate comes from
unchecked arithmetic; a failed check exits 1.
"""

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction

from orbifill.cyclotomic import make

CONDUCTORS = (12, 60, 500)
BATCH_SECONDS = 0.15
BATCHES = 3


def _element(rng, n):
    return make(n, [(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randrange(n))
                    for _ in range(4)])


def rate(n: int, seed: int) -> float:
    rng = random.Random(f"{seed}:{n}")
    pool = [(_element(rng, n), _element(rng, n), _element(rng, n)) for _ in range(64)]
    rates = []
    for _ in range(BATCHES):
        products = []
        start = time.perf_counter()
        while time.perf_counter() - start < BATCH_SECONDS:
            a, b, _ = pool[len(products) % len(pool)]
            products.append(a * b)
        elapsed = time.perf_counter() - start
        rates.append(len(products) / elapsed)
        for k, ab in enumerate(products):
            if k >= len(pool):
                ok = ab == products[k % len(pool)]
            else:
                a, b, c = pool[k]
                ok = a * (b + c) == ab + a * c
            if not ok:
                sys.exit(f"distributivity fails at conductor {n}, product {k}")
    return statistics.median(rates)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    print(json.dumps({str(n): rate(n, seed) for n in CONDUCTORS}))


if __name__ == "__main__":
    main()
