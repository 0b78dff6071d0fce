#!/usr/bin/env python3
"""Sample vectors and compare Hamming weight with the dual-side matrix rank.

The rank of the matrix built from the transformed vector always equals
the number of nonzero entries of the original; this script checks that
over random samples and prints the weight histogram.  Every coefficient
of an entry is drawn, so over F_{p^r} the entries leave the prime field.
It exits 1 if any rank differs from the weight, 0 otherwise.
"""

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction

from groupfft import GroupVector, blahut_weight, parse_group
from groupfft.cli import parse_field_descriptor
from groupfft.rings import ExtField, ExtFieldElem


def draw(field, rng):
    """A seeded entry: uniform over a finite field, drawing each coefficient
    down to the prime field; small integers over Q and for each
    coefficient of a Q(zeta_d) element."""
    if isinstance(field, ExtField):
        if field.is_finite:
            return ExtFieldElem(
                tuple(draw(field.base, rng) for _ in range(field.degree)), field
            )
        return field.from_residue([rng.randrange(-5, 6) for _ in range(field.degree)])
    if field.is_finite:
        return field.from_int(rng.randrange(field.order))
    return field.from_rational(Fraction(rng.randrange(-5, 6)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--group", default="C6")
    parser.add_argument("--field", default="F7")
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    group = parse_group(args.group)
    field = parse_field_descriptor(args.field, zeta_conductor=group.exponent)
    rng = random.Random(args.seed)
    histogram = Counter()
    disagreed = Counter()
    for _ in range(args.samples):
        values = tuple(draw(field, rng) for _ in range(group.order))
        vec = GroupVector(group, field, values)
        weight = vec.hamming_weight()
        rank = blahut_weight(vec)
        histogram[weight] += 1
        if rank != weight:
            disagreed[weight] += 1
            print(f"MISMATCH weight={weight} rank={rank} values={values}")

    print(f"group {group.describe()}, field {field!r}, {args.samples} samples")
    for w in sorted(histogram):
        verdict = (f"rank disagreed on {disagreed[w]}" if disagreed[w]
                   else "rank agreed")
        print(f"  weight {w:2d}: {histogram[w]:5d} vectors, {verdict}")
    mismatches = sum(disagreed.values())
    print(f"mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
