"""Shared test helpers (a plain module, imported by the test files)."""

from fractions import Fraction

from groupfft.rings import QQ, ExtField, ExtFieldElem
from groupfft.transform import GroupVector


def random_vector(group, field, rng):
    """A seeded random vector over Q, F_p, F_{p^r} or Q(zeta_d).

    Extension-field entries draw every base-field coefficient;
    Q(zeta_d) entries have small integer coefficients.
    """

    def rand_elem():
        if field.is_finite:
            if isinstance(field, ExtField):
                return ExtFieldElem(
                    tuple(
                        field.base.from_int(rng.randrange(field.base.order))
                        for _ in range(field.degree)
                    ),
                    field,
                )
            return field.from_int(rng.randrange(field.order))
        if field == QQ:
            return Fraction(rng.randrange(-9, 10))
        return field.from_residue([rng.randrange(-9, 10) for _ in range(field.degree)])

    return GroupVector(group, field, tuple(rand_elem() for _ in range(group.order)))
