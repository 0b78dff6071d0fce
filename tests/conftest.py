"""Suite-wide checks of the library's own verification records."""

from fractions import Fraction

import pytest

from groupfft import factorize
from groupfft.rings import PrimeField


@pytest.fixture(autouse=True, scope="session")
def finite_field_point_checks():
    """Every point check over F_q that a factorization makes while the
    suite runs, through ``factorize.verify_product_identity``, as
    (F_q, record) in order.  Each is checked as it is made: points of a
    flat field E (F_p or F_p[Y]/(m), never a tower) of F_q's
    characteristic, k of them, and the bound (n/|E|)^k at most 2^-64."""
    original = factorize.verify_product_identity
    records = []

    def recording(fd, *args):
        record = original(fd, *args)
        if record.method == "points" and fd.field.characteristic:
            field = record.field
            assert isinstance(field, PrimeField) or field._prime_base is not None, field
            assert field.characteristic == fd.field.characteristic
            assert record.bound == Fraction(len(fd.variables), field.order) ** record.points
            assert record.bound <= Fraction(1, 1 << 64), record
            records.append((fd.field, record))
        return record

    factorize.verify_product_identity = recording
    yield records
    factorize.verify_product_identity = original
