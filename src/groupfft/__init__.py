"""groupfft: exact Fourier analysis on finite abelian groups.

Group matrices and their character diagonalization, the finite Fourier
transform pair, circulant and group-ring idempotents, factorization of
X^n - 1 and of group determinants over split fields / Q / finite fields,
the weight-rank identity, and the block diagonalization of the order-6
symmetric group.  All arithmetic is exact.
"""

from .abelian import (
    AbelianGroup,
    Character,
    GroupElement,
    bidual_identification,
    character_matrix,
    character_matrix_inverse,
    parse_group,
)
from .cyclotomic import (
    CycloElem,
    CyclotomicField,
    RationalBasisElement,
    complementary_factor,
    complementary_inverse,
    cyclotomic_field,
    cyclotomic_polynomial,
    galois_conjugates,
    norm_to_rationals,
    rational_basis_abelian,
    rational_basis_cyclic,
)
from .errors import (
    GroupfftError,
    NoRootOfUnity,
    NotInvertible,
    PreconditionError,
    RingMismatch,
    VerificationError,
)
from .factorize import (
    CosetFactor,
    FactoredDeterminant,
    FactorEntry,
    Verification,
    det_over_finite_field,
    det_over_rationals,
    det_split_field,
    factor_cyclotomic,
    factor_group_determinant,
    factor_xn_minus_one,
    q_cyclotomic_cosets,
    vandermonde_det,
)
from .frobenius import (
    FiniteGroup,
    FrobeniusPolynomial,
    Representation,
    TupleCharacter,
    block_diagonalize_s3,
    cyclic_group,
    extended_character,
    frobenius_factorization,
    frobenius_polynomial,
    s3,
)
from .multipoly import MultiPoly, symbolic_det
from .rings import (
    QQ,
    ExtField,
    ExtFieldElem,
    FieldElem,
    PrimeField,
    PrimeFieldElem,
    Rational,
    UniPoly,
    ext_gcd,
    find_irreducible,
    finite_field,
    format_unipoly,
    is_irreducible,
    primitive_nth_root,
)
from .transform import (
    GroupMatrix,
    GroupVector,
    blahut_weight,
    convolve,
    convolve_reference,
    diagonalize,
    dual_diagonalize,
    dual_matrix,
    fft,
    fft_many,
    fft_reference,
    group_idempotents,
    group_matrix,
    group_variables,
    interpolate_at_roots_of_unity,
    inverse_fft,
    inverse_fft_many,
    inverse_fft_reference,
    shift_matrix,
    shift_power_from_idempotents,
    symbolic_vector,
)

__version__ = "0.1.0"
