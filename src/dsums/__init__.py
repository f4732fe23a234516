"""Exact Dedekind sums, mean square values of L(1,chi) over character
subgroups, relative class number bounds, and prime-survey densities."""

from .dedekind import (
    dedekind_sum,
    dedekind_sum_naive,
    dedekind_sum_parts,
    dedekind_sum_tilde,
    s_near_one_closed,
    s_one,
    tilde_s_one,
)
from .classnumber import (
    bound_chain,
    general_bound,
    relative_class_number,
    upper_bound_simple,
    upper_bound_subfield,
)
from .eisenstein import e_f, order3_subgroups_from_ef, representations
from .meansquare import (
    PiSquared,
    euler_correction_pi,
    kernel_sum_closed,
    l_one_numeric,
    mean_order_closed,
    mean_square_closed_h3,
    mean_square_closed_trivial,
    mean_square_exact,
    mean_square_numeric,
    n_value,
    subgroup_sum_S,
    subgroup_sum_tilde,
)
from .numkernel import factorize, is_prime, mobius, primes_in_progression, totient
from .survey import (
    DensityReport,
    resume,
    scan_fixed_n,
    scan_window,
)
from .unitgroups import (
    DirichletCharacter,
    Subgroup,
    characters,
    element_order,
    elements_of_order,
    kernel_subgroup,
    odd_characters_trivial_on,
    subgroup_from_elements,
    subgroup_from_generator,
    subgroup_of_order,
    trace,
    unit_group,
)

__version__ = "0.1.0"
