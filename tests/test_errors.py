"""The argument rules of rwrc.errors, at every entry point that applies them."""

import math

import numpy as np
import pytest

from rwrc.conductance import ConductanceField, optimal_profile
from rwrc.domain import box_domain, build_domain
from rwrc.errors import ArgumentOutOfRange, NonPositiveArgument, require_count, require_positive
from rwrc.experiments import tauberian_check
from rwrc.girsanov import comparison_bound_check
from rwrc.profiles import uniform_profile
from rwrc.spectral import eigen_tail
from rwrc.tail_law import TailLaw
from rwrc.transforms import log_pair_sum_tail
from rwrc.variational import exponent
from rwrc.walk import nonexit_mc, occupation_mc

LAW = TailLaw(1.0, 1.0)


def two_site():
    return build_domain([[0], [1]], 1)


def unit_field(dom):
    return ConductanceField(dom, np.ones(dom.n_edges))


# each entry that takes a finite positive scale, exponent or bound
POSITIVE_SITES = {
    "TailLaw eta": lambda x: TailLaw(x, 1.0),
    "TailLaw D": lambda x: TailLaw(1.0, x),
    "exponent eta": exponent,
    "optimal_profile cap": lambda x: optimal_profile(uniform_profile(two_site()), LAW, cap=x),
    "comparison_bound_check eps": lambda x: comparison_bound_check(
        unit_field(two_site()), x, two_site(), 1.0, 2, np.random.default_rng(0)
    ),
    "log_pair_sum_tail eps": lambda x: log_pair_sum_tail(LAW, x),
    "tauberian_check M": lambda x: tauberian_check(LAW, x, [1.0]),
    "tauberian_check t": lambda x: tauberian_check(LAW, 1.0, [x]),
    # inf used to pass here and give a tail probability of nan
    "eigen_tail eps": lambda x: eigen_tail(
        LAW, box_domain(1, 1), [x], method="mc", n_fields=20, rng=np.random.default_rng(1)
    ),
}


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("site", sorted(POSITIVE_SITES))
def test_positive_rule_rejects_every_nonpositive_or_infinite_value(site, x):
    with pytest.raises(NonPositiveArgument):
        POSITIVE_SITES[site](x)


def test_rules_return_plain_numbers():
    assert type(require_positive(np.float64(0.5), "x")) is float
    assert type(require_count(np.int64(3), 1, "n")) is int
    assert require_count(3.0, 1, "n") == 3
    # a non-positive value is out of range too, so either class may be caught
    assert issubclass(NonPositiveArgument, ArgumentOutOfRange)


def test_nonexit_mc_rejects_a_fractional_path_count():
    dom = two_site()
    with pytest.raises(ArgumentOutOfRange):
        nonexit_mc(unit_field(dom), dom, 1.0, 2.9, np.random.default_rng(0))


def test_occupation_mc_rejects_a_bool_path_count():
    dom = two_site()
    with pytest.raises(ArgumentOutOfRange):
        occupation_mc(unit_field(dom), dom, 1.0, True, np.random.default_rng(0))


def test_comparison_bound_rejects_zero_fields():
    dom = two_site()
    with pytest.raises(ArgumentOutOfRange):
        comparison_bound_check(unit_field(dom), 0.1, dom, 1.0, 0, np.random.default_rng(0))


def test_comparison_bound_rejects_a_fractional_field_count():
    dom = two_site()
    with pytest.raises(ArgumentOutOfRange):
        comparison_bound_check(unit_field(dom), 0.1, dom, 1.0, 2.7, np.random.default_rng(0))


def test_box_domain_rejects_a_bool_half_width():
    with pytest.raises(ArgumentOutOfRange):
        box_domain(1, True)
