"""Property tests over random codes: the square-root-measurement channel,
the block information and the block error stay inside their bounds."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supadd.detection import square_root_measurement
from supadd.ensembles import Code, gram, int_bits
from supadd.information import code_information, holevo_binary

TOL = 1e-9


@st.composite
def codes(draw):
    """A linear code (the span of random generator words) or a random set
    of distinct words, n <= 8, with equal or random priors."""
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        words = {0}
        for g in draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=n)):
            words |= {w ^ g for w in words}
        values = sorted(words)
    else:
        values = draw(
            st.lists(st.integers(0, 2**n - 1), min_size=2, max_size=min(2**n, 128), unique=True)
        )
    priors = None
    if draw(st.booleans()):
        weights = draw(
            st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values))
        )
        priors = np.array(weights) / sum(weights)
    return Code(n=n, codewords=int_bits(np.array(values), n), priors=priors)


kappas = st.floats(min_value=0.0, max_value=0.95)


@settings(max_examples=60, deadline=None)
@given(codes(), kappas)
def test_square_root_channel_row_stochastic(code, kappa):
    _, channel = square_root_measurement(gram(code, kappa))
    assert channel.min() >= -TOL
    np.testing.assert_allclose(channel.sum(axis=1), 1.0, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(codes(), kappas)
def test_information_within_bounds(code, kappa):
    bits = code_information(code, kappa)
    bound = min(math.log2(code.num_codewords), code.n * holevo_binary(kappa))
    assert -TOL <= bits <= bound + TOL


@settings(max_examples=60, deadline=None)
@given(codes(), kappas)
def test_block_error_is_a_probability(code, kappa):
    _, channel = square_root_measurement(gram(code, kappa))
    error = 1.0 - float(np.sum(code.priors * np.diag(channel)))
    assert -TOL <= error <= 1.0 + TOL
