import hashlib

import numpy as np
import pytest

from tbi import (BundleDatum, ComplexStructure, ExtensionForm,
                 StructureDegenerateError, chart_structure, cli, codim_bound,
                 graph_chart, iwasawa_form, local_equations, pairwise_values,
                 product_form, random_structure, riemann_check, sample_point,
                 standard_structure)
from tbi import periods, variety
from tbi.periods import random_periods
from tbi.serialize import dumps, input_document
from tbi.variety import _MAX_BATCH, _chunks, _pair_values

from support import count_calls, random_alternating_form


# ---------------------------------------------------------------------------
# Pairwise values and charts


def test_iwasawa_pairwise_values(iwasawa):
    pairs, values = pairwise_values(iwasawa.form, iwasawa.base)
    assert pairs == ((1, 2),)
    assert np.allclose(values, [[2.0, -2.0j]], atol=1e-12)


def test_pair_labels_m3():
    form = ExtensionForm(np.zeros((2, 6, 6), dtype=np.int64))
    pairs, values = pairwise_values(form, standard_structure(3))
    assert pairs == ((1, 2), (1, 3), (2, 3))
    assert values.shape == (3, 2)


def test_graph_chart_standard_fibre():
    chart = graph_chart(standard_structure(1))
    assert np.allclose(chart, [[-1j]], atol=1e-12)


def test_graph_chart_roundtrip():
    fibre = random_structure(2, 21)
    chart = graph_chart(fibre)
    rebuilt = chart_structure(chart)
    # same column span: each rebuilt column solves against the original period
    coeffs = np.linalg.lstsq(fibre.period, rebuilt.period, rcond=None)[0]
    assert np.allclose(fibre.period @ coeffs, rebuilt.period, atol=1e-9)


def test_graph_chart_outside_chart_raises():
    sideways = ComplexStructure(np.array([[0.0], [1.0]]))
    with pytest.raises(StructureDegenerateError):
        graph_chart(sideways)


def test_graph_chart_ignores_the_scale_of_the_fibre_periods(iwasawa):
    """Scaling the fibre periods changes neither the subspace nor its chart."""
    scaled = ComplexStructure(iwasawa.fibre.period * 1e-10)
    assert riemann_check(iwasawa.form, iwasawa.base, scaled).member
    np.testing.assert_allclose(graph_chart(scaled), graph_chart(iwasawa.fibre), rtol=1e-12)
    assert local_equations(iwasawa.form, iwasawa.base, scaled).member


def test_chart_structure_rejects_nonsquare():
    with pytest.raises(ValueError):
        chart_structure(np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# Local equations


def test_iwasawa_local_equations_member(iwasawa):
    equations = local_equations(iwasawa.form, iwasawa.base, iwasawa.fibre)
    assert equations.pairs == ((1, 2),)
    assert np.allclose(equations.chart, [[-1j]], atol=1e-12)
    assert equations.max_residual < 1e-12
    assert equations.member


def test_local_equations_values_only(iwasawa):
    equations = local_equations(iwasawa.form, iwasawa.base)
    assert equations.chart is None
    assert equations.residuals is None
    assert equations.max_residual == 0.0


def test_local_equations_rejects_real_chart():
    # the graph of a real-conjugate chart meets its own conjugate
    with pytest.raises(StructureDegenerateError):
        local_equations(iwasawa_form(), standard_structure(2), [[0.0]])


def test_local_equations_detects_nonmember():
    rng = np.random.default_rng(31)
    form = random_alternating_form(rng, 2, 1)
    base = random_structure(2, rng)
    fibre = random_structure(1, rng)
    equations = local_equations(form, base, fibre)
    verdict = riemann_check(form, base, fibre)
    assert equations.member == verdict.member
    assert not equations.member


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_verdicts_agree_on_sampled_members(seed):
    rng = np.random.default_rng(seed)
    form = random_alternating_form(rng, 2, 1)
    result = sample_point(form, seed=seed)
    assert result.found
    equations = local_equations(form, result.base, result.fibre)
    assert equations.member
    assert riemann_check(form, result.base, result.fibre).member


# ---------------------------------------------------------------------------
# Codimension bound


@pytest.mark.parametrize("m,d,expected", [(2, 1, 1), (1, 4, 0), (3, 2, 6), (4, 1, 6)])
def test_codim_bound(m, d, expected):
    assert codim_bound(m, d) == expected


def test_codim_bound_rejects_zero_rank():
    with pytest.raises(ValueError):
        codim_bound(0, 1)


# ---------------------------------------------------------------------------
# Sampling


def test_zero_form_samples_first_attempt():
    form = ExtensionForm(np.zeros((2, 4, 4), dtype=np.int64))
    result = sample_point(form, seed=5)
    assert result.found
    assert result.attempts == 1
    assert bool(result)


def test_iwasawa_sample_revalidates(iwasawa):
    result = sample_point(iwasawa.form, seed=9)
    assert result.found
    datum = BundleDatum.checked(iwasawa.form, result.base, result.fibre)
    assert datum.membership.residual <= 1e-9 * max(1.0, datum.membership.scale)


def test_m1_always_succeeds():
    rng = np.random.default_rng(51)
    form = random_alternating_form(rng, 1, 2)
    result = sample_point(form, seed=6)
    assert result.found
    assert result.attempts == 1


def test_sample_deterministic():
    form = product_form(2, 1)
    first = sample_point(form, seed=14)
    second = sample_point(form, seed=14)
    assert first.found and second.found
    assert np.array_equal(first.base.period, second.base.period)
    assert np.array_equal(first.fibre.period, second.fibre.period)


def test_sample_sequence_seed():
    form = product_form(2, 1)
    split_seed = sample_point(form, seed=[14, 0])
    assert split_seed.found
    assert not np.array_equal(split_seed.base.period,
                              sample_point(form, seed=[14, 1]).base.period)


@pytest.mark.parametrize("seed", [1.5, [14, 0.5], "3", [[14, 0]]])
def test_sample_point_refuses_non_integer_seeds(seed):
    with pytest.raises(ValueError, match="seed must be integers"):
        sample_point(product_form(2, 1), seed=seed)


def test_sample_failure_reports_attempts():
    rng = np.random.default_rng(61)
    form = random_alternating_form(rng, 3, 1)
    result = sample_point(form, seed=7, max_attempts=5)
    assert not result.found
    assert result.attempts == 5
    assert result.base is None and result.fibre is None
    assert result.best_residual is None


# ---------------------------------------------------------------------------
# Frozen sampler results
#
# Recorded with the attempt-by-attempt sampler that preceded the batched
# screen: every SampleResult field and the period bytes must stay the same.
# Columns: form, tol, seed, max_attempts, found, attempts, best_residual and
# the first 16 hex digits of sha256(base period bytes + fibre period bytes)
# ("-" when nothing was found).  The coarse tolerances make the rank test and
# the membership check pass on some attempts and not others, so successes
# land inside later batches and failures carry a best residual.


def _random_form(seed, m, d):
    return random_alternating_form(np.random.default_rng(seed), m, d)


SAMPLER_FORMS = {
    "iwasawa": iwasawa_form,
    "product-3-1": lambda: product_form(3, 1),
    "random-2-1-a": lambda: _random_form(41, 2, 1),
    "random-2-1-b": lambda: _random_form(42, 2, 1),
    "random-3-1-a": lambda: _random_form(61, 3, 1),
    "random-3-1-b": lambda: _random_form(62, 3, 1),
    "random-1-2": lambda: _random_form(51, 1, 2),
    "random-2-2": lambda: _random_form(71, 2, 2),
    "random-4-1": lambda: _random_form(81, 4, 1),
    "random-3-2": lambda: _random_form(91, 3, 2),
}

FROZEN_SAMPLES = """
iwasawa 1e-09 0 1 1 1 5.773159728050814e-15 dc9f710595b68736
iwasawa 1e-09 0 5 1 1 5.773159728050814e-15 dc9f710595b68736
iwasawa 1e-09 0 100 1 1 5.773159728050814e-15 dc9f710595b68736
iwasawa 1e-09 1 1 1 1 3.6427540840452094e-16 e0e94132828cc2a2
iwasawa 1e-09 1 5 1 1 3.6427540840452094e-16 e0e94132828cc2a2
iwasawa 1e-09 1 100 1 1 3.6427540840452094e-16 e0e94132828cc2a2
iwasawa 1e-09 2 1 1 1 2.220446049250313e-16 fa3f700019480516
iwasawa 1e-09 2 5 1 1 2.220446049250313e-16 fa3f700019480516
iwasawa 1e-09 2 100 1 1 2.220446049250313e-16 fa3f700019480516
iwasawa 1e-09 3 1 1 1 3.1646225226420963e-16 0bd5f33cb17b68a7
iwasawa 1e-09 3 5 1 1 3.1646225226420963e-16 0bd5f33cb17b68a7
iwasawa 1e-09 3 100 1 1 3.1646225226420963e-16 0bd5f33cb17b68a7
iwasawa 1e-09 4 1 1 1 2.2887833992611187e-16 069950bfa828cbdd
iwasawa 1e-09 4 5 1 1 2.2887833992611187e-16 069950bfa828cbdd
iwasawa 1e-09 4 100 1 1 2.2887833992611187e-16 069950bfa828cbdd
iwasawa 1e-09 5 1 1 1 3.9160205798978334e-16 a9b4569355fa7b77
iwasawa 1e-09 5 5 1 1 3.9160205798978334e-16 a9b4569355fa7b77
iwasawa 1e-09 5 100 1 1 3.9160205798978334e-16 a9b4569355fa7b77
product-3-1 1e-09 0 1 1 1 0.0 09ad667cb57eaab6
product-3-1 1e-09 0 5 1 1 0.0 09ad667cb57eaab6
product-3-1 1e-09 0 100 1 1 0.0 09ad667cb57eaab6
product-3-1 1e-09 1 1 1 1 0.0 9165e431563e1fce
product-3-1 1e-09 1 5 1 1 0.0 9165e431563e1fce
product-3-1 1e-09 1 100 1 1 0.0 9165e431563e1fce
product-3-1 1e-09 2 1 1 1 0.0 db6abf2ee97d009b
product-3-1 1e-09 2 5 1 1 0.0 db6abf2ee97d009b
product-3-1 1e-09 2 100 1 1 0.0 db6abf2ee97d009b
product-3-1 1e-09 3 1 1 1 0.0 fc2f8c86248635c2
product-3-1 1e-09 3 5 1 1 0.0 fc2f8c86248635c2
product-3-1 1e-09 3 100 1 1 0.0 fc2f8c86248635c2
product-3-1 1e-09 4 1 1 1 0.0 d32c4b80ec42fe97
product-3-1 1e-09 4 5 1 1 0.0 d32c4b80ec42fe97
product-3-1 1e-09 4 100 1 1 0.0 d32c4b80ec42fe97
product-3-1 1e-09 5 1 1 1 0.0 9360d88e2c88e851
product-3-1 1e-09 5 5 1 1 0.0 9360d88e2c88e851
product-3-1 1e-09 5 100 1 1 0.0 9360d88e2c88e851
random-2-1-a 1e-09 0 1 1 1 1.4093301783636638e-15 c9c5f55dea7f5eae
random-2-1-a 1e-09 0 5 1 1 1.4093301783636638e-15 c9c5f55dea7f5eae
random-2-1-a 1e-09 0 100 1 1 1.4093301783636638e-15 c9c5f55dea7f5eae
random-2-1-a 1e-09 1 1 1 1 3.241851231905457e-14 1181e2aa0f29748e
random-2-1-a 1e-09 1 5 1 1 3.241851231905457e-14 1181e2aa0f29748e
random-2-1-a 1e-09 1 100 1 1 3.241851231905457e-14 1181e2aa0f29748e
random-2-1-a 1e-09 2 1 1 1 4.4914524932102225e-14 86b91fdfd89bd455
random-2-1-a 1e-09 2 5 1 1 4.4914524932102225e-14 86b91fdfd89bd455
random-2-1-a 1e-09 2 100 1 1 4.4914524932102225e-14 86b91fdfd89bd455
random-2-1-a 1e-09 3 1 1 1 4.67096845156931e-16 d57a7b6ef5449ce9
random-2-1-a 1e-09 3 5 1 1 4.67096845156931e-16 d57a7b6ef5449ce9
random-2-1-a 1e-09 3 100 1 1 4.67096845156931e-16 d57a7b6ef5449ce9
random-2-1-a 1e-09 4 1 1 1 2.254555974640276e-15 75ee7428a04315c5
random-2-1-a 1e-09 4 5 1 1 2.254555974640276e-15 75ee7428a04315c5
random-2-1-a 1e-09 4 100 1 1 2.254555974640276e-15 75ee7428a04315c5
random-2-1-a 1e-09 5 1 1 1 5.757191532588118e-16 d5bc410a22b8c484
random-2-1-a 1e-09 5 5 1 1 5.757191532588118e-16 d5bc410a22b8c484
random-2-1-a 1e-09 5 100 1 1 5.757191532588118e-16 d5bc410a22b8c484
random-2-1-b 1e-09 0 1 1 1 1.2412670766236366e-15 8c617bce2659209c
random-2-1-b 1e-09 0 5 1 1 1.2412670766236366e-15 8c617bce2659209c
random-2-1-b 1e-09 0 100 1 1 1.2412670766236366e-15 8c617bce2659209c
random-2-1-b 1e-09 1 1 1 1 1.2262814116578437e-15 a267e69f79b93e3c
random-2-1-b 1e-09 1 5 1 1 1.2262814116578437e-15 a267e69f79b93e3c
random-2-1-b 1e-09 1 100 1 1 1.2262814116578437e-15 a267e69f79b93e3c
random-2-1-b 1e-09 2 1 1 1 8.215650382226158e-15 55767e561bb3331a
random-2-1-b 1e-09 2 5 1 1 8.215650382226158e-15 55767e561bb3331a
random-2-1-b 1e-09 2 100 1 1 8.215650382226158e-15 55767e561bb3331a
random-2-1-b 1e-09 3 1 1 1 6.955527313080394e-16 983402958c87c637
random-2-1-b 1e-09 3 5 1 1 6.955527313080394e-16 983402958c87c637
random-2-1-b 1e-09 3 100 1 1 6.955527313080394e-16 983402958c87c637
random-2-1-b 1e-09 4 1 1 1 3.798687945636146e-16 d1f4473b9e994ada
random-2-1-b 1e-09 4 5 1 1 3.798687945636146e-16 d1f4473b9e994ada
random-2-1-b 1e-09 4 100 1 1 3.798687945636146e-16 d1f4473b9e994ada
random-2-1-b 1e-09 5 1 1 1 1.1514383065176236e-15 8b4ea01e19ddfe2b
random-2-1-b 1e-09 5 5 1 1 1.1514383065176236e-15 8b4ea01e19ddfe2b
random-2-1-b 1e-09 5 100 1 1 1.1514383065176236e-15 8b4ea01e19ddfe2b
random-3-1-a 1e-09 0 1 0 1 None -
random-3-1-a 1e-09 0 5 0 5 None -
random-3-1-a 1e-09 0 100 0 100 None -
random-3-1-a 1e-09 1 1 0 1 None -
random-3-1-a 1e-09 1 5 0 5 None -
random-3-1-a 1e-09 1 100 0 100 None -
random-3-1-a 1e-09 2 1 0 1 None -
random-3-1-a 1e-09 2 5 0 5 None -
random-3-1-a 1e-09 2 100 0 100 None -
random-3-1-a 1e-09 3 1 0 1 None -
random-3-1-a 1e-09 3 5 0 5 None -
random-3-1-a 1e-09 3 100 0 100 None -
random-3-1-a 1e-09 4 1 0 1 None -
random-3-1-a 1e-09 4 5 0 5 None -
random-3-1-a 1e-09 4 100 0 100 None -
random-3-1-a 1e-09 5 1 0 1 None -
random-3-1-a 1e-09 5 5 0 5 None -
random-3-1-a 1e-09 5 100 0 100 None -
random-3-1-b 1e-09 0 1 0 1 None -
random-3-1-b 1e-09 0 5 0 5 None -
random-3-1-b 1e-09 0 100 0 100 None -
random-3-1-b 1e-09 1 1 0 1 None -
random-3-1-b 1e-09 1 5 0 5 None -
random-3-1-b 1e-09 1 100 0 100 None -
random-3-1-b 1e-09 2 1 0 1 None -
random-3-1-b 1e-09 2 5 0 5 None -
random-3-1-b 1e-09 2 100 0 100 None -
random-3-1-b 1e-09 3 1 0 1 None -
random-3-1-b 1e-09 3 5 0 5 None -
random-3-1-b 1e-09 3 100 0 100 None -
random-3-1-b 1e-09 4 1 0 1 None -
random-3-1-b 1e-09 4 5 0 5 None -
random-3-1-b 1e-09 4 100 0 100 None -
random-3-1-b 1e-09 5 1 0 1 None -
random-3-1-b 1e-09 5 5 0 5 None -
random-3-1-b 1e-09 5 100 0 100 None -
random-1-2 1e-09 0 1 1 1 2.220446049250313e-16 f3cb347f12aa31f9
random-1-2 1e-09 0 5 1 1 2.220446049250313e-16 f3cb347f12aa31f9
random-1-2 1e-09 0 100 1 1 2.220446049250313e-16 f3cb347f12aa31f9
random-1-2 1e-09 1 1 1 1 2.482534153247273e-16 ddb4930cc5515471
random-1-2 1e-09 1 5 1 1 2.482534153247273e-16 ddb4930cc5515471
random-1-2 1e-09 1 100 1 1 2.482534153247273e-16 ddb4930cc5515471
random-1-2 1e-09 2 1 1 1 5.900916318210353e-16 7c64ebee2c74dfb1
random-1-2 1e-09 2 5 1 1 5.900916318210353e-16 7c64ebee2c74dfb1
random-1-2 1e-09 2 100 1 1 5.900916318210353e-16 7c64ebee2c74dfb1
random-1-2 1e-09 3 1 1 1 1.3877787807814457e-16 d7dbb6fe72de493c
random-1-2 1e-09 3 5 1 1 1.3877787807814457e-16 d7dbb6fe72de493c
random-1-2 1e-09 3 100 1 1 1.3877787807814457e-16 d7dbb6fe72de493c
random-1-2 1e-09 4 1 1 1 4.0029660424867215e-16 bd9eca4a8048d5ee
random-1-2 1e-09 4 5 1 1 4.0029660424867215e-16 bd9eca4a8048d5ee
random-1-2 1e-09 4 100 1 1 4.0029660424867215e-16 bd9eca4a8048d5ee
random-1-2 1e-09 5 1 1 1 8.881784197001252e-16 a4f11ec29b76823e
random-1-2 1e-09 5 5 1 1 8.881784197001252e-16 a4f11ec29b76823e
random-1-2 1e-09 5 100 1 1 8.881784197001252e-16 a4f11ec29b76823e
random-2-2 1e-09 0 1 1 1 2.8664015566558355e-15 3e3dda55953de0dc
random-2-2 1e-09 0 5 1 1 2.8664015566558355e-15 3e3dda55953de0dc
random-2-2 1e-09 0 100 1 1 2.8664015566558355e-15 3e3dda55953de0dc
random-2-2 1e-09 1 1 1 1 1.9056582860357134e-15 f407599f45ba99eb
random-2-2 1e-09 1 5 1 1 1.9056582860357134e-15 f407599f45ba99eb
random-2-2 1e-09 1 100 1 1 1.9056582860357134e-15 f407599f45ba99eb
random-2-2 1e-09 2 1 1 1 1.6011864169946884e-14 fddc9f273d808336
random-2-2 1e-09 2 5 1 1 1.6011864169946884e-14 fddc9f273d808336
random-2-2 1e-09 2 100 1 1 1.6011864169946884e-14 fddc9f273d808336
random-2-2 1e-09 3 1 1 1 2.564134525813303e-14 6c446024d597aac1
random-2-2 1e-09 3 5 1 1 2.564134525813303e-14 6c446024d597aac1
random-2-2 1e-09 3 100 1 1 2.564134525813303e-14 6c446024d597aac1
random-2-2 1e-09 4 1 1 1 3.695558742820734e-15 4903d3fc9c63242f
random-2-2 1e-09 4 5 1 1 3.695558742820734e-15 4903d3fc9c63242f
random-2-2 1e-09 4 100 1 1 3.695558742820734e-15 4903d3fc9c63242f
random-2-2 1e-09 5 1 1 1 1.4041276594630607e-15 3b58a707ffd53724
random-2-2 1e-09 5 5 1 1 1.4041276594630607e-15 3b58a707ffd53724
random-2-2 1e-09 5 100 1 1 1.4041276594630607e-15 3b58a707ffd53724
random-4-1 1e-09 0 1 0 1 None -
random-4-1 1e-09 0 5 0 5 None -
random-4-1 1e-09 0 100 0 100 None -
random-4-1 1e-09 1 1 0 1 None -
random-4-1 1e-09 1 5 0 5 None -
random-4-1 1e-09 1 100 0 100 None -
random-4-1 1e-09 2 1 0 1 None -
random-4-1 1e-09 2 5 0 5 None -
random-4-1 1e-09 2 100 0 100 None -
random-4-1 1e-09 3 1 0 1 None -
random-4-1 1e-09 3 5 0 5 None -
random-4-1 1e-09 3 100 0 100 None -
random-4-1 1e-09 4 1 0 1 None -
random-4-1 1e-09 4 5 0 5 None -
random-4-1 1e-09 4 100 0 100 None -
random-4-1 1e-09 5 1 0 1 None -
random-4-1 1e-09 5 5 0 5 None -
random-4-1 1e-09 5 100 0 100 None -
random-3-1-a 0.2 0 1 0 1 None -
random-3-1-a 0.2 0 5 0 5 None -
random-3-1-a 0.2 0 100 0 100 0.8918835823037531 -
random-3-1-a 0.2 1 1 0 1 None -
random-3-1-a 0.2 1 5 0 5 None -
random-3-1-a 0.2 1 100 1 24 1.134599004608995 718f387ac2fa56e6
random-3-1-a 0.2 2 1 0 1 None -
random-3-1-a 0.2 2 5 0 5 None -
random-3-1-a 0.2 2 100 1 9 0.38075250086694534 1579fcb186d3a725
random-3-1-a 0.2 3 1 0 1 None -
random-3-1-a 0.2 3 5 0 5 None -
random-3-1-a 0.2 3 100 0 100 None -
random-3-1-a 0.2 4 1 0 1 None -
random-3-1-a 0.2 4 5 0 5 None -
random-3-1-a 0.2 4 100 0 100 None -
random-3-1-a 0.2 5 1 0 1 None -
random-3-1-a 0.2 5 5 0 5 None -
random-3-1-a 0.2 5 100 0 100 1.2983499138980694 -
random-3-1-a 0.5 0 1 1 1 1.691239484516159 8bb82f26ea6a5d38
random-3-1-a 0.5 0 5 1 1 1.691239484516159 8bb82f26ea6a5d38
random-3-1-a 0.5 0 100 1 1 1.691239484516159 8bb82f26ea6a5d38
random-3-1-a 0.5 1 1 0 1 None -
random-3-1-a 0.5 1 5 1 3 0.7810321992123018 7d214177f05432ec
random-3-1-a 0.5 1 100 1 3 0.7810321992123018 7d214177f05432ec
random-3-1-a 0.5 2 1 0 1 None -
random-3-1-a 0.5 2 5 0 5 None -
random-3-1-a 0.5 2 100 1 7 0.840412692354727 ecd828adbc57e403
random-3-1-a 0.5 3 1 0 1 None -
random-3-1-a 0.5 3 5 0 5 1.9887025796091071 -
random-3-1-a 0.5 3 100 1 8 1.3174088609227188 ff2ecfcd56f13849
random-3-1-a 0.5 4 1 0 1 None -
random-3-1-a 0.5 4 5 1 5 2.233945991862713 53c23ac6695c18b1
random-3-1-a 0.5 4 100 1 5 2.233945991862713 53c23ac6695c18b1
random-3-1-a 0.5 5 1 0 1 None -
random-3-1-a 0.5 5 5 0 5 2.465204820889548 -
random-3-1-a 0.5 5 100 1 22 1.7093512847476735 e3313c5adba4a97e
random-3-2 0.2 0 1 0 1 None -
random-3-2 0.2 0 5 0 5 None -
random-3-2 0.2 0 100 1 58 1.0084261332520927 54f1bccae41da208
random-3-2 0.2 1 1 0 1 None -
random-3-2 0.2 1 5 0 5 None -
random-3-2 0.2 1 100 1 71 0.9479380661636208 f9a7713f149ffcad
random-3-2 0.2 2 1 0 1 None -
random-3-2 0.2 2 5 0 5 None -
random-3-2 0.2 2 100 1 11 1.5200559962098408 7dc8a1a95b0c5385
random-3-2 0.2 3 1 0 1 None -
random-3-2 0.2 3 5 0 5 None -
random-3-2 0.2 3 100 1 39 1.0917047829339135 cceab63b3d1f2534
random-3-2 0.2 4 1 0 1 None -
random-3-2 0.2 4 5 0 5 None -
random-3-2 0.2 4 100 0 100 1.1273498912360582 -
random-3-2 0.2 5 1 0 1 None -
random-3-2 0.2 5 5 0 5 None -
random-3-2 0.2 5 100 1 24 2.0153693966570394 c06bbd7b7315c67c
random-3-2 0.5 0 1 0 1 None -
random-3-2 0.5 0 5 0 5 None -
random-3-2 0.5 0 100 1 25 1.982503001576896 693b64093bd5e64c
random-3-2 0.5 1 1 0 1 None -
random-3-2 0.5 1 5 0 5 None -
random-3-2 0.5 1 100 1 86 3.162945313359714 2dd1c353de1b97c9
random-3-2 0.5 2 1 0 1 None -
random-3-2 0.5 2 5 0 5 None -
random-3-2 0.5 2 100 0 100 None -
random-3-2 0.5 3 1 0 1 None -
random-3-2 0.5 3 5 0 5 None -
random-3-2 0.5 3 100 1 42 2.6235058876674993 c95d34f26e3622f4
random-3-2 0.5 4 1 0 1 None -
random-3-2 0.5 4 5 0 5 None -
random-3-2 0.5 4 100 0 100 3.185346087627439 -
random-3-2 0.5 5 1 0 1 None -
random-3-2 0.5 5 5 0 5 None -
random-3-2 0.5 5 100 0 100 None -
random-4-1 0.5 0 1 0 1 None -
random-4-1 0.5 0 5 0 5 None -
random-4-1 0.5 0 100 0 100 None -
random-4-1 0.5 1 1 0 1 None -
random-4-1 0.5 1 5 0 5 None -
random-4-1 0.5 1 100 0 100 3.434455483931594 -
random-4-1 0.5 2 1 0 1 None -
random-4-1 0.5 2 5 0 5 None -
random-4-1 0.5 2 100 0 100 None -
random-4-1 0.5 3 1 0 1 None -
random-4-1 0.5 3 5 0 5 None -
random-4-1 0.5 3 100 0 100 4.034481811678438 -
random-4-1 0.5 4 1 0 1 None -
random-4-1 0.5 4 5 0 5 None -
random-4-1 0.5 4 100 0 100 None -
random-4-1 0.5 5 1 0 1 None -
random-4-1 0.5 5 5 0 5 None -
random-4-1 0.5 5 100 1 78 2.04165295694254 ca7c1da3c587ef4a
"""


def _frozen_cases():
    cases = {}
    for line in FROZEN_SAMPLES.strip().split("\n"):
        name, tol, seed, max_attempts, found, attempts, residual, digest = line.split()
        cases.setdefault((name, float(tol)), []).append(
            (int(seed), int(max_attempts), found == "1", int(attempts),
             None if residual == "None" else float(residual), digest))
    return cases


def _period_digest(result):
    if not result.found:
        return "-"
    data = result.base.period.tobytes() + result.fibre.period.tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name,tol,expected", [
    (name, tol, rows) for (name, tol), rows in _frozen_cases().items()])
def test_sampler_frozen(name, tol, expected):
    form = SAMPLER_FORMS[name]()
    got = []
    for seed, max_attempts, *_ in expected:
        result = sample_point(form, seed=seed, max_attempts=max_attempts, tol=tol)
        got.append((seed, max_attempts, result.found, result.attempts,
                    result.best_residual, _period_digest(result)))
    assert got == expected


@pytest.mark.parametrize("name,digest", [
    ("iwasawa", "f8e3bebd4dca0afcd58827cf601b5d6d73f20bc7ae562a381004be0309000d19"),
    ("random-3-1-a", "d4a2d0eb72b90ca01e2dd022a693a91e89c6d6a661ce288095e9bcc48dc17b1d"),
])
def test_sample_cli_stdout_frozen(tmp_path, capsys, name, digest):
    path = tmp_path / "form.json"
    path.write_text(dumps(input_document(SAMPLER_FORMS[name]())), encoding="utf-8")
    assert cli.main(["sample", str(path), "--count", "3"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _reference_structure(n, seed):
    """The draw loop of random_structure before the stacked kernel."""
    rng = np.random.default_rng(seed)
    for _ in range(64):
        draw = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
        structure = ComplexStructure(np.linalg.qr(draw)[0])
        frame = np.hstack([structure.period, np.conj(structure.period)])
        s = np.linalg.svd(frame, compute_uv=False)
        if s[-1] > 1e-2 * s[0]:
            return structure
    raise AssertionError("no valid draw")


def _reference_values(form, base):
    """pairwise_values before the stacked kernel: one einsum per pair."""
    coeff = form.coefficients.astype(complex)
    m = base.half_rank
    columns = [np.einsum("kij,i,j->k", coeff, base.period[:, h], base.period[:, l])
               for h in range(m) for l in range(h + 1, m)]
    return np.array(columns).reshape(len(columns), form.fibre_rank)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_kernels_match_one_at_a_time(n):
    # Seeds 0..39 include generators whose first frame is redrawn (n=2:
    # seeds 9 and 13, the latter twice).
    seeds = range(40)
    periods, valid = random_periods(n, [np.random.default_rng(s) for s in seeds])
    assert valid.all()
    form = _random_form(100 + n, n, 2)
    values = _pair_values(form.coefficients.astype(complex), periods)
    for a, seed in enumerate(seeds):
        base = _reference_structure(n, seed)
        assert periods[a].tobytes() == base.period.tobytes()
        assert random_structure(n, seed).period.tobytes() == base.period.tobytes()
        reference = _reference_values(form, base)
        assert values[a].T.tobytes() == reference.tobytes()
        assert pairwise_values(form, base)[1].tobytes() == reference.tobytes()


def test_stacked_draws_continue_each_generator():
    # A generator used by random_periods is left where the one-at-a-time
    # draw loop leaves it, so the sampler's padding draws are unchanged.
    stacked = [np.random.default_rng(s) for s in range(20)]
    single = [np.random.default_rng(s) for s in range(20)]
    random_periods(2, stacked)
    for a, b in zip(stacked, single):
        _reference_structure(2, b)
        assert a.standard_normal() == b.standard_normal()


def test_chunks_double_up_to_max_attempts():
    assert [list(c) for c in _chunks(1)] == [[1]]
    assert [len(c) for c in _chunks(100)] == [1, 2, 4, 8, 16, 32, 37]
    assert [c[0] for c in _chunks(100)] == [1, 2, 4, 8, 16, 32, 64]
    assert list(_chunks(0)) == []


@pytest.mark.parametrize("max_attempts", [1, 127, 128, 256, 511, 1000, 4096])
def test_chunks_cover_every_attempt_in_capped_batches(max_attempts):
    chunks = list(_chunks(max_attempts))
    assert [a for c in chunks for a in c] == list(range(1, max_attempts + 1))
    assert all(len(c) <= _MAX_BATCH for c in chunks)


def test_chunks_stop_doubling_at_the_cap():
    assert _MAX_BATCH == 256
    assert [len(c) for c in _chunks(127)] == [1, 2, 4, 8, 16, 32, 64]
    assert [len(c) for c in _chunks(1000)] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 233]


def test_sample_point_tests_each_fibre_frame_once(monkeypatch):
    frame_checks = count_calls(monkeypatch, periods.validate_structure)
    checks = count_calls(monkeypatch, variety.riemann_check)
    for seed in range(5):
        assert sample_point(iwasawa_form(), seed=seed, max_attempts=10).found
    assert len(checks) == 5
    assert len(frame_checks) == len(checks)


def test_sample_point_skips_a_degenerate_fibre_frame(monkeypatch):
    # The first candidate's fibre frame fails its test; the search goes on to
    # the next attempt, which succeeds as every Iwasawa attempt does.
    verdicts = iter([False])
    original = periods.validate_structure

    def first_fails(structure, tol):
        return next(verdicts, True) and original(structure, tol)

    monkeypatch.setattr(periods, "validate_structure", first_fails)
    monkeypatch.setattr(variety, "validate_structure", first_fails)
    result = sample_point(iwasawa_form(), seed=0, max_attempts=5)
    assert (result.found, result.attempts) == (True, 2)
