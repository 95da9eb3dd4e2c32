import math
import pickle
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ldpcount import (
    PrivacyBudget,
    ResourceLimitError,
    ValidationError,
    assemble_obfuscated,
    check_budget,
    derive_seed,
    estimate_odd_cycles,
    estimate_triangles,
    gen_ba,
    gen_er,
    get_ordering,
    project_mu,
    randomize_response_row,
    sample_laplace,
    substream,
    unbias,
    unbias_span,
    unbias_variance,
)
from ldpcount import mechanisms, protocol, triangles
from ldpcount.mechanisms import (
    STAGE_COUNT,
    STAGE_DEGREE,
    STAGE_RR,
    ObfuscatedGraph,
    add_noise,
    laplace_quantile,
    rr_keep_probability,
)

from _brute import (
    _assemble_bits_lower_plus_transpose,
    _substream_key_route,
    _unbiased_one_shot,
    derive_seed_one_shot,
    given_rows,
    raw_stream,
)

INF = math.inf


# ---------------------------------------------------------------- Laplace


def test_laplace_quantile_fixed_points():
    assert laplace_quantile(0.5, 3.0) == 0.0
    assert laplace_quantile(0.25, 1.0) == pytest.approx(-math.log(2))
    assert laplace_quantile(0.75, 1.0) == pytest.approx(math.log(2))
    # symmetric
    assert laplace_quantile(0.1, 2.0) == pytest.approx(-laplace_quantile(0.9, 2.0))
    # u=0 stays finite thanks to the tiny-float clamp
    assert np.isfinite(laplace_quantile(0.0, 1.0))


def test_sample_laplace_variance_and_abs_mean():
    rng = substream(123, "laplace")
    x = sample_laplace(2.0, rng, size=10**6)
    assert abs(np.var(x) / 8.0 - 1.0) < 0.05  # Var = 2 b^2
    eps0 = 0.5
    y = sample_laplace(1.0 / eps0, substream(123, "laplace2"), size=10**6)
    # |x| is exponential with mean 1/eps0
    assert abs(np.mean(np.abs(y)) / (1.0 / eps0) - 1.0) < 0.05


def test_sample_laplace_ks():
    x = sample_laplace(1.5, substream(7, "ks"), size=10**5)
    assert sps.kstest(x, sps.laplace(scale=1.5).cdf).pvalue > 0.01


def test_sample_laplace_rejects_bad_scale():
    with pytest.raises(ValidationError):
        sample_laplace(0.0, substream(0))
    with pytest.raises(ValidationError):
        sample_laplace(-1.0, substream(0))


def test_add_noise_zero_scale_is_exact():
    assert add_noise(5.0, 1.0 / INF) == 5.0
    values = np.array([-0.0, 1.5, -2.25, 7.0])
    out = add_noise(values, np.array([0.0, 0.0, 3.0, 0.0]), np.full(4, 0.9))
    kept = [0, 1, 3]
    assert np.array_equal(out[kept].view(np.uint64), values[kept].view(np.uint64))
    assert out[2] == -2.25 + laplace_quantile(0.9, 3.0)


def test_add_noise_validates():
    for bad in (-1.0, math.nan, np.array([1.0, -0.5]), np.array([math.nan, 1.0])):
        with pytest.raises(ValidationError, match="scale"):
            add_noise(np.zeros(np.shape(bad)), bad, np.full(np.shape(bad), 0.3))
    with pytest.raises(ValidationError, match="required"):
        add_noise(np.zeros(3), 1.0, None)
    with pytest.raises(ValidationError, match="shape"):
        add_noise(np.zeros(3), 1.0, np.full(2, 0.3))
    with pytest.raises(ValidationError, match="shape"):
        add_noise(1.0, 1.0, np.full(1, 0.3))


def test_add_noise_array_matches_scalar_calls_bit_for_bit():
    # The estimators noise all users in one call; each user must get the
    # bytes a call of its own would give (vectorized np.log included).
    n = 20_000
    values = substream(13, "values").normal(0.0, 50.0, n)
    scales = substream(13, "scales").exponential(4.0, n)
    scales[::7] = 0.0
    u = substream(13, "u").random(n)
    u[:3] = (0.0, 0.5, np.nextafter(1.0, 0.0))
    batch = add_noise(values, scales, u)
    single = np.array([add_noise(v, s, x) for v, s, x in zip(values, scales, u)])
    assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))


def test_add_noise_tail_probability():
    # P(|out - value| >= ln(n/zeta)/eps) = zeta/n for sensitivity 1
    n, zeta, eps = 100, 0.1, 1.0
    thr = math.log(n / zeta) / eps
    u = substream(11, "tail").random(10**6)
    devs = np.abs(add_noise(np.zeros(10**6), 1.0 / eps, u))
    emp = np.mean(devs >= thr)
    expected = zeta / n
    sigma = math.sqrt(expected * (1 - expected) / 10**6)
    assert abs(emp - expected) <= 4 * sigma


# ------------------------------------------------------ randomized response


def test_rr_keep_probability_values():
    assert rr_keep_probability(math.log(3)) == pytest.approx(0.75)
    assert rr_keep_probability(INF) == 1.0


def test_rr_flip_frequencies():
    ones = np.ones(10**5, dtype=np.uint8)
    u = substream(5, "rr").random(10**5)
    kept = randomize_response_row(ones, math.log(3), u).mean()
    assert abs(kept - 0.75) <= 0.01
    zeros = np.zeros(10**5, dtype=np.uint8)
    u = substream(5, "rr0").random(10**5)
    raised = randomize_response_row(zeros, 1.0, u).mean()
    assert abs(raised - 1.0 / (1.0 + math.e)) <= 0.01


def test_rr_identity_at_infinite_budget():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    out = randomize_response_row(bits, INF)
    assert np.array_equal(out, bits)


def test_rr_needs_one_draw_per_bit():
    bits = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValidationError, match="required"):
        randomize_response_row(bits, 1.0)
    with pytest.raises(ValidationError, match="shape"):
        randomize_response_row(bits, 1.0, np.full(3, 0.5))
    # a draw below the flip probability 1/(1+e) flips its bit
    out = randomize_response_row(bits, 1.0, np.array([0.0, 0.26, 0.27, 0.99]))
    assert out.tolist() == [1, 1, 0, 0]


@settings(max_examples=300, deadline=None)
@given(
    eps=st.floats(math.ulp(1.0), 40.0),
    words=st.lists(st.integers(0, 2**64 - 1), max_size=8),
    offsets=st.lists(st.integers(-(2**12), 2**12), max_size=8),
)
def test_the_flip_bound_is_exact(eps, words, offsets):
    # A raw word is below the bound iff the draw Generator.random makes of
    # it is below the flip probability, on the words next to the bound too.
    p_flip = 1.0 - rr_keep_probability(eps)
    bound = mechanisms.rr_flip_bound(eps)
    t = int(bound) >> 11
    near = [t * 2**11 - 1, t * 2**11, t * 2**11 - 2**11, t * 2**11 + 2**11, 0, 2**64 - 1]
    near += [t * 2**11 + d for d in offsets]
    w = [x for x in words + near if 0 <= x < 2**64]
    assert [x < int(bound) for x in w] == [(x >> 11) * 2.0**-53 < p_flip for x in w]
    w = np.array(w, dtype=np.uint64)
    flips = mechanisms.as_words(w, w.shape) < bound
    assert flips.tolist() == ((w >> np.uint64(11)) * 2.0**-53 < p_flip).tolist()


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.float64, np.int8, object])
def test_words_of_another_dtype_are_refused(dtype):
    # numpy compares int64 with uint64 through float64, which rounds
    with pytest.raises(ValidationError, match=r"uint64 words of shape \(3,\)"):
        mechanisms.as_words(np.zeros(3, dtype=dtype), (3,))
    with pytest.raises(ValidationError, match="got list"):
        mechanisms.as_words([0, 0, 0], (3,))
    with pytest.raises(ValidationError, match=r"got \(2,\)"):
        mechanisms.as_words(np.zeros(2, dtype=np.uint64), (3,))


def test_rr_flip_probability_uniform_across_positions():
    # chi-square over per-position flip counts
    width, rows = 20, 5000
    u = substream(9, "chi").random((rows, width))
    flips = np.zeros(width)
    for r in range(rows):
        out = randomize_response_row(np.zeros(width, dtype=np.uint8), 1.0, u[r])
        flips += out
    assert sps.chisquare(flips).pvalue > 0.01


# ------------------------------------------------------------------ unbias


def test_unbias_exact_values():
    assert unbias(1, math.log(3)) == pytest.approx(1.5)
    assert unbias(0, math.log(3)) == pytest.approx(-0.5)
    assert unbias(1, INF) == 1.0
    assert unbias(0, INF) == 0.0


@pytest.mark.parametrize("eps", [math.log(3), 1.3, INF])
def test_unbias_of_a_bit_matrix_matches_scalars_and_obfuscated_graph(eps):
    bits = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.uint8)
    got = unbias(bits, eps)
    assert got.dtype == np.float64 and bits.dtype == np.uint8
    assert got.tolist() == [[unbias(int(b), eps) for b in row] for row in bits]
    expected = got.copy()
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(ObfuscatedGraph(bits=bits, eps=eps).unbiased, expected)


def test_unbias_span_and_variance():
    assert unbias_span(math.log(3)) == pytest.approx(2.0)
    assert unbias_span(INF) == 1.0
    assert unbias_variance(1.0) == pytest.approx(math.e / (math.e - 1) ** 2)
    assert unbias_variance(INF) == 0.0


def test_unbias_past_exp_overflow_takes_the_limit():
    # e^eps overflows a double above eps = ln(DBL_MAX) ~ 709.78; the
    # correction is then the identity, exactly as at eps=inf
    bits = np.array([0, 1, 1], dtype=np.uint8)
    for eps in (709.79, 800.0, 1e6):
        assert unbias(bits, eps).tolist() == [0.0, 1.0, 1.0]
        assert unbias(1, eps) == 1.0
        assert unbias_span(eps) == 1.0
    assert unbias(1, 709.78) == 1.0 and -1e-300 < unbias(0, 709.78) < 0.0
    # the variance stays finite where (e^eps - 1)^2 overflows, above ~355
    for eps in (355.0, 400.0, 700.0):
        assert 0.0 < unbias_variance(eps) < 1e-150
    assert unbias_variance(800.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(eps=st.floats(0.05, 8.0), a=st.integers(0, 1))
def test_unbias_is_exactly_unbiased(eps, a):
    # E[unbias(RR(a))] = unbias(1) p + unbias(0) (1-p) with p = P(tilde=1|a)
    keep = rr_keep_probability(eps)
    p_one = keep if a == 1 else 1.0 - keep
    mean = unbias(1, eps) * p_one + unbias(0, eps) * (1.0 - p_one)
    assert mean == pytest.approx(a, abs=1e-9)


def test_unbias_empirical_mean_and_variance():
    eps = 1.0
    u = substream(21, "ub").random(10**5)
    bits = randomize_response_row(np.ones(10**5, dtype=np.uint8), eps, u)
    vals = np.where(bits == 1, unbias(1, eps), unbias(0, eps))
    assert abs(vals.mean() - 1.0) <= 0.02
    assert abs(vals.var() / unbias_variance(eps) - 1.0) <= 0.05


# ------------------------------------------------------------- obfuscation


def test_assemble_symmetric_zero_diagonal():
    # reference: user i's report built straight from the edge set, bit j
    # for edge (j, i), randomized with user i's own draws
    g = gen_er(15, 0.4, seed=8)
    draws = [substream(3, "asm", i).random(i) for i in range(g.n)]
    obf = assemble_obfuscated(g, 1.0, given_rows(draws))
    edges = set(map(tuple, g.edges.tolist()))
    expected = np.zeros((g.n, g.n), dtype=np.uint8)
    for i in range(g.n):
        truth = np.array([(j, i) in edges for j in range(i)], dtype=np.uint8)
        expected[i, :i] = randomize_response_row(truth, 1.0, draws[i])
    expected = expected + expected.T
    assert np.array_equal(obf.bits, expected)
    assert np.array_equal(obf.bits, obf.bits.T)
    assert not obf.bits.diagonal().any()
    assert not np.array_equal(obf.bits, assemble_obfuscated(g, INF).bits)


@pytest.mark.parametrize("eps", [2.0**-52, 1.0, math.log(3)])
def test_release_flips_like_the_float_rule_at_the_flip_probability(eps):
    # A draw of exactly p is the word T << 11 and keeps its bit; one grid
    # step below p flips it, as randomize_response_row would.
    p_flip = 1.0 - rr_keep_probability(eps)
    g = gen_er(12, 0.4, seed=4)
    truth = assemble_obfuscated(g, INF).bits
    off_diagonal = 1 - np.eye(g.n, dtype=np.uint8)
    for u in (p_flip, p_flip - 2.0**-53):
        obf = assemble_obfuscated(g, eps, given_rows([np.full(i, u) for i in range(g.n)]))
        assert np.array_equal(obf.bits, truth ^ off_diagonal * (u < p_flip))


def test_assemble_rejects_missing_rows():
    g = gen_er(6, 0.5, seed=1)
    draws = [np.full(i, 0.5) for i in range(g.n)]
    assert assemble_obfuscated(g, 1.0, given_rows(draws)).n == 6
    wrong = draws[:3] + [np.full(2, 0.5)] + draws[4:]
    with pytest.raises(ValidationError, match=r"user 3: .*shape \(3,\)"):
        assemble_obfuscated(g, 1.0, given_rows(wrong))
    with pytest.raises(ValidationError, match="user 0: .*required"):
        assemble_obfuscated(g, 1.0)


P = mechanisms._PANEL


@pytest.mark.parametrize("n", [0, 1, 2, P - 1, P, P + 1, 2 * P + 3])
@pytest.mark.parametrize("eps", [0.1, 0.7, 3.0, INF])
def test_panel_mirror_matches_lower_plus_transpose(n, eps):
    # n = 0 has no panel, n <= P one, P + 1 a one-column last panel and
    # 2P + 3 a short one.
    g = gen_er(n, 0.05, seed=n)

    streams = partial(substream, 11, "mirror")
    obf = assemble_obfuscated(g, eps, streams)
    expected = _assemble_bits_lower_plus_transpose(g, eps, streams)
    assert obf.bits.dtype == np.uint8 and obf.bits.shape == (n, n)
    assert np.array_equal(obf.bits, expected)
    assert obf.unbiased.tobytes() == _unbiased_one_shot(expected, eps).tobytes()


def _split(monkeypatch, parts):
    """Run a dense layer of C cells in min(parts, C) row parts."""
    monkeypatch.setattr(mechanisms, "CORES", parts)
    monkeypatch.setattr(mechanisms, "_PART_CELLS", 1)


@pytest.mark.parametrize("parts", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, P - 1, P + 1, 2 * P + 3, 4 * P + 1])
@pytest.mark.parametrize("eps", [0.7, INF])
def test_bytes_do_not_depend_on_the_part_count(monkeypatch, parts, n, eps):
    # 8 parts split a 2-user unbiased matrix into more parts than rows, and
    # n <= P users into empty later parts.  At 4P + 1 and two parts the cut
    # falls at user 725, so the later part mirrors two panels, the first
    # of them off the P-column grid.
    _split(monkeypatch, parts)
    g = gen_er(n, 0.05, seed=n)
    obf = assemble_obfuscated(g, eps, partial(substream, 17, "parts"))
    expected = _assemble_bits_lower_plus_transpose(g, eps, partial(substream, 17, "parts"))
    assert np.array_equal(obf.bits, expected)
    assert obf.unbiased.tobytes() == _unbiased_one_shot(expected, eps).tobytes()


@pytest.mark.parametrize("parts", [1, 3])
@pytest.mark.parametrize("eps", [2.0**-52, 0.1, math.log(3), 1.0, 709.78, 709.79, INF])
def test_unbiased_bytes_are_the_one_shot_bytes(monkeypatch, parts, eps):
    # By bytes: np.array_equal takes -0.0 for +0.0.
    _split(monkeypatch, parts)
    obf = assemble_obfuscated(gen_er(40, 0.3, seed=5), eps, partial(substream, 29, "bytes"))
    assert obf.unbiased.tobytes() == _unbiased_one_shot(obf.bits, eps).tobytes()


def test_parts_keep_their_bytes_when_threads_switch_every_microsecond(monkeypatch):
    # more parts than a 2-core host has cores, handing the lock over often
    _split(monkeypatch, 8)
    n = 2 * P + 3
    g = gen_er(n, 0.05, seed=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        obf = assemble_obfuscated(g, 0.7, partial(substream, 19, "switch"))
        unbiased = obf.unbiased
    finally:
        sys.setswitchinterval(interval)
    expected = _assemble_bits_lower_plus_transpose(g, 0.7, partial(substream, 19, "switch"))
    assert np.array_equal(obf.bits, expected)
    assert unbiased.tobytes() == _unbiased_one_shot(expected, 0.7).tobytes()


def test_estimates_do_not_depend_on_the_part_count(monkeypatch):
    g = gen_ba(40, 3, seed=2)
    b = PrivacyBudget(0.5, 1.0, 1.0, 0.05)
    docs = {}
    for parts in (1, 3):
        _split(monkeypatch, parts)
        docs[parts] = [
            estimate_triangles(g, b, seed=7).to_json_dict(),
            estimate_odd_cycles(g, 5, b, seed=7).to_json_dict(),
        ]
    assert docs[1] == docs[3]


def test_streams_are_built_on_the_caller(monkeypatch):
    _split(monkeypatch, 3)
    g = gen_ba(60, 3, seed=1)
    caller = threading.get_ident()
    built, drawn = [], set()

    def recording_substream(*path):
        built.append(threading.get_ident())
        return substream(*path)

    def recording_words(words, shape):
        drawn.add(threading.get_ident())
        return as_words(words, shape)

    as_words = mechanisms.as_words
    for module in (protocol, triangles):
        monkeypatch.setattr(module, "substream", recording_substream)
    monkeypatch.setattr(mechanisms, "as_words", recording_words)
    estimate_triangles(g, PrivacyBudget(0.5, 1.0, 1.0, 0.05), seed=3)
    assert set(built) == {caller} and len(built) == 3 * g.n
    assert caller in drawn and len(drawn) > 1


def test_no_part_thread_outlives_its_layer(monkeypatch):
    # a standing pool kept an idle worker alive after every estimate
    _split(monkeypatch, 3)
    n = 2 * P + 3
    obf = assemble_obfuscated(gen_er(n, 0.05, seed=1), 0.7, partial(substream, 23, "live"))
    obf.unbiased
    alive = [t.name for t in threading.enumerate() if t.name.startswith("ldpcount-part")]
    assert alive == []


def _recorded_pool(monkeypatch):
    """Record every part handed to a layer's threads."""
    handed = []

    class Recorder(ThreadPoolExecutor):
        def submit(self, *args):
            handed.append(super().submit(*args))
            return handed[-1]

    monkeypatch.setattr(mechanisms, "ThreadPoolExecutor", Recorder)
    return handed


def test_a_part_error_is_raised_once_every_part_has_finished(monkeypatch):
    _split(monkeypatch, 3)
    handed = _recorded_pool(monkeypatch)
    n = 13
    g = gen_er(n, 0.4, seed=2)
    draws = [np.full(i, 0.5) for i in range(n)]
    short_last = draws[:-1] + [np.full(n - 2, 0.5)]
    with pytest.raises(ValidationError, match=rf"user {n - 1}: .*shape \({n - 1},\)"):
        assemble_obfuscated(g, 1.0, given_rows(short_last))
    assert len(handed) == 2 and all(part.done() for part in handed)

    # A short row in part 0, on the calling thread, waits for a slow last part.
    handed.clear()
    fixed = given_rows(draws[:1] + [np.full(0, 0.5)] + draws[2:])

    def slow_last(size):
        time.sleep(0.2)
        return fixed(n - 1).bit_generator.random_raw(size)

    def streams(i):
        return raw_stream(slow_last) if i == n - 1 else fixed(i)

    with pytest.raises(ValidationError, match=r"user 1: .*shape \(1,\)"):
        assemble_obfuscated(g, 1.0, streams)
    assert len(handed) == 2 and all(part.done() for part in handed)


def _assembly_peaks():
    """Traced peaks of assembling and of unbiasing 1536 users' reports."""
    g = gen_er(1536, 0.01, 3)
    streams = partial(substream, 5, "mem")
    tracemalloc.start()
    try:
        obf = assemble_obfuscated(g, 1.0, streams)
        assemble_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        obf.unbiased
        unbiased_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return g.n, assemble_peak, unbiased_peak


def test_mirror_and_unbiased_memory():
    # The mirror works in place: bits + bits.T held a second n*n array
    # (2.08 n^2 bytes at peak), the panels hold one (1.11 n^2).  A flip
    # buffer of 2**18 cells a part read 1.22 n^2.
    n, assemble_peak, unbiased_peak = _assembly_peaks()
    assert assemble_peak < 1.3 * n * n
    assert unbiased_peak <= 8.5 * n * n


@pytest.mark.parametrize("parts", [1, 2])
def test_mirror_and_unbiased_memory_in_parts(monkeypatch, parts):
    # The same bounds with a later part's streams, made before it is handed
    # over, in the peak: 1.22 n^2 with two parts (1.44 n^2 with a flip
    # buffer of 2**18 cells a part).
    _split(monkeypatch, parts)
    n, assemble_peak, unbiased_peak = _assembly_peaks()
    assert assemble_peak < 1.3 * n * n
    assert unbiased_peak <= 8.5 * n * n


def test_assemble_identity_matches_adjacency():
    g = gen_er(12, 0.4, seed=8)
    obf = assemble_obfuscated(g, INF)
    assert np.argwhere(np.triu(obf.bits)).tolist() == g.edges.tolist()
    assert np.array_equal(obf.bits, obf.bits.T)
    assert np.array_equal(obf.unbiased, obf.bits.astype(float))


def test_dense_limit_refuses_before_allocating(monkeypatch):
    g = gen_ba(100, 3, seed=1)
    b = PrivacyBudget(0.5, 1.0, 1.0, 0.05)

    def must_not_run(*args, **kwargs):
        raise AssertionError("work done past the dense limit")

    def unmade_stream(i):
        raise AssertionError("a stream made past the dense limit")

    monkeypatch.setattr(mechanisms, "DENSE_BYTES_LIMIT", 9 * 100 * 100 - 1)
    with monkeypatch.context() as m:
        m.setattr(mechanisms.np, "zeros", must_not_run)
        m.setattr(mechanisms, "randomize_response_row", must_not_run)
        with pytest.raises(ResourceLimitError, match="n=100"):
            assemble_obfuscated(g, 1.0, unmade_stream)
    with monkeypatch.context() as m:
        # priced before the degree streams
        m.setattr(protocol, "substream", must_not_run)
        with pytest.raises(ResourceLimitError, match="DENSE_BYTES_LIMIT"):
            estimate_triangles(g, b, seed=0)
    with pytest.raises(ResourceLimitError, match="DENSE_BYTES_LIMIT"):
        estimate_odd_cycles(g, 5, b, seed=0)
    monkeypatch.setattr(mechanisms, "DENSE_BYTES_LIMIT", 9 * 100 * 100)
    assert assemble_obfuscated(g, INF).n == 100


def test_unbiased_matrix_takes_two_values_off_diagonal():
    g = gen_er(8, 0.5, seed=4)
    obf = assemble_obfuscated(g, 1.3, partial(substream, 4, "two"))
    off = obf.unbiased[~np.eye(8, dtype=bool)]
    assert set(np.round(off, 12)) <= {
        round(unbias(0, 1.3), 12),
        round(unbias(1, 1.3), 12),
    }


# -------------------------------------------------------------- projection


def test_project_mu_examples():
    assert project_mu([1, 3, 4], 2) == [1, 3]
    assert project_mu([1, 3, 4], 10) == [1, 3, 4]
    assert project_mu([1, 3, 4], 0) == []
    assert project_mu([1, 3, 4], -2) == []
    row = np.array([1, 3, 4], dtype=np.intp)  # an array row projects to a view
    assert project_mu(row, 2).tolist() == [1, 3]
    assert np.shares_memory(project_mu(row, 2), row)


@settings(max_examples=60, deadline=None)
@given(
    neigh=st.lists(st.integers(0, 50), unique=True, max_size=20).map(sorted),
    d=st.integers(0, 25),
)
def test_project_mu_idempotent_and_shrinking(neigh, d):
    neigh = tuple(neigh)
    once = project_mu(neigh, d)
    assert len(once) <= len(neigh)
    assert project_mu(once, d) == once
    assert once == neigh[: max(d, 0)]


# ------------------------------------------------------------------ budget


def test_budget_validation():
    with pytest.raises(ValidationError):
        PrivacyBudget(0.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        PrivacyBudget(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        PrivacyBudget(1.0, 1.0, 1.0, 1.5)
    b = PrivacyBudget(0.5, 1.0, 0.5, 0.05)
    assert b.total == 2.0


@pytest.mark.parametrize("flag", [True, np.bool_(True)])
def test_a_bool_budget_is_rejected(flag):
    # True compares like 1, so the range checks alone let it through and
    # the report would serialise "eps0": true.
    for parts in ((flag, 1.0, 1.0), (1.0, flag, 1.0), (1.0, 1.0, flag)):
        with pytest.raises(ValidationError, match="^eps[012] must be a number .* got True"):
            PrivacyBudget(*parts, 0.1)
    with pytest.raises(ValidationError, match="^zeta must be a number .* got True"):
        PrivacyBudget(1.0, 1.0, 1.0, flag)
    g = gen_er(6, 0.5, seed=0)
    with pytest.raises(ValidationError, match="^eps0 must be a number .* got True"):
        get_ordering(g, flag, np.full(g.n, 0.5))


EPS_FLOOR = 2.0**-52  # the smallest eps with e^eps > 1 in float64


def test_every_eps_check_rejects_below_the_float64_floor():
    assert math.exp(EPS_FLOOR) > 1.0 and math.exp(EPS_FLOOR / 2) == 1.0
    g = gen_er(6, 0.5, seed=0)
    for eps in (EPS_FLOOR / 2, 1e-320, 0.0, -1.0, math.nan):
        for parts in ((eps, 1, 1), (1, eps, 1), (1, 1, eps)):
            with pytest.raises(ValidationError, match="eps"):
                PrivacyBudget(*parts, 0.1)
        with pytest.raises(ValidationError, match="eps"):
            randomize_response_row([0, 1], eps, [0.5, 0.5])
        with pytest.raises(ValidationError, match="eps0"):
            get_ordering(g, eps, np.full(g.n, 0.5))
    PrivacyBudget(EPS_FLOOR, INF, EPS_FLOOR, 0.1)


@pytest.mark.parametrize("part", ["eps0", "eps1", "eps2"])
def test_estimates_finite_at_the_eps_floor(part):
    budget = PrivacyBudget(**{"eps0": 1.0, "eps1": 1.0, "eps2": 1.0, part: EPS_FLOOR},
                           zeta=0.1)
    reports = [
        estimate_triangles(gen_ba(60, 3, seed=1), budget, seed=2),
        estimate_odd_cycles(gen_er(20, 0.3, seed=1), 5, budget, seed=2),
        estimate_odd_cycles(gen_er(12, 0.3, seed=1), 7, budget, seed=2),
    ]
    for r in reports:
        assert math.isfinite(r.estimate)
        assert all(math.isfinite(x) for x in r.per_user)


def test_check_budget_examples():
    assert check_budget(PrivacyBudget(0.5, 1.0, 0.5, 0.1), 2.0)
    assert not check_budget(PrivacyBudget(1.0, 1.0, 1.0, 0.1), 2.0)
    for eps in (0.1, 1.0, 8.0):
        assert check_budget(PrivacyBudget(eps / 3, eps / 3, eps / 3, 0.1), eps)


# --------------------------------------------------------------- substream


def test_substream_deterministic_and_path_sensitive():
    a = substream(42, 0, 1, 2).random(4)
    b = substream(42, 0, 1, 2).random(4)
    c = substream(42, 0, 1, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert derive_seed(42, 0, 1, 2) == derive_seed(42, 0, 1, 2)
    assert derive_seed(42, 0, 12) != derive_seed(42, 0, 1, 2)
    assert derive_seed(42, "x") != derive_seed(42, "y")


@pytest.mark.parametrize(
    "path, twin",
    [(("1|2",), (1, 2)), (("a|b",), ("a", "b")), (("1",), (1,)), (("-3", "x"), (-3, "x"))],
)
def test_derive_seed_rejects_a_string_that_renders_like_another_path(path, twin):
    derive_seed(0, *twin)
    with pytest.raises(ValidationError, match="string path component"):
        derive_seed(0, *path)
    with pytest.raises(ValidationError, match="string path component"):
        derive_seed(path[0], 5)


@pytest.mark.parametrize("bad", [1.0, True, False, np.bool_(True), None, b"1", 2j])
def test_derive_seed_rejects_a_component_that_is_no_integer_or_string(bad):
    with pytest.raises(ValidationError, match="integers or strings"):
        derive_seed(0, 7, bad)
    with pytest.raises(ValidationError, match="integers or strings"):
        derive_seed(bad, 7)


def test_derive_seed_takes_numpy_integers_as_their_value():
    assert derive_seed(np.int64(3), np.uint8(1), np.int32(-2)) == derive_seed(3, 1, -2)


DERIVATION_PATHS = [
    (0,),
    (-7,),
    (2**70,),
    (np.int64(5),),
    ("x",),
    (0, 0, 2, 7),
    (0, 0, 2, 70),  # the head of (0, 0, 2, 7), whose last component prefixes 70
    (0, 0, 27),
    (31, 4, 1, 399),
    (np.int64(3), np.uint8(1), np.int32(-2)),
    (3, 1, -2),
    (5, "graph"),
    (5, "size", 2),
    (-1, "ordering", np.int16(4)),
    ("run", "a-1", 0, "b"),
    (9, 1, 2, 3, 4, 5, 6, 7),
]


def test_derive_seed_cached_heads_match_the_one_shot_hash():
    mechanisms._head.cache_clear()
    for _ in range(2):  # a cold cache, then every head cached
        for path in DERIVATION_PATHS:
            assert derive_seed(*path) == derive_seed_one_shot(*path), path
    # interleaved stages and trials, as concurrent estimates draw them
    for user in range(40):
        for trial in (0, 1, 2**40):
            for stage in STAGES:
                path = (17, trial, stage, user)
                assert derive_seed(*path) == derive_seed_one_shot(*path)
    # twice the cache in distinct heads, so each head is evicted before reuse
    heads = [(23, t, s) for t in range(mechanisms._HEADS) for s in (0, 1)]
    before = mechanisms._head.cache_info()
    for _ in range(2):
        for head in heads:
            assert derive_seed(*head, 5) == derive_seed_one_shot(*head, 5)
    after = mechanisms._head.cache_info()
    assert after.misses - before.misses == 2 * len(heads)
    assert after.currsize == after.maxsize == mechanisms._HEADS


@pytest.mark.parametrize("bad", [True, np.bool_(True), "1", [1], None, b"1"])
def test_derive_seed_checks_each_component_before_the_cached_head(bad):
    for path in [(0, 1, 5), (1, 5), (0, 1, 1)]:  # every int twin cached first
        derive_seed(*path)
    for path in [(0, bad, 5), (bad, 5), (0, 1, bad)]:
        with pytest.raises(ValidationError):
            derive_seed(*path)


def assert_same_generator(a, b):
    """Equal bit-generator states, then equal bytes from every draw kind."""

    def same_state(s, t):
        assert s.keys() == t.keys()
        for key in s:
            if isinstance(s[key], dict):
                same_state(s[key], t[key])
            else:
                np.testing.assert_array_equal(s[key], t[key], strict=True)

    same_state(a.bit_generator.state, b.bit_generator.state)
    assert a.random() == b.random()
    for draw in (
        lambda g: g.random(5),
        lambda g: g.normal(0.0, 3.0, 4),
        lambda g: g.integers(0, 2**40, 3),
        lambda g: g.integers(7),  # a 32-bit draw leaves half a word buffered
        lambda g: g.random(3),
    ):
        assert draw(a).tobytes() == np.asarray(draw(b)).tobytes()
    same_state(a.bit_generator.state, b.bit_generator.state)


STAGES = (STAGE_DEGREE, STAGE_RR, STAGE_COUNT)


def test_substream_matches_the_key_route_bit_for_bit():
    paths = [(0, 0, stage, user) for stage in STAGES for user in range(2001)]
    paths += [(7, 3, stage, 11) for stage in STAGES]
    paths += [(0, "graph"), (31, "ordering", 4), (2**70, "size", 2)]
    for path in paths:
        ours, ref = substream(*path), _substream_key_route(*path)
        assert_same_generator(ours, ref)
    for user in (1, 17, 400, 2000):  # the RR stage's row of `user` draws
        ours = substream(0, 0, STAGE_RR, user).random(user)
        ref = _substream_key_route(0, 0, STAGE_RR, user).random(user)
        assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("key", [0, 1, 2**63, 2**64 - 1])
def test_fixed_key_philox_matches_the_key_route_on_raw_keys(key):
    ours = np.random.Generator(np.random.Philox(mechanisms._FixedKey(key)))
    assert_same_generator(ours, np.random.Generator(np.random.Philox(key=key)))


def test_fixed_key_gives_philox_only_two_uint64_words():
    fixed = mechanisms._FixedKey(5)
    assert fixed.generate_state(2, np.dtype("uint64")).tolist() == [5, 0]
    for n_words, dtype in [(4, np.uint64), (1, np.uint64), (2, np.uint32), (4, np.uint32)]:
        with pytest.raises(ValueError, match="2 uint64 words"):
            fixed.generate_state(n_words, dtype)


def test_substream_jump_pickle_and_spawn_follow_the_key_route():
    path = (0, 4, STAGE_COUNT, 9)
    ours, ref = substream(*path), _substream_key_route(*path)
    assert_same_generator(
        np.random.Generator(ours.bit_generator.jumped()),
        np.random.Generator(ref.bit_generator.jumped()),
    )
    assert_same_generator(pickle.loads(pickle.dumps(ours)), pickle.loads(pickle.dumps(ref)))
    ours.random(3)  # mid-stream, with a half-used buffer
    ref.random(3)
    ours.integers(7)
    ref.integers(7)
    assert_same_generator(pickle.loads(pickle.dumps(ours)), pickle.loads(pickle.dumps(ref)))
    for gen in (substream(*path), ref):
        with pytest.raises(TypeError):
            gen.spawn(1)
