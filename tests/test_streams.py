import math
import sys
import warnings

import numpy as np
import pytest
import scipy.stats

from tailtwist.cli import main
from tailtwist.experiments import ConfigError, parse_config
from tailtwist.streams import UnitSampleStream


def test_same_seed_and_index_reproduce():
    a = UnitSampleStream(42, 7).uniforms(1000)
    b = UnitSampleStream(42, 7).uniforms(1000)
    assert np.array_equal(a, b)


def test_distinct_indices_differ():
    a = UnitSampleStream(1, 0).uniforms(256)
    b = UnitSampleStream(1, 1).uniforms(256)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = UnitSampleStream(0, 0).uniforms(256)
    b = UnitSampleStream(1, 0).uniforms(256)
    assert not np.array_equal(a, b)


def test_open_interval():
    u = UnitSampleStream(7).uniforms(200_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_negative_seed_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="non-negative"):
        UnitSampleStream(-3, 2)
    # nor is a float seed or index truncated to an integer naming another
    # stream, nor a bool read as 0 or 1
    for seed, index in ((2.7, 0), (2, 0.5), (True, 0), (1, True), (np.False_, 0), (1, np.True_)):
        with pytest.raises(TypeError):
            UnitSampleStream(seed, index)
    text = "gamma_db = 10\nseed = {}\n[component]\nfamily = weibull\nk = 0.5\nbeta = 1\n"
    with pytest.raises(ConfigError, match="line 2: seed must be a non-negative integer"):
        parse_config(text.format(-1))
    with pytest.raises(ConfigError, match="non-negative"):
        parse_config(text.format(0)).override(seed=-1)
    path = tmp_path / "exp.cfg"
    path.write_text(text.format(0))
    assert main(["estimate", "--config", str(path), "--seed", "-1", "--runs", "16"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_seeds_beyond_64_bits_do_not_alias(seed):
    # SeedSequence takes integers of any size, so 2**64 + seed is a new stream
    a = UnitSampleStream(seed, 1).uniforms(64)
    b = UnitSampleStream(seed + 2**64, 1).uniforms(64)
    assert not np.array_equal(a, b)


def test_substreams_uniform_and_uncorrelated():
    n = 50_000
    a = UnitSampleStream(2024, 0).uniforms(n)
    b = UnitSampleStream(2024, 1).uniforms(n)
    assert scipy.stats.kstest(a, "uniform").pvalue > 0.01
    assert scipy.stats.kstest(b, "uniform").pvalue > 0.01
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_sequential_draws_continue_the_stream():
    s = UnitSampleStream(5, 1)
    first = s.uniforms(10)
    second = s.uniforms(10)
    combined = UnitSampleStream(5, 1).uniforms(20)
    assert np.array_equal(np.concatenate([first, second]), combined)


@pytest.mark.parametrize("count", [1 << 16, 4465, 3])
def test_rows_drawn_one_after_another_read_the_stream_straight_through(count):
    # rows drawn into one (n, count) array one after another: row i holds
    # stream positions i * count to (i + 1) * count - 1
    rows = np.full((5, count), np.nan)
    stream = UnitSampleStream(9, 4)
    for row in rows:
        assert stream.uniforms(count, out=row) is row
    whole = UnitSampleStream(9, 4).uniforms(5 * count)
    assert np.array_equal(rows.ravel(), whole)
    assert np.array_equal(rows[2], whole[2 * count : 3 * count])


def test_uniforms_fill_out_in_place():
    out = np.full(1000, np.nan)
    assert UnitSampleStream(42, 7).uniforms(1000, out=out) is out
    assert np.array_equal(out, UnitSampleStream(42, 7).uniforms(1000))
    assert np.all((out > 0.0) & (out < 1.0))


class FixedDraws:
    """A generator whose draws repeat ``values`` cyclically."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n, out=None):
        out = np.empty(n) if out is None else out
        out[:] = np.resize(self.values, n)
        return out


def test_an_exact_zero_draw_reads_the_smallest_double_and_every_other_draw_is_kept():
    draws = [0.0, 0.5, 1.0 - 2.0**-53, 2.0**-53, 0.25]
    stream = UnitSampleStream(1, 0)
    stream._gen = FixedDraws(draws)
    expected = [5e-324] + draws[1:]
    assert stream.uniforms(5).tolist() == expected
    out = np.empty(5)
    assert stream.uniforms(5, out=out) is out
    assert out.tolist() == expected


@pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (2024, 12), (2**64 - 3, 2)])
def test_substream_is_the_spawned_child_driving_pcg64dxsm(seed, index):
    child = np.random.SeedSequence(seed).spawn(index + 1)[index]
    expected = np.random.Generator(np.random.PCG64DXSM(child)).random(4096)
    expected = np.clip(expected, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    assert np.array_equal(UnitSampleStream(seed, index).uniforms(4096), expected)


# SeedSequence hashing, PCG64DXSM and the 53-bit conversion are integer
# arithmetic, so these values hold on every platform and numpy version
@pytest.mark.parametrize(
    "seed, index, expected",
    [
        (0, 0, [0.15390745621903046, 0.8581780487903488, 0.8192615347374336, 0.35904550197725715]),
        (2024, 5, [0.40711516628200395, 0.19911789544894964, 0.29051313340970764, 0.13744857913683317]),
    ],
)
def test_stream_layout_literals(seed, index, expected):
    assert UnitSampleStream(seed, index).uniforms(4).tolist() == expected


@pytest.mark.parametrize("neighbour", [(2024, 6), (2025, 5)])
def test_neighbouring_keys_uniform_and_uncorrelated(neighbour):
    n = 50_000
    a = UnitSampleStream(2024, 5).uniforms(n)
    b = UnitSampleStream(*neighbour).uniforms(n)
    assert scipy.stats.kstest(a, "uniform").pvalue > 0.01
    assert scipy.stats.kstest(b, "uniform").pvalue > 0.01
    assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(n)


# -- block sizes, and a row's segments on their intervals ------------------------

BELOW_ONE = 1.0 - 2.0**-53


@pytest.mark.parametrize(
    "cuts", [(0.4, 0.01, 0.01), (1e-4, 0.125, 0.5), (0.3, 1.0, 0.2), (0.9,) * 4, (1e-6,) * 4, (0.5, 0.5)]
)
def test_block_sizes_are_a_multinomial_split(cuts):
    # a replication's first uniform below its cut is the k-th with chance
    # p_k times the product of 1 - p_i before it; a cut of 1 takes every
    # replication left
    count, rows = 1 << 16, 20
    sizes = np.array([UnitSampleStream(31, index).first_below(count, cuts) for index in range(rows)])
    assert np.all(sizes >= 0) and np.all(sizes.sum(axis=1) <= count)
    chances = np.array(cuts) * np.cumprod((1.0,) + tuple(1.0 - np.array(cuts[:-1])))
    mean = rows * count * chances
    assert np.all(np.abs(sizes.sum(axis=0) - mean) <= 5.0 * np.sqrt(mean * (1.0 - chances)))
    if 1.0 in cuts:
        assert np.all(sizes.sum(axis=1) == count)


def test_a_rows_slices_are_uniform_below_and_above_the_cut():
    # one uniform V per entry, in order: V, then h * V, then h + (p - h) * V,
    # then p + (1 - p) * V
    h, p, size = 0.05, 0.1, 20_000
    out = np.full(4 * size, np.nan)
    segments = [(size, 0.0, 1.0), (size, 0.0, h), (size, h, p), (size, p, 1.0)]
    assert UnitSampleStream(33, 0).row(segments, out) is out
    plain = UnitSampleStream(33, 0).uniforms(out.size)
    f, b, m, a = out.reshape(4, size)
    v = plain.reshape(4, size)
    assert np.array_equal(f, v[0])
    assert np.array_equal(b, v[1] * h)
    assert np.array_equal(m, v[2] * (p - h) + h)
    assert np.array_equal(a, v[3] * (1.0 - p) + p)
    assert np.all((0.0 < b) & (b < h)) and np.all((h <= m) & (m <= p)) and np.all((p <= a) & (a <= BELOW_ONE))
    assert scipy.stats.kstest(f, "uniform").pvalue > 0.01
    assert scipy.stats.kstest(b, "uniform", args=(0.0, h)).pvalue > 0.01
    assert scipy.stats.kstest(m, "uniform", args=(h, p - h)).pvalue > 0.01
    assert scipy.stats.kstest(a, "uniform", args=(p, 1.0 - p)).pvalue > 0.01


def test_empty_segments_read_nothing():
    # a segment of size 0 reads no uniform, and an empty row no numpy call
    segments = [(0, 0.0, 0.5), (3, 0.0, 1.0), (0, 0.5, 1.0), (2, 0.25, 0.5), (0, 0.5, 1.0)]
    out = UnitSampleStream(33, 1).row(segments, np.empty(5))
    plain = UnitSampleStream(33, 1).uniforms(5)
    assert np.array_equal(out, np.concatenate([plain[:3], plain[3:] * 0.25 + 0.25]))
    stream = UnitSampleStream(33, 1)
    stream._gen = None
    assert stream.row([(0, 0.0, 0.5)], np.empty(0)).size == 0


@pytest.mark.parametrize("p", [0.125, 2.0**-10, 2.0**-40, 0.1, 0.3])
def test_a_value_below_the_cut_never_equals_the_cut(p):
    # the largest uniform, 1 - 2**-53, gives p * (1 - 2**-53): exact below a
    # power of two, rounded down below any other
    stream = UnitSampleStream(1, 0)
    stream._gen = FixedDraws([1.0 - 2.0**-53])
    assert np.all(stream.row([(1000, 0.0, p)], np.empty(1000)) < p)
    assert np.all(UnitSampleStream(34, 0).row([(1 << 16, 0.0, p)], np.empty(1 << 16)) < p)


@pytest.mark.parametrize("p", [0.01, 0.5, 0.9, 1.0 - 2.0**-53])
def test_a_value_above_the_cut_is_at_least_the_cut_and_below_one(p):
    # V = 0 reads 2**-1074 and gives p itself; the largest V gives at most
    # the largest double below 1, and at most the upper cut q below 1
    stream = UnitSampleStream(1, 0)
    stream._gen = FixedDraws([0.0, 1.0 - 2.0**-53, 0.5])
    above = stream.row([(3, p, 1.0)], np.empty(3))
    assert above[0] == p
    assert p <= above[1] <= BELOW_ONE
    assert np.all(above >= p)
    q = (1.0 + p) / 2.0
    between = stream.row([(3, p, q)], np.empty(3))
    assert between[0] == p and np.all((p <= between) & (between <= q))


@pytest.mark.parametrize("p", [sys.float_info.min, 1e-300])
def test_a_cut_at_the_smallest_doubles_warns_nothing(p):
    # down to the smallest share uniform: almost no replication falls below
    # it, and a value below it is positive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert UnitSampleStream(35, 0).first_below(1 << 16, [p, p]) == [0, 0]
        out = UnitSampleStream(35, 1).row([(1000, 0.0, p), (1000, p, 1.0)], np.empty(2000))
    assert np.all((0.0 < out[:1000]) & (out[:1000] < p)) and np.all(out[1000:] >= p)


@pytest.mark.parametrize("p", [1.5, -0.1, math.nan])
def test_a_cut_outside_the_unit_interval_is_rejected(p):
    with pytest.raises(ValueError):
        UnitSampleStream(1, 0).first_below(100, [0.5, p])


def test_block_reads_are_a_fixed_function_of_the_stream():
    def reads(seed):
        stream = UnitSampleStream(seed, 3)
        return [
            stream.first_below(4465, (0.02, 0.3)),
            stream.row([(10, 0.0, 1.0), (20, 0.0, 0.02), (20, 0.02, 1.0)], np.empty(50)),
            stream.row([(40, 0.01, 0.3), (60, 0.3, 1.0)], np.empty(100)),
            stream.uniforms(5),
        ]

    for a, b in zip(reads(36), reads(36)):
        assert np.array_equal(a, b)
    assert not np.array_equal(reads(36)[-1], reads(37)[-1])
