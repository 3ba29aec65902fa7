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
    # a chunk draws its n rows into one (n, count) array in component order,
    # so row i holds stream positions i * count to (i + 1) * count - 1
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


def test_endpoint_draws_map_to_the_nearest_interior_values():
    class Endpoints:
        def random(self, n, out=None):
            out = np.empty(n) if out is None else out
            out[:] = [0.0, 0.5, 1.0]
            return out

    stream = UnitSampleStream(1, 0)
    stream._gen = Endpoints()
    expected = [np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)]
    assert stream.uniforms(3).tolist() == expected
    out = np.empty(3)
    assert stream.uniforms(3, out=out) is out
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
