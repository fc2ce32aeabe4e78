import hashlib
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdmlink.errors import ConfigurationError, FramingError
from ofdmlink.modem import constellation, demap_hard, map_bits

ALL_SCHEMES = ("qpsk", "16psk", "64psk", "256psk", "16qam", "64qam", "256qam")


def label_bits(value, width):
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def all_label_bits(spec):
    k = spec.bits_per_symbol
    return np.concatenate([label_bits(v, k) for v in range(spec.order)])


def nearest_point_oracle(symbol, spec):
    """Independent exhaustive nearest-neighbor search: the winning label."""
    best_label, best_d2 = 0, float("inf")
    for label, pt in enumerate(spec.points):
        d2 = (symbol.real - pt.real) ** 2 + (symbol.imag - pt.imag) ** 2
        if d2 < best_d2:
            best_label, best_d2 = label, d2
    return best_label


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_unit_mean_energy(name):
    spec = constellation(name)
    assert abs(np.mean(np.abs(spec.points) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_points_distinct(name):
    spec = constellation(name)
    assert len(spec.points) == spec.order
    assert len(set(spec.points.tolist())) == spec.order


@pytest.mark.parametrize("name", ("qpsk", "16psk", "64psk", "256psk"))
def test_psk_gray_ring_adjacency(name):
    spec = constellation(name)
    labels = np.argsort(np.angle(spec.points))  # ring order
    for k in range(spec.order):
        diff = labels[k] ^ labels[(k + 1) % spec.order]
        assert bin(diff).count("1") == 1


@pytest.mark.parametrize("name", ("16qam", "64qam", "256qam"))
def test_qam_gray_grid_adjacency(name):
    spec = constellation(name)
    side = int(round(np.sqrt(spec.order)))
    # row by I level, column by Q level, each ascending
    labels = np.lexsort((spec.points.imag, spec.points.real)).reshape(side, side)
    for i in range(side):
        for q in range(side):
            if i + 1 < side:
                assert bin(labels[i, q] ^ labels[i + 1, q]).count("1") == 1
            if q + 1 < side:
                assert bin(labels[i, q] ^ labels[i, q + 1]).count("1") == 1


def test_qpsk_mapping_convention():
    spec = constellation("qpsk")
    s = 1 / np.sqrt(2)
    assert map_bits(np.array([0, 0]), spec)[0] == pytest.approx(s + 1j * s)
    assert map_bits(np.array([1, 1]), spec)[0] == pytest.approx(-s - 1j * s)


def test_16qam_exhaustive_energy():
    spec = constellation("16qam")
    symbols = map_bits(all_label_bits(spec), spec)
    assert abs(np.mean(np.abs(symbols) ** 2) - 1.0) < 1e-12


def test_256psk_unit_ring():
    spec = constellation("256psk")
    symbols = map_bits(all_label_bits(spec), spec)
    assert np.allclose(np.abs(symbols), 1.0, atol=1e-12)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_round_trip_exhaustive(name):
    spec = constellation(name)
    bits = all_label_bits(spec)
    assert np.array_equal(demap_hard(map_bits(bits, spec), spec), bits)


@pytest.mark.parametrize("name", [5, None, b"qpsk"])
def test_constellation_rejects_a_name_that_is_not_str(name):
    with pytest.raises(ConfigurationError,
                       match=f"^modulation must be a name, got {name!r}$"):
        constellation(name)


def test_map_rejects_indivisible_bits():
    with pytest.raises(FramingError):
        map_bits(np.array([0, 1, 0]), constellation("qpsk"))


@pytest.mark.parametrize("bits", [[0, 2], [0.5, 1.7], [2, 0],
                                  np.array([0, 2], dtype=np.uint8),
                                  np.array([255, 0], dtype=np.uint8),
                                  [0, -1], [np.nan, 1]])
def test_map_rejects_values_that_are_not_bits(bits):
    with pytest.raises(FramingError, match="bits must be 0 or 1"):
        map_bits(bits, constellation("qpsk"))


@pytest.mark.parametrize("bits", [[1, 0], [1.0, 0.0], [True, False],
                                  np.array([1, 0], dtype=np.uint8),
                                  np.array([1, 0], dtype=np.int8)])
def test_map_takes_bits_of_any_dtype(bits):
    spec = constellation("qpsk")
    assert map_bits(bits, spec).tolist() == [spec.points[2]]


def test_map_takes_no_bits():
    for bits in ([], np.zeros(0, dtype=np.uint8)):
        assert map_bits(bits, constellation("16qam")).shape == (0,)


def test_qpsk_quadrant_decision():
    spec = constellation("qpsk")
    bits = demap_hard(np.array([(0.9 + 1.1j) / np.sqrt(2)]), spec)
    assert bits.tolist() == [0, 0]


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_demapper_matches_exhaustive_oracle(name):
    spec = constellation(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    clean = spec.points[rng.integers(0, spec.order, 10_000)]
    # Es/N0 = 15 dB noise
    sigma = np.sqrt(10 ** (-15 / 10) / 2)
    noisy = clean + sigma * (rng.normal(size=10_000) + 1j * rng.normal(size=10_000))
    got = demap_hard(noisy, spec).reshape(-1, spec.bits_per_symbol)
    k = spec.bits_per_symbol
    weights = 1 << np.arange(k - 1, -1, -1)
    got_labels = got @ weights
    expected = np.array([nearest_point_oracle(s, spec) for s in noisy])
    assert np.array_equal(got_labels, expected)


def exhaustive_labels(symbols, spec):
    """The demapper's documented rule: argmin over the full float distance
    matrix, ties to the lowest label."""
    d2 = np.abs(symbols[:, None] - spec.points[None, :]) ** 2
    return np.argmin(d2, axis=1)


def demapped_labels(symbols, spec):
    k = spec.bits_per_symbol
    return demap_hard(symbols, spec).reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))


def exact_d2(symbol, point):
    dr = Fraction(float(symbol.real)) - Fraction(float(point.real))
    di = Fraction(float(symbol.imag)) - Fraction(float(point.imag))
    return dr * dr + di * di


def assert_matches_oracles(symbols, spec):
    """Bit for bit the exhaustive float rule; and the nearest_point_oracle,
    except where the two points are equally near up to the float rounding
    that decides an exact tie (the oracle sums squares, numpy squares a
    hypot, and the two round such ties differently)."""
    got = demapped_labels(symbols, spec)
    assert np.array_equal(got, exhaustive_labels(symbols, spec))
    for s, label in zip(symbols, got):
        want = nearest_point_oracle(s, spec)
        if label != want:
            a, b = exact_d2(s, spec.points[label]), exact_d2(s, spec.points[want])
            assert abs(a - b) <= Fraction(1, 10**15) * max(a, b), (s, label, want)


def _neighbours(x):
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def _grid_levels(spec):
    """The distinct I and Q levels of a square grid, ascending."""
    return [np.unique(axis) for axis in (spec.points.real, spec.points.imag)]


def _sector_edges(spec):
    offset = np.angle(spec.points[0])
    return offset + (np.arange(spec.order) + 0.5) * 2 * np.pi / spec.order


_ORIGIN = np.array([0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, -0.0), 1e-300, -1e-300, 1e-300j, -1e-300j,
                    complex(1e-300, -1e-300), np.nan, np.inf, complex(0, -np.inf)])
# points on the axes with a signed zero: QPSK's sector edges, exactly
_AXES = np.array([complex(x, z) for x in (0.05, 0.5, 1.0, 3.0, 20.0)
                  for z in (0.0, -0.0)])
_AXES = np.concatenate([_AXES, -_AXES, 1j * _AXES, -1j * _AXES])


def boundary_symbols(spec):
    """Exact decision edges and their float neighbours, plus the origin and
    the axes."""
    parts = [_ORIGIN, _AXES]
    if spec.family == "qam":  # per-axis midpoints
        axes = []
        for levels in _grid_levels(spec):
            axes.append(_neighbours(np.concatenate(
                [(levels[:-1] + levels[1:]) / 2, levels])))
        parts.append((axes[0][:, None] + 1j * axes[1][None, :]).ravel())
    else:  # sector edges on and off the unit ring
        for radius in (1e-300, 0.05, 1.0, 20.0):
            z = radius * np.exp(1j * _sector_edges(spec))
            parts += [z, np.nextafter(z.real, -np.inf) + 1j * z.imag,
                      np.nextafter(z.real, np.inf) + 1j * z.imag,
                      z.real + 1j * np.nextafter(z.imag, -np.inf),
                      z.real + 1j * np.nextafter(z.imag, np.inf)]
    return np.concatenate(parts)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_demapper_boundaries_match_oracles(name):
    spec = constellation(name)
    assert_matches_oracles(boundary_symbols(spec), spec)


@st.composite
def near_boundary(draw, spec):
    """A symbol a few ulps to a few 1e-9 cells from a decision edge."""
    ulps = draw(st.integers(-4, 4))
    shift = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9]))
    if spec.family == "qam":
        levels = _grid_levels(spec)
        axis = draw(st.integers(0, 1))
        j = draw(st.integers(0, len(levels[axis]) - 2))
        step = levels[axis][j + 1] - levels[axis][j]
        edge = (levels[axis][j] + levels[axis][j + 1]) / 2 + shift * step
        for _ in range(abs(ulps)):
            edge = np.nextafter(edge, np.sign(ulps) * np.inf)
        other = draw(st.floats(-3.0, 3.0))
        return complex(edge, other) if axis == 0 else complex(other, edge)
    edges = _sector_edges(spec)
    angle = edges[draw(st.integers(0, len(edges) - 1))]
    angle += shift * 2 * np.pi / spec.order
    radius = draw(st.floats(1e-3, 100.0))
    z = radius * np.exp(1j * angle)
    re = z.real
    for _ in range(abs(ulps)):
        re = np.nextafter(re, np.sign(ulps) * np.inf)
    return complex(re, z.imag)


@pytest.mark.parametrize("name", ALL_SCHEMES)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_demapper_near_boundaries_matches_oracles(name, data):
    spec = constellation(name)
    symbols = np.array(data.draw(st.lists(near_boundary(spec), min_size=1,
                                          max_size=8)))
    assert_matches_oracles(symbols, spec)


def test_shared_constellation_is_read_only():
    spec = constellation("16qam")
    assert constellation("16qam") is spec
    assert constellation(" 16-QAM ") is spec
    with pytest.raises(ValueError):
        spec.points[0] = 0


def pinned_draw(spec):
    """Seeded noisy symbols at three noise levels, built from bits so that
    the draw does not depend on the order the points are stored in."""
    rng = np.random.default_rng(20261019)
    n = 3000
    clean = map_bits(rng.integers(0, 2, 3 * n * spec.bits_per_symbol), spec)
    sigma = np.repeat([0.02, 0.1, 0.5], n)
    return clean + sigma * (rng.normal(size=3 * n) + 1j * rng.normal(size=3 * n))


# sha256 of map_bits over every label, in ascending order, and of demap_hard
# on pinned_draw, recorded before the constellations were stored in label order
_MODEM_SHA256 = {
    "qpsk": ("66a2a69f17e7e33124f0bd80e88ca77c28edb4d8c8dfba38e4659b5168a4948c",
             "df839b2876a5077a4bcf118543deaab65e945f6e2780536578b849da88c1e78a"),
    "16psk": ("e209186c061380982ceb2e80399bd974bcf5d4225979d9af1e27e2260824a3b9",
              "97ad466bf05119c5b86a321a40d6f8a2dabdce5c4d1ecd5d84f6cbd83c2d26e8"),
    "64psk": ("ab1d3ee5117be8a5e355f187039a29b062f498058ca117b592758b144918e7f9",
              "001e096b8f6cefc131e54ca785c3ca56d371919c57e0870acbb4ebf06099a4dc"),
    "256psk": ("935a3e020268b70c9270c7314f616427abc6d1a7fcb9336e38b521a3cd03f7a0",
               "b294509b3763943942966ef370fa2c62c3040dbb9deba252df6f377df40e86df"),
    "16qam": ("699fba4b7ac8e9cbd1ab323653e03e52682d97dfeb6d69d1a88a1c5731d29978",
              "eafb3a25ede168ea6b8848c87fda5adf6c2ef0e18dff8c79f8ea729b9009dd3a"),
    "64qam": ("a437f50a50265c917d64864d3c1686189667c20ea13567af148c78ea5a3c435c",
              "79b6984ffc8675fcf47b60f1c17a5095bf26a21d4b688085270e42790f08407b"),
    "256qam": ("4ee4ee1ffd32bdd75e38e511f05d80a58b6122a75e7a1c2a35867ee4d5442fd4",
               "112dd857bf216f344930899015e5b0501576f2e88f124997d888d2d40f570d5d"),
}


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_pinned_draw_has_no_near_tie(name):
    spec = constellation(name)
    d2 = np.sort(np.abs(pinned_draw(spec)[:, None] - spec.points) ** 2, axis=1)
    assert np.all(d2[:, 1] - d2[:, 0] > 1e-9 * d2[:, 1])


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_modem_bytes_pinned(name):
    spec = constellation(name)
    mapped = map_bits(all_label_bits(spec), spec).tobytes()
    demapped = demap_hard(pinned_draw(spec), spec).tobytes()
    got = tuple(hashlib.sha256(b).hexdigest() for b in (mapped, demapped))
    assert got == _MODEM_SHA256[name]


def test_demap_hard_256qam_peak_memory_is_bounded():
    # the bits come from one unpackbits of the labels, with no (n, 8) int
    # label-and-weight array beside them: a warm call peaks below 4.5 times
    # the input's bytes (the slicer's axis arrays take the rest)
    spec = constellation("256qam")
    rng = np.random.default_rng(7)
    n = 20_000
    symbols = map_bits(rng.integers(0, 2, 8 * n), spec)
    symbols += 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    expected = demap_hard(symbols, spec)
    tracemalloc.start()
    try:
        bits = demap_hard(symbols, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(bits, expected)
    assert peak < 4.5 * symbols.nbytes


def test_demap_hard_qpsk_peak_memory_is_bounded():
    # the sector slicer works in place in two float buffers and keeps uint8
    # labels: a warm QPSK call peaks below 1.5 times the input's bytes
    spec = constellation("qpsk")
    rng = np.random.default_rng(7)
    n = 20_000
    symbols = map_bits(rng.integers(0, 2, 2 * n), spec)
    symbols += 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    expected = demap_hard(symbols, spec)
    tracemalloc.start()
    try:
        bits = demap_hard(symbols, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(bits, expected)
    assert peak < 1.5 * symbols.nbytes
