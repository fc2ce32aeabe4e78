"""Rate-1/2 convolutional code, constraint length 7, hard-decision Viterbi.

Generators are the standard octal 171/133 pair.  The encoder starts in the
all-zero state, appends six zero tail bits, and emits the 171 output before
the 133 output for every input bit.  The decoder is terminated at the zero
state and breaks metric ties toward the lower-numbered predecessor state.
It folds four trellis steps into one radix-16 add-compare-select pass.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FramingError

__all__ = ["ConvCodeSpec", "DEFAULT_CODE", "conv_encode", "viterbi_decode"]


@dataclass(frozen=True)
class ConvCodeSpec:
    constraint_length: int = 7
    generators: tuple = (0o171, 0o133)

    @property
    def n_states(self):
        return 1 << (self.constraint_length - 1)

    @property
    def tail_bits(self):
        return self.constraint_length - 1

    def generator_taps(self):
        k = self.constraint_length
        return [np.array([(g >> i) & 1 for i in range(k)], dtype=np.uint8)
                for g in self.generators]


DEFAULT_CODE = ConvCodeSpec()


def conv_encode(bits, spec=DEFAULT_CODE):
    """Encode with zero tail; output 2 * (len(bits) + 6) coded bits."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise FramingError("message bits must be 0 or 1")
    padded = np.concatenate([bits, np.zeros(spec.tail_bits, dtype=np.uint8)])
    out = np.empty((len(padded), 2), dtype=np.uint8)
    for j, taps in enumerate(spec.generator_taps()):
        # binary convolution of the message with the generator taps
        out[:, j] = np.convolve(padded, taps)[: len(padded)] % 2
    return out.ravel()


_RADIX = 4  # trellis steps folded into one add-compare-select pass


def _bitrev(x, width):
    return sum(((x >> i) & 1) << (width - 1 - i) for i in range(width))


@functools.lru_cache(maxsize=None)
def _radix_tables(spec):
    """ACS tables for r = 1 .. min(_RADIX, memory) steps at once, by r - 1.

    With m = spec.tail_bits memory bits, an r-step path runs from the state
    s = a * 2**(m - r) + h to the state d = h * 2**r + l: the r input bits l
    are shifted in and the r high bits a of s are shifted out.  Entry
    ``tab[p, a, h, l]`` is 16 times the Hamming distance between that path's
    expected output and the r received 2-bit symbols packed in p (first
    step most significant), plus bitrev_r(a) as the tie rank.
    """
    m = spec.tail_bits
    g1, g2 = spec.generators
    reg = np.arange(1 << (m + 1))  # previous state << 1 | input bit
    parity = lambda g: np.array([bin(int(r) & g).count("1") & 1 for r in reg])
    out_sym = (parity(g1) << 1) | parity(g2)
    popcount = np.array([0, 1, 1, 2], dtype=np.int32)
    symbols = np.arange(4)[:, None, None, None]
    tables = []
    for r in range(1, min(_RADIX, m) + 1):
        a = np.arange(1 << r)[:, None, None]
        h = np.arange(1 << (m - r))[None, :, None]
        l = np.arange(1 << r)[None, None, :]
        path = (((a << (m - r)) | h) << r) | l  # the m + r bits s then l
        tab = np.zeros(path.shape, dtype=np.int32)
        for k in range(1, r + 1):  # sum per-step metrics by broadcasting
            expected = out_sym[(path >> (r - k)) & (reg.size - 1)]
            tab = tab[..., None, :, :, :] + popcount[expected ^ symbols]
        rank = np.array([_bitrev(x, r) for x in range(1 << r)], dtype=np.int32)
        tab = tab.reshape(-1, *path.shape) * 16 + rank[:, None, None]
        tab.setflags(write=False)
        tables.append(tab)
    return tuple(tables)


def _acs(pm, tab, groups, hist):
    """Run one radix-2**r add-compare-select pass per packed symbol group.

    ``pm`` holds 16 times the path metric of each state and is updated in
    place; each row of ``hist`` receives the winning ``16 * metric + tie
    rank`` of every destination state.
    """
    n_a, n_h, n_l = tab.shape[1:]
    buf = np.empty(tab.shape[1:], dtype=pm.dtype)
    pm_in = pm.reshape(n_a, n_h, 1)
    pm_out = pm.reshape(n_h, n_l)
    for p, row in zip(groups, hist.reshape(-1, n_h, n_l)):
        np.add(pm_in, tab[p], out=buf)
        np.minimum.reduce(buf, axis=0, out=row)
        np.bitwise_and(row, ~15, out=pm_out)


def viterbi_decode(coded, spec=DEFAULT_CODE):
    """Hard-decision maximum-likelihood decode of a zero-terminated block.

    Each pass of the loop advances the trellis by four steps: every
    destination state d = h * 16 + l picks the best of its 16 predecessors
    s = a * 4 + h in one minimum over ``16 * metric + bitrev4(a)``.  The
    first ``n_steps % 4`` steps run as one shorter pass of the same kind.

    The tie rule is the per-step one, exactly.  A per-step decoder keeps, at
    each step, the lower-numbered predecessor on a tie, which is the one
    whose shifted-out bit c is 0.  The survivor of d after r steps is then
    the minimum of (metric, c_r, ..., c_1) in lexicographic order, where c_k
    is the bit shifted out at step k: step r keeps c_r = 0 whenever a
    minimal path with c_r = 0 exists, and the survivor into that
    predecessor was chosen the same way over the steps before.  The bits
    shifted out are the bits of a, most significant first, so the key
    (c_r, ..., c_1) read as a binary number is bitrev_r(a).  It fits in the
    low four bits under the metric scaled by 16, and one integer minimum
    gives both the survivor and the per-step tie rule.
    """
    coded = np.asarray(coded)
    if len(coded) % 2 != 0:
        raise FramingError(f"coded length {len(coded)} is odd")
    if len(coded) < 2 * spec.tail_bits:
        raise FramingError(f"coded length {len(coded)} shorter than the tail")
    if not ((coded == 0) | (coded == 1)).all():
        raise FramingError("coded bits must be 0 or 1")
    coded = coded.astype(np.int64)
    n_steps = len(coded) // 2
    rx_sym = (coded[0::2] << 1) | coded[1::2]

    m = spec.tail_bits
    tables = _radix_tables(spec)
    radix = len(tables)
    head = n_steps % radix
    n_blocks = -(-n_steps // radix)
    # unreachable start states lose every comparison with a real path, whose
    # metric is at most 2 * n_steps; int32 holds 16 times that up to 2**24 steps
    dtype = np.int32 if n_steps < 1 << 24 else np.int64
    pm = np.full(spec.n_states, 16 * (2 * n_steps + 1), dtype=dtype)
    pm[0] = 0
    hist = np.empty((n_blocks, spec.n_states), dtype=dtype)
    weights = 4 ** np.arange(radix - 1, -1, -1)
    if head:
        _acs(pm, tables[head - 1], [int(rx_sym[:head] @ weights[-head:])], hist[:1])
    groups = rx_sym[head:].reshape(-1, radix) @ weights
    _acs(pm, tables[-1], groups.tolist(), hist[n_blocks - len(groups):])

    # trace back from the zero end state, one pass per iteration; the state
    # before the first pass is the start state, so its width never matters
    flat = memoryview(hist.ravel())
    unrank = [_bitrev(x, radix) for x in range(1 << radix)]
    ends = [0] * n_blocks
    for i in range(n_blocks - 1, 0, -1):
        a = unrank[flat[i * spec.n_states + ends[i]] & 15]
        ends[i - 1] = (a << (m - radix)) | (ends[i] >> radix)
    # each pass's input bits are the low bits of its end state
    decoded = (np.array(ends)[:, None] >> np.arange(radix - 1, -1, -1)) & 1
    pad = n_blocks * radix - n_steps  # unused high bits of the short head pass
    return decoded.astype(np.uint8).ravel()[pad: pad + n_steps - m]
