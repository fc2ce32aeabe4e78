"""Rate-1/2 convolutional code, constraint length 7, hard-decision Viterbi.

Generators are the standard octal 171/133 pair.  The encoder starts in the
all-zero state, appends six zero tail bits, and emits the 171 output before
the 133 output for every input bit.  The decoder is terminated at the zero
state and breaks metric ties toward the lower-numbered predecessor state.
It folds four trellis steps into one radix-16 add-compare-select pass, and
it takes one block or a stack of equal-length blocks: a stack runs through
the same loop, each pass serving every block, so the per-pass call
overhead is spread over the blocks.
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


def conv_encode(bits):
    """Encode with zero tail; output 2 * (len(bits) + 6) coded bits."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise FramingError("message bits must be 0 or 1")
    padded = np.concatenate([bits, np.zeros(DEFAULT_CODE.tail_bits, np.uint8)])
    out = np.empty((len(padded), 2), dtype=np.uint8)
    for j, taps in enumerate(DEFAULT_CODE.generator_taps()):
        # binary convolution of the message with the generator taps
        out[:, j] = np.convolve(padded, taps)[: len(padded)] % 2
    return out.ravel()


_RADIX = 4  # trellis steps folded into one add-compare-select pass


def _bitrev(x, width):
    return sum(((x >> i) & 1) << (width - 1 - i) for i in range(width))


@functools.lru_cache(maxsize=None)
def _radix_tables():
    """ACS tables for r = 1 .. _RADIX steps at once, by r - 1.

    With the code's m = 6 memory bits, an r-step path runs from the state
    s = a * 2**(m - r) + h to the state d = h * 2**r + l: the r input bits l
    are shifted in and the r high bits a of s are shifted out.  Entry
    ``tab[p, a, h, l]`` is 16 times the Hamming distance between that path's
    expected output and the r received 2-bit symbols packed in p (first
    step most significant), plus bitrev_r(a) as the tie rank.
    """
    m = DEFAULT_CODE.tail_bits
    g1, g2 = DEFAULT_CODE.generators
    reg = np.arange(1 << (m + 1))  # previous state << 1 | input bit
    parity = lambda g: np.array([bin(int(r) & g).count("1") & 1 for r in reg])
    out_sym = (parity(g1) << 1) | parity(g2)
    popcount = np.array([0, 1, 1, 2], dtype=np.int32)
    symbols = np.arange(4)[:, None, None, None]
    tables = []
    for r in range(1, _RADIX + 1):
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


# ACS rows collect in an int32 ring of this many passes; one copy per ring
# moves their low bytes to the uint8 survivor history
_RING = 64


def _acs(pm, tab, groups, hist):
    """Run one radix-2**r add-compare-select pass per packed symbol group.

    ``pm`` (P, n_states) holds 16 times the path metric of each state of P
    blocks and is updated in place.  Each entry of ``groups`` is one pass's
    table index: an int when P = 1, which picks a view of one table row,
    else an array of P, which gathers P rows.  ``hist[:, i]`` (hist is
    (P, passes, n_states)) receives the low byte of the winning
    ``16 * metric + tie rank`` of every destination state in pass i.
    """
    n_a, n_h, n_l = tab.shape[1:]
    n_blocks = len(pm)
    buf = np.empty((n_blocks, n_a, n_h, n_l), dtype=pm.dtype)
    ring = np.empty((_RING, *pm.shape), dtype=pm.dtype)
    # views made once: a list lookup per pass costs less than a new view
    rows = list(ring.reshape(_RING, n_blocks, n_h, n_l))
    metrics = list(tab) if n_blocks == 1 else tab
    pm_in = pm.reshape(n_blocks, n_a, n_h, 1)
    pm_out = pm.reshape(n_blocks, n_h, n_l)
    for start in range(0, hist.shape[1], _RING):
        chunk = groups[start: start + _RING]
        for g, row in zip(chunk, rows):
            np.add(pm_in, metrics[g], out=buf)
            np.minimum.reduce(buf, axis=1, out=row)
            np.bitwise_and(row, ~15, out=pm_out)
        np.copyto(hist[:, start: start + len(chunk)],
                  ring[:len(chunk)].swapaxes(0, 1), casting="unsafe")


def viterbi_decode(coded):
    """Hard-decision maximum-likelihood decode of zero-terminated blocks.

    ``coded`` is one block (n,) or a stack (P, n) of equal-length blocks,
    decoded together; the result has the same number of dimensions.

    Each pass of the loop advances the trellis of every block by four
    steps: every destination state d = h * 16 + l picks the best of its 16
    predecessors s = a * 4 + h in one minimum over ``16 * metric +
    bitrev4(a)``.  The first ``n_steps % 4`` steps run as one shorter pass
    of the same kind.

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
    gives both the survivor and the per-step tie rule.  The traceback reads
    only those four bits, so the history keeps one byte per state and pass.
    """
    coded = np.asarray(coded)
    if coded.ndim not in (1, 2):
        raise FramingError(
            f"coded bits must be one block or a stack of blocks, "
            f"got {coded.ndim} dimensions")
    n = coded.shape[-1]
    if n % 2 != 0:
        raise FramingError(f"coded length {n} is odd")
    if n < 2 * DEFAULT_CODE.tail_bits:
        raise FramingError(f"coded length {n} shorter than the tail")
    if not ((coded == 0) | (coded == 1)).all():
        raise FramingError("coded bits must be 0 or 1")
    blocks = coded.astype(np.uint8, copy=False).reshape(-1, n)
    n_blocks, n_steps = len(blocks), n // 2
    rx_sym = (blocks[:, 0::2] << 1) | blocks[:, 1::2]

    m, n_states = DEFAULT_CODE.tail_bits, DEFAULT_CODE.n_states
    tables = _radix_tables()
    radix = len(tables)
    head = n_steps % radix
    n_passes = -(-n_steps // radix)
    # the packed symbols of one pass are a table index below 4**radix <= 256
    weights = (4 ** np.arange(radix - 1, -1, -1)).astype(np.uint8)
    lead = rx_sym[:, :head] @ weights[radix - head:]
    full = rx_sym[:, head:].reshape(n_blocks, n_steps // radix, radix)
    groups = full @ weights
    if n_blocks == 1:
        lead, groups = [int(lead[0])], groups[0].tolist()
    else:
        lead, groups = lead[None], np.ascontiguousarray(groups.T)
    # unreachable start states lose every comparison with a real path, whose
    # metric is at most 2 * n_steps; int32 holds 16 times that up to 2**24 steps
    dtype = np.int32 if n_steps < 1 << 24 else np.int64
    pm = np.full((n_blocks, n_states), 16 * (2 * n_steps + 1), dtype=dtype)
    pm[:, 0] = 0
    hist = np.empty((n_blocks, n_passes, n_states), dtype=np.uint8)
    if head:
        _acs(pm, tables[head - 1], lead, hist[:, :1])
    _acs(pm, tables[-1], groups, hist[:, n_passes - len(groups):])

    # trace each block back from the zero end state, one pass per iteration;
    # the state before the first pass is the start state, so its width never
    # matters.  high[byte] is the part of a pass's start state that the
    # survivor's tie rank, the byte's low four bits, encodes.
    high = [_bitrev(x, radix) << (m - radix) for x in range(16)] * 16
    ends = np.empty((n_blocks, n_passes), np.min_scalar_type(n_states - 1))
    for block, block_ends in zip(hist, ends):
        survivors = memoryview(block.ravel())
        row = [0] * n_passes
        state, pos = 0, len(survivors)
        for i in range(n_passes - 1, 0, -1):
            pos -= n_states  # the survivors of pass i
            state = high[survivors[pos + state]] | state >> radix
            row[i - 1] = state
        block_ends[:] = row
    # each pass's input bits are the low bits of its end state
    shifts = np.arange(radix - 1, -1, -1, dtype=ends.dtype)
    decoded = (ends[..., None] >> shifts & 1).reshape(n_blocks, n_passes * radix)
    pad = n_passes * radix - n_steps  # unused high bits of the short head pass
    decoded = decoded[:, pad: pad + n_steps - m]
    return decoded if coded.ndim == 2 else decoded[0]
