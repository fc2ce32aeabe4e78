"""Rate-1/2 convolutional code, constraint length 7, hard-decision Viterbi.

Generators are the standard octal 171/133 pair.  The encoder starts in the
all-zero state, appends six zero tail bits, and emits the 171 output before
the 133 output for every input bit.  The decoder is terminated at the zero
state and breaks metric ties toward the lower-numbered predecessor state.
It folds four trellis steps into one radix-16 add-compare-select pass.

One block decodes as up to 16 overlapping time segments run as one stack
through that loop, so the per-pass call overhead is spread over the
segments.  Each segment but the first starts from all-zero metrics 256
steps early.  Where that warm-up meets the end metrics of the segment
before it up to one constant, its decisions are the sequential decoder's
exactly (see ``viterbi_decode``); where it does not, the segment reruns
alone from those end metrics.  The output is exact for every input.
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

# a block's full passes run as up to _SEGMENTS time segments in one stack;
# each segment after the first starts _WARMUP passes (256 trellis steps)
# early from all-zero metrics.  Both are set from the code's memory of six
# bits: a path metric forgets its start within a few constraint lengths.
_SEGMENTS = 16
_WARMUP = 64


def _acs(pm, tab, groups, hist):
    """Run one radix-2**r add-compare-select pass per packed symbol group.

    ``pm`` (P, n_states) holds 16 times the path metric of each state of P
    independent trellis rows and is updated in place.  Each entry of
    ``groups`` is one pass's table index: an int when P = 1, which picks a
    view of one table row, else an array of P, which gathers P rows.
    ``hist[:, i]`` (hist is (P, passes, n_states)) receives the low byte of
    the winning ``16 * metric + tie rank`` of every destination state in
    pass i.
    """
    n_a, n_h, n_l = tab.shape[1:]
    n_rows = len(pm)
    buf = np.empty((n_rows, n_a, n_h, n_l), dtype=pm.dtype)
    ring = np.empty((_RING, *pm.shape), dtype=pm.dtype)
    # views made once: a list lookup per pass costs less than a new view
    rows = list(ring.reshape(_RING, n_rows, n_h, n_l))
    metrics = list(tab) if n_rows == 1 else tab
    pm_in = pm.reshape(n_rows, n_a, n_h, 1)
    pm_out = pm.reshape(n_rows, n_h, n_l)
    for start in range(0, hist.shape[1], _RING):
        chunk = groups[start: start + _RING]
        for g, row in zip(chunk, rows):
            np.add(pm_in, metrics[g], out=buf)
            np.minimum.reduce(buf, axis=1, out=row)
            np.bitwise_and(row, ~15, out=pm_out)
        np.copyto(hist[:, start: start + len(chunk)],
                  ring[:len(chunk)].swapaxes(0, 1), casting="unsafe")


def _acs_segmented(pm, tab, groups, hist):
    """Run the full passes of one block as checked time segments.

    ``pm`` (1, n_states) holds the true metrics before the first pass and
    ``groups`` (n,) each pass's table index.  ``hist`` receives the
    survivor bytes of pass i in row i; it has room for the last segment to
    run up to _SEGMENTS passes past n, on index 0, and those rows are never
    read.  Row k of the stack runs passes [k L, k L + W + L); the first W
    are a warm-up whose survivors go to a scratch buffer, except in row 0,
    which starts from the true metrics.  A row whose warm-up did not reach
    the metrics of the row before it, up to one constant, reruns its L
    passes alone from that row's end metrics.
    """
    n = len(groups)
    count = min(_SEGMENTS, n // _WARMUP)
    if count < 2:
        _acs(pm, tab, groups.tolist(), hist[None, :n])
        return
    length = -(-(n - _WARMUP) // count)
    width = _WARMUP + length  # passes per row
    padded = np.zeros(_WARMUP + count * length, dtype=groups.dtype)
    padded[:n] = groups
    index = padded[np.arange(width)[:, None] + length * np.arange(count)]
    stack = np.zeros((count, pm.shape[1]), dtype=pm.dtype)
    stack[0] = pm[0]
    warm = np.empty((count, _WARMUP, pm.shape[1]), dtype=hist.dtype)
    _acs(stack, tab, index[:_WARMUP], warm)
    hist[:_WARMUP] = warm[0]
    start_metrics = stack.copy()
    tail = hist[_WARMUP: _WARMUP + count * length]
    _acs(stack, tab, index[_WARMUP:], tail.reshape(count, length, -1))
    # in order, so that a rerun row's end metrics are the ones checked next
    for k in range(1, count):
        offset = start_metrics[k] - stack[k - 1]
        if (offset != offset[0]).any():
            first = _WARMUP + k * length
            last = min(first + length, n)
            stack[k] = stack[k - 1]
            _acs(stack[k: k + 1], tab, groups[first: last].tolist(),
                 hist[None, first: last])


def viterbi_decode(coded):
    """Hard-decision maximum-likelihood decode of one zero-terminated block.

    ``coded`` is one block (n,) of coded bits; any other number of
    dimensions is rejected.

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
    gives both the survivor and the per-step tie rule.  The traceback reads
    only those four bits, so the history keeps one byte per state and pass.

    The N full passes run as S = min(_SEGMENTS, N // _WARMUP) time segments
    of L passes, stacked in one loop (Fettweis & Meyr, IEEE Trans. Commun.
    37(8), 1989).  Segment k > 0 starts from all-zero metrics W = _WARMUP
    passes before its boundary b_k and is checked there against the end
    metrics of segment k - 1.  If the two differ by one constant c over all
    states, every decision of segment k from b_k on is the sequential one:
    each minimum compares metrics of one pass only, so adding c to all of
    them keeps its winner, and c is a multiple of 16, so the tie ranks in
    the low four bits keep their values too.  Segment 0 starts from the
    true metrics, so by induction every checked segment is exact.  A
    segment that fails its check reruns alone from the end metrics of the
    segment before it, so the output is exact for every input.
    """
    coded = np.asarray(coded)
    if coded.ndim != 1:
        raise FramingError(
            f"coded bits must be one block, got {coded.ndim} dimensions")
    n = len(coded)
    if n % 2 != 0:
        raise FramingError(f"coded length {n} is odd")
    if n < 2 * DEFAULT_CODE.tail_bits:
        raise FramingError(f"coded length {n} shorter than the tail")
    if not ((coded == 0) | (coded == 1)).all():
        raise FramingError("coded bits must be 0 or 1")
    coded = coded.astype(np.uint8, copy=False)
    n_steps = n // 2
    rx_sym = (coded[0::2] << 1) | coded[1::2]

    m, n_states = DEFAULT_CODE.tail_bits, DEFAULT_CODE.n_states
    tables = _radix_tables()
    radix = len(tables)
    head = n_steps % radix
    n_passes = -(-n_steps // radix)
    # the packed symbols of one pass are a table index below 4**radix <= 256
    weights = (4 ** np.arange(radix - 1, -1, -1)).astype(np.uint8)
    groups = rx_sym[head:].reshape(-1, radix) @ weights
    # unreachable start states lose every comparison with a real path, whose
    # metric is at most 2 * n_steps; int32 holds 16 times that up to 2**24 steps
    dtype = np.int32 if n_steps < 1 << 24 else np.int64
    pm = np.full((1, n_states), 16 * (2 * n_steps + 1), dtype=dtype)
    pm[0, 0] = 0
    # the spare rows take the last segment's passes past the end
    hist = np.empty((n_passes + _SEGMENTS, n_states), dtype=np.uint8)
    if head:
        lead = int(rx_sym[:head] @ weights[radix - head:])
        _acs(pm, tables[head - 1], [lead], hist[None, :1])
    _acs_segmented(pm, tables[-1], groups, hist[n_passes - len(groups):])

    # trace back from the zero end state, one pass per iteration; the state
    # before the first pass is the start state, so its width never matters.
    # high[byte] is the part of a pass's start state that the survivor's tie
    # rank, the byte's low four bits, encodes.
    high = [_bitrev(x, radix) << (m - radix) for x in range(16)] * 16
    survivors = memoryview(hist[:n_passes].ravel())
    ends = [0] * n_passes
    state, pos = 0, len(survivors)
    for i in range(n_passes - 1, 0, -1):
        pos -= n_states  # the survivors of pass i
        state = high[survivors[pos + state]] | state >> radix
        ends[i - 1] = state
    # each pass's input bits are the low bits of its end state
    ends = np.array(ends, dtype=np.min_scalar_type(n_states - 1))
    shifts = np.arange(radix - 1, -1, -1, dtype=ends.dtype)
    decoded = (ends[:, None] >> shifts & 1).ravel()
    pad = n_passes * radix - n_steps  # unused high bits of the short head pass
    return decoded[pad: pad + n_steps - m]
