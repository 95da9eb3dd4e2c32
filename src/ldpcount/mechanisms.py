"""Privacy primitives: Laplace noise, randomized response, projection, budgets.

Every mechanism is a pure function of uniform draws in [0, 1), or, in the
RR release, of the raw 64-bit words those draws are made from.  The
protocol takes them from one generator per (master seed, trial, stage,
user), derived by :func:`substream`; the derivation is part of the external
contract.

Setting a budget component to ``math.inf`` turns the corresponding mechanism
into the identity.  That is a test-harness feature, not a privacy mode.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ResourceLimitError, ValidationError
from .graphs import MEMORY_BUDGET, Graph

INF = math.inf

# Stage tags for substream derivation, one per query in the protocol.
STAGE_DEGREE = 0
STAGE_RR = 1
STAGE_COUNT = 2

BUDGET_SLACK = 1e-12

# Bound on a route's dense n x n matrices, priced per cell (require_dense_bytes).
DENSE_BYTES_LIMIT = MEMORY_BUDGET

# Columns an RR row part mirrors per pass; the panel's source rows stay in
# cache while their transpose is read.
_PANEL = 256

# Cells per row part of a dense server layer: a layer of C cells runs in
# max(1, min(cores, C // _PART_CELLS)) parts, one per core at most.  On a
# 2-vCPU guest two parts paid for unbiasing from 1.4M cells, and for the RR
# release, whose draws contend for the interpreter lock with the stream
# building on the calling thread, only from about 8M: at 2**22 neither
# layer splits below the size where its split paid.
_PART_CELLS = 2**22

# Cores this process may run on, read once at import; the dense layers'
# parts and run_trials' workers are each capped by it.
CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

# Largest eps whose exp is finite; above it unbias takes its eps=inf limit.
_MAX_EXP_ARG = math.log(sys.float_info.max)


# A string component spelled like an integer would render as that integer.
_INT_TEXT = re.compile(r"-?[0-9]+")


def _check_component(p) -> None:
    """Raise ValidationError unless ``p`` renders one-to-one in a path."""
    if isinstance(p, str):
        if "|" in p or _INT_TEXT.fullmatch(p):
            raise ValidationError(
                f"a string path component may not contain '|' or be "
                f"spelled like an integer, got {p!r}"
            )
    elif isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise ValidationError(f"path components must be integers or strings, got {p!r}")


# Hashed heads (every component but the last) of derivation paths, least
# recently used out.  An estimate walks one head per stage, (seed, trial,
# stage), so each running trial keeps one live; 256 covers far more threads
# than a host has cores, at about 0.5 KiB a head (tracemalloc), and an
# evicted head is only hashed again.
_HEADS = 256


@lru_cache(maxsize=_HEADS, typed=True)
def _head(*head) -> hashlib.blake2b:
    """blake2b state that has absorbed "p0|p1|...", a path's head; copy, never update."""
    return hashlib.blake2b("|".join(map(str, head)).encode(), digest_size=8)


def derive_seed(master: int, *path: int | str) -> int:
    """64-bit seed for a derivation path: blake2b over "master|p0|p1|...".

    Components are integers (numpy's included), rendered in decimal, or
    strings, taken verbatim; a string may neither contain '|' nor be spelled
    like an integer.  The rendering is then one-to-one, so distinct paths
    collide only with hash probability.  Anything else raises
    ValidationError, checked before the cached state of the path's head
    is read: BLAKE2 absorbs in order, so a copy of that state, given "|"
    and the last component, digests the whole text.
    """
    if type(master) is not int:
        _check_component(master)
    for p in path:
        if type(p) is not int:  # the hot path passes plain ints
            _check_component(p)
    h = _head(master, *path[:-1]).copy()
    if path:
        h.update(b"|" + str(path[-1]).encode())
    return int.from_bytes(h.digest(), "little")


class _FixedKey(ISeedSequence):
    """Seed object that hands Philox a fixed 64-bit key.

    ``Philox(key=k)`` first seeds a ``SeedSequence()`` from OS entropy and
    then overwrites the key with ``[k, 0]``.  A bit generator given an
    ``ISeedSequence`` uses it as is, and Philox asks it for 2 uint64 words:
    these are the same two words, with no entropy read.  Any other request
    raises rather than key the stream differently.
    """

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or not (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            raise ValueError(
                f"a fixed Philox key is 2 uint64 words, asked for {n_words} of {dtype}"
            )
        return np.array([self.key, 0], dtype=np.uint64)


# Philox's starting counter, shared by every stream: numpy copies it, and an
# array skips the conversion of the int 0 that ``counter=None`` costs per stream.
_COUNTER = np.zeros(4, dtype=np.uint64)
_COUNTER.flags.writeable = False


def substream(master: int, *path: int | str) -> np.random.Generator:
    """Independent generator for a derivation path (counter-based Philox)."""
    key = _FixedKey(derive_seed(master, *path))
    return np.random.Generator(np.random.Philox(key, counter=_COUNTER))


def raw_uniforms(stream: np.random.Generator, size: int | None = None):
    """The stream's first draws in [0, 1), one float or ``size`` of them.

    Each is (w >> 11) * 2**-53 for a raw 64-bit word w of the stream's bit
    generator: bit for bit ``stream.random(size)``, read from the
    bit-generator stream, which NEP 19 keeps stable across numpy versions.
    """
    return (stream.bit_generator.random_raw(size) >> 11) * 2.0**-53


def as_uniforms(u, shape: tuple[int, ...]) -> np.ndarray:
    """``u`` as float64 draws of ``shape``; a mechanism at finite eps needs them."""
    if u is None:
        raise ValidationError(
            f"uniform draws of shape {shape} are required at finite eps"
        )
    u = np.asarray(u, dtype=np.float64)
    if u.shape != shape:
        raise ValidationError(f"need uniform draws of shape {shape}, got {u.shape}")
    return u


def laplace_quantile(u: float | np.ndarray, scale: float):
    """Inverse CDF of the centered Laplace distribution; u=0.5 maps to 0."""
    u = np.asarray(u, dtype=np.float64)
    # guard u=0: the log argument is clamped to the smallest normal float
    lo = np.maximum(2.0 * u, np.finfo(np.float64).tiny)
    hi = np.maximum(2.0 * (1.0 - u), np.finfo(np.float64).tiny)
    out = np.where(u < 0.5, scale * np.log(lo), -scale * np.log(hi))
    out = np.where(u == 0.5, 0.0, out)
    return out if out.ndim else float(out)


def sample_laplace(scale: float, rng: np.random.Generator, size: int | None = None):
    """Centered Laplace sample(s) via inverse CDF on a uniform draw."""
    if not scale > 0:
        raise ValidationError(f"Laplace scale must be > 0, got {scale}")
    u = rng.random(size) if size is not None else rng.random()
    return laplace_quantile(u, scale)


def add_noise(value, scale, u=None):
    """value + Lap(scale), elementwise; exactly ``value`` where the scale is 0.

    ``u`` holds one uniform draw in [0, 1) per value and may be None only
    when every scale is 0.  A scalar ``value`` comes back as a float.
    """
    value = np.asarray(value, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if not np.all(scale >= 0.0):
        raise ValidationError(f"Laplace scale must be >= 0, got {np.min(scale)}")
    noisy = scale != 0.0
    if noisy.any():
        noise = laplace_quantile(as_uniforms(u, value.shape), scale)
        value = np.where(noisy, value + noise, value)
    return value if value.ndim else float(value)


def require_eps(name: str, eps: float) -> None:
    """Raise ValidationError unless ``eps`` is a usable budget, inf included.

    The least is 2**-52, the smallest eps with e^eps > 1 in float64; below
    it randomized response cannot be unbiased and the noise scales overflow.
    A bool is not a budget, though it compares like 0 or 1.
    """
    if isinstance(eps, (bool, np.bool_)) or not eps >= math.ulp(1.0):
        raise ValidationError(f"{name} must be a number >= 2**-52, got {eps}")


def rr_keep_probability(eps: float) -> float:
    """Probability that randomized response preserves a bit: e^eps/(1+e^eps)."""
    return 1.0 / (1.0 + math.exp(-eps))


def rr_flip_bound(eps: float) -> np.uint64:
    """T << 11, T = ceil(p * 2**53): a raw word w flips its bit iff w < T << 11.

    Here p = 1 - rr_keep_probability(eps) is the flip probability that
    ``randomize_response_row`` compares the draw (w >> 11) * 2**-53 with.
    Scaling by 2**53 is exact, so that draw is below p iff w >> 11 < p *
    2**53, iff w >> 11 < T (an integer is below a real iff it is below its
    ceiling), iff w < T << 11.  p <= 1/2, so the bound fits in 64 bits.
    """
    return np.uint64(math.ceil((1.0 - rr_keep_probability(eps)) * 2.0**53) << 11)


def as_words(words, shape: tuple[int, ...]) -> np.ndarray:
    """``words`` as raw uint64 words of ``shape``, compared with ``rr_flip_bound``.

    Any other dtype is refused: numpy compares int64 with uint64 through
    float64, which rounds words near the bound.
    """
    if not isinstance(words, np.ndarray) or words.dtype != np.uint64:
        got = getattr(words, "dtype", type(words).__name__)
        raise ValidationError(f"need raw uint64 words of shape {shape}, got {got}")
    if words.shape != shape:
        raise ValidationError(f"need raw uint64 words of shape {shape}, got {words.shape}")
    return words


def randomize_response_row(bits, eps: float, u=None):
    """Flip each bit whose uniform draw in ``u`` falls below 1/(1+e^eps).

    ``u`` holds one draw in [0, 1) per bit.  At eps=inf this is the
    identity and ``u`` is unused.
    """
    require_eps("eps", eps)
    bits = np.asarray(bits, dtype=np.uint8)
    if eps == INF:
        return bits.copy()
    flip = as_uniforms(u, bits.shape) < (1.0 - rr_keep_probability(eps))
    return np.bitwise_xor(bits, flip.astype(np.uint8))


def unbias(bit, eps: float):
    """Affine correction making randomized bits unbiased edge estimates.

    ``bit`` is a 0/1 scalar or an integer array; an array comes back as
    float64, a scalar as a float.  Once e^eps would overflow (eps=inf
    included) the limit ``bit`` is exact.
    """
    if eps > _MAX_EXP_ARG:
        out = np.multiply(bit, 1.0)
    else:
        e = math.exp(eps)
        out = np.multiply(bit, e + 1.0)
        out -= 1.0
        out /= e - 1.0
    return out if out.ndim else float(out)


def unbias_span(eps: float) -> float:
    """unbias(1) - unbias(0), i.e. (e^eps+1)/(e^eps-1); 1.0 at eps=inf.

    This span bounds how much one flipped adjacency bit can move any
    estimate built from unbiased entries, so it scales the Laplace noise.
    """
    return 1.0 / math.tanh(eps / 2.0)


def unbias_variance(eps: float) -> float:
    """Variance of an unbiased randomized-response entry: e^eps/(e^eps-1)^2.

    Written over e^-eps, so it stays finite for every eps > 0 and is 0 at inf.
    """
    return math.exp(-eps) / math.expm1(-eps) ** 2


@dataclass(frozen=True)
class ObfuscatedGraph:
    """Symmetric randomized-response bit matrix plus the budget it spent."""

    bits: np.ndarray
    eps: float

    def __post_init__(self):
        self.bits.flags.writeable = False

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @cached_property
    def unbiased(self) -> np.ndarray:
        """Matrix of unbiased edge estimates, diagonal forced to zero.

        Each cell is written through a uint64 view as base + bit * step
        (mod 2**64): base is the float64 bit pattern of unbias(0) and step
        that of unbias(1) minus base, so the cell holds unbias(bit)'s
        pattern, bit for bit, from one integer multiply and add.
        """
        n = self.n
        a = np.empty((n, n))
        words = a.view(np.uint64)
        base, one = unbias(np.arange(2), self.eps).view(np.uint64).tolist()
        base, step = np.uint64(base), np.uint64((one - base) % 2**64)

        def rows(lo: int, hi: int) -> None:
            np.multiply(self.bits[lo:hi], step, out=words[lo:hi])
            words[lo:hi] += base
            np.fill_diagonal(a[lo:hi, lo:hi], 0.0)

        _run_parts(n * n, lambda f: round(n * f), rows)
        a.flags.writeable = False
        return a


def require_dense_bytes(n: int, per_cell: int) -> None:
    """Refuse a route holding ``per_cell`` bytes per cell of an n x n matrix."""
    if per_cell * n * n > DENSE_BYTES_LIMIT:
        raise ResourceLimitError(
            f"n={n} needs {per_cell * n * n} dense bytes > DENSE_BYTES_LIMIT; shrink n"
        )


def assemble_obfuscated(graph: Graph, eps: float, streams=None) -> ObfuscatedGraph:
    """Mirror every user's randomized-response report into one symmetric matrix.

    User i reports i bits, bit j being edge (j, i), so each pair is reported
    once.  At finite eps ``streams(i)`` is user i's stream, whose
    ``bit_generator.random_raw(i)`` returns its i raw words.  At eps=inf each
    edge is written into both triangles and ``streams`` is unused.

    Same bits as ``randomize_response_row`` on the draws ``random(i)`` makes,
    row by row, then ``lower + lower.T``: user i's raw words are compared
    with ``rr_flip_bound``, which flips exactly where those draws fall below
    the flip probability, straight into row i through a bool view of the
    bits.  Users are split into parts of equal cells.  After its users, the
    part for users [lo, hi) XORs in the true bit of each edge (v, u) with lo
    <= v < hi, then mirrors its own columns panel by panel, and the diagonal
    block adds its own transpose.  A part writes only its rows below the
    diagonal and its columns above it, and reads only cells it writes, so
    parts write disjoint cells and the bits do not depend on the part count.
    Every stream is made on the calling thread: part 0 makes each as it
    draws, and a later part's are all made before it is handed over.
    """
    n = graph.n
    require_dense_bytes(n, 9)  # the bits 1 and the unbiased matrix 8
    bits = np.zeros((n, n), dtype=np.uint8)
    u, v = graph.edges.T
    if eps == INF:
        bits[v, u] = 1
        bits[u, v] = 1
        return ObfuscatedGraph(bits=bits, eps=eps)
    require_eps("eps", eps)
    bound = rr_flip_bound(eps)
    if streams is None and n:
        raise ValidationError("user 0: raw words are required at finite eps")
    flips = bits.view(bool)

    def users(lo: int, hi: int, held=None) -> None:
        for i in range(lo, hi):
            stream = streams(i) if held is None else held[i - lo]
            try:
                words = as_words(stream.bit_generator.random_raw(i), (i,))
            except ValidationError as exc:
                raise ValidationError(f"user {i}: {exc}") from None
            np.less(words, bound, out=flips[i, :i])
        own = (lo <= v) & (v < hi)
        bits[v[own], u[own]] ^= 1
        for a in range(lo, hi, _PANEL):
            b = min(a + _PANEL, hi)
            bits[:a, a:b] = bits[a:b, :a].T
            block = bits[a:b, a:b]
            block += block.T

    def hand_off(lo: int, hi: int) -> tuple:
        return lo, hi, list(map(streams, range(lo, hi)))

    # Row i holds i cells, so rows [0, r) hold about r*r/2 of them.
    _run_parts(n * n // 2, lambda f: round(n * math.sqrt(f)), users, hand_off)
    return ObfuscatedGraph(bits=bits, eps=eps)


def _run_parts(cells: int, cut, work, hand_off=lambda lo, hi: (lo, hi)) -> None:
    """Run ``work`` over the consecutive row parts of a layer of ``cells`` cells.

    There are P = max(1, min(CORES, cells // _PART_CELLS)) parts; part p
    spans rows [cut(p / P), cut((p + 1) / P)), so ``cut`` maps 0 to the
    first row and 1 past the last.  Part 0 runs ``work(lo, hi)`` on the
    calling thread.  Each later part is first passed to ``hand_off(lo, hi)``
    on the calling thread, and a thread of the layer's own runs ``work`` on
    what it returns; a one-part layer starts none.  Parts must write
    disjoint cells.  Every thread is joined before the layer returns, and
    then the first error in part order is raised.
    """
    parts = max(1, min(CORES, cells // _PART_CELLS))
    cuts = [cut(p / parts) for p in range(parts + 1)]
    with ThreadPoolExecutor(parts, "ldpcount-part") as pool:
        rest = [pool.submit(work, *hand_off(lo, hi)) for lo, hi in zip(cuts[1:], cuts[2:])]
        work(cuts[0], cuts[1])
    for part in rest:
        part.result()


def project_mu(neighbors, cap: int):
    """The first ``cap`` neighbors in the fixed (ascending) order: a slice."""
    return neighbors[: max(int(cap), 0)]


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-query budgets: degree publication, randomized response, counting.

    ``zeta`` is the acceptable probability that some user's degree estimate
    falls below their true degree after the clipping correction.
    """

    eps0: float
    eps1: float
    eps2: float
    zeta: float

    def __post_init__(self):
        for name in ("eps0", "eps1", "eps2"):
            require_eps(name, getattr(self, name))
        if isinstance(self.zeta, (bool, np.bool_)) or not 0.0 < self.zeta <= 1.0:
            raise ValidationError(f"zeta must be a number in (0, 1], got {self.zeta}")

    @property
    def total(self) -> float:
        return self.eps0 + self.eps1 + self.eps2


def check_budget(budget: PrivacyBudget, eps_total: float) -> bool:
    """True iff the three query budgets sum to at most eps_total.

    A tiny absolute slack absorbs decimal parsing of command-line flags.
    """
    return budget.total <= eps_total + BUDGET_SLACK
