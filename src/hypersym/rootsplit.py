"""Hyperbolic-polynomial machinery: root splitting.

The splitter applies ``(1 + s d/dzeta)`` repeatedly to a monic real-rooted
polynomial.  Each application is exact coefficient arithmetic (derivative
plus scaled add), which amplifies no rounding; only the final root extraction
is numerical: a vectorized Laguerre iteration whose rows are accepted only
when an after-the-fact rounding check separates every root, and the companion
matrix plus one Newton polish step for the rows it does not accept.  Every
routine takes a stack: leading axes index independent polynomials, and a
single one is a stack with no leading axes.

The random bank draws row i from ``np.random.default_rng(seeds[i])``: numpy's
SeedSequence and PCG64 streams (O'Neill, HMC-CS-2014-0905), for every
non-negative integer seed.  One generator per row costs about 12 us, so
:func:`random_real_rooted` runs the seeding, the generator and the uniform
draw of every row at once in integer array arithmetic, bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypersym.errors import HypersymError, NotRealRootedError

# Laguerre steps one root may take before its row goes to the companion path
LAGUERRE_MAX_STEPS = 40
# a row is accepted when each root's rounding radius is at most this share of
# the row's smallest gap, so each gap is right to twice this share
LAGUERRE_GAP_SHARE = 1e-8


@dataclass
class SplitResult:
    """Split polynomials; every field carries the broadcast leading axes."""

    coeffs: np.ndarray  # (..., m+1) ascending, monic
    roots: np.ndarray  # (..., m) strictly increasing for s != 0
    min_gap: np.ndarray  # (...)


def expand_roots(roots) -> np.ndarray:
    """Ascending monic coefficients of prod (zeta - r): ``(..., m) -> (..., m+1)``."""
    roots = np.asarray(roots, dtype=float)
    c = np.ones(roots.shape[:-1] + (1,))
    pad = np.zeros_like(c)
    for j in range(roots.shape[-1]):
        c = np.concatenate((pad, c), axis=-1) \
            - roots[..., j, None] * np.concatenate((c, pad), axis=-1)
    return c


def _horner(c, z):
    """Ascending coefficients ``c[..., j]`` evaluated at ``z`` (broadcasting), complex."""
    acc = np.zeros((), dtype=complex)
    for j in range(c.shape[-1] - 1, -1, -1):
        acc = acc * z + c[..., j]
    return acc


def _sort_rows(z: np.ndarray) -> np.ndarray:
    """Order each row by real part, then imaginary part."""
    return np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)


def polished_roots(c) -> np.ndarray:
    """Roots of ascending-coefficient polynomials, ``(..., d+1) -> (..., d)``.

    The eigenvalues of one companion-matrix stack in the field of the
    coefficients (real rows take the real eigensolver), then one guarded
    Newton step (skipped near multiple roots where the step would be large),
    then deterministic ordering of each row by real part, then imaginary
    part.  Coefficients past the double range raise :class:`HypersymError`.
    """
    c = np.asarray(c, dtype=np.result_type(np.asarray(c), float))
    if not np.isfinite(c).all():
        raise HypersymError("polynomial coefficients are not finite: the symbol or "
                            "polynomial leaves the double range")
    d = c.shape[-1] - 1
    companion = np.zeros(c.shape[:-1] + (d, d), dtype=c.dtype)
    companion[..., 0, :] = -c[..., -2::-1] / c[..., -1:]
    companion[..., np.arange(1, d), np.arange(d - 1)] = 1.0
    raw = np.linalg.eigvals(companion)
    p = _horner(c[..., None, :], raw)
    dp = _horner(c[..., None, 1:] * np.arange(1, d + 1), raw)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(np.abs(dp) > 0, p / np.where(dp == 0, 1, dp), 0.0)
    safe = (np.abs(dp) > 0) & (np.abs(step) <= 0.1 * (1.0 + np.abs(raw)))
    return _sort_rows(np.where(safe, raw - step, raw))


def _laguerre_terms(cols, z) -> np.ndarray:
    """q''/2, q', q and sum_j |c_j| |z|^j at ``z`` by Horner's rule, ``(4, rows)``,
    from the coefficient columns and their moduli, ``cols[j] = (c_j, |c_j|)``.
    The four recurrences run as one stack, so that each coefficient costs one
    multiply and two adds, every element rounded as in its own recurrence."""
    zs = np.stack((z, z, z, np.abs(z)))
    terms = np.zeros(zs.shape)
    terms[2:] = cols[-1]
    for j in range(cols.shape[0] - 2, -1, -1):
        nxt = terms * zs
        nxt[:2] += terms[1:3]
        nxt[2:] += cols[j]
        terms = nxt
    return terms


def laguerre_roots(c) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of monic ascending rows, and which rows are accepted:
    ``(..., m+1) -> (..., m), (...)``.  Laguerre's method, smallest root first
    from under the Laguerre-Samuelson bound, with Maehly's implicit deflation
    (Stoer & Bulirsch, *Introduction to Numerical Analysis*, sec. 5.5); each
    root stops once |q(z)| <= e(z) = 2 m u sum_j |c_j| |z|^j, Horner's rounding
    bound.  A row is accepted when all its roots stopped, strictly increase and
    have e(y)/|q'(y)| at most ``LAGUERRE_GAP_SHARE`` of its smallest gap; the
    roots of other rows mean nothing.  Each root iterates over the whole stack,
    a row's z frozen once it stops, so a row's roots and acceptance do not
    depend on the rows beside it.
    """
    c = np.asarray(c, dtype=float)
    m, lead = c.shape[-1] - 1, c.shape[:-1]
    if m == 1:
        return -c[..., :1], np.ones(lead, dtype=bool)
    ct = c.reshape(-1, m + 1).T  # coefficient j of every row
    cols = np.stack((ct, np.abs(ct)), axis=1)  # (m + 1, 2, rows)
    roots, radius = np.zeros((2, m, ct.shape[1]))
    ok = np.ones(ct.shape[1], dtype=bool)
    rel = m * np.finfo(float).eps  # 2 m u, for the bound 2 m u sum_j |c_j| |z|^j
    with np.errstate(all="ignore"):
        mean = -ct[m - 1] / m
        half_width = np.sqrt(np.maximum((ct[m - 1] ** 2 - 2 * ct[m - 2]) / m - mean**2, 0.0)
                             * (m - 1))
        # lowered so that rounding in the bound cannot start inside the smallest root
        start = mean - half_width - 1e-6 * (np.abs(mean) + half_width)
        at_start = _laguerre_terms(cols, start)  # every root starts there
        for k in range(m):
            n, active, z, terms = m - k, ok.copy(), start, at_start
            for _ in range(LAGUERRE_MAX_STEPS):
                active &= ~(np.abs(terms[2]) <= rel * terms[3])
                if not active.any():
                    break
                half_ddq, dq, q, _ = terms
                g = dq / q
                big_g, big_h = g, g * g - 2 * half_ddq / q
                if k:  # deflation by the roots found
                    inv = 1.0 / (z - roots[:k])
                    sq = inv * inv
                    # summed in order: np.sum pairs 8 or more terms of a one-row
                    # stack, which would give a row alone other roots
                    big_g, big_h = big_g - sum(inv[1:], inv[0]), big_h - sum(sq[1:], sq[0])
                root = np.sqrt(np.maximum((n - 1) * (n * big_h - big_g * big_g), 0.0))
                # the sign follows G
                z = np.where(active, z - n / (big_g + np.copysign(root, big_g)), z)
                terms = _laguerre_terms(cols, z)
            ok &= ~active  # a root that did not stop
            # a stopped row's z, and so its terms, stayed as they were at its stop
            roots[k], radius[k] = np.where(ok, z, 0.0), rel * terms[3] / np.abs(terms[1])
        gaps = np.diff(roots, axis=0)
        ok &= np.all(gaps > 0, axis=0) & np.all(radius <= LAGUERRE_GAP_SHARE * gaps.min(axis=0), axis=0)
    return roots.T.reshape(lead + (m,)), ok.reshape(lead)


def nuij_split(rows, s) -> SplitResult:
    """Apply ``(1 + s d/dzeta)`` m times, m the degree.

    ``rows`` are ascending monic coefficients ``(..., m+1)``; ``s``
    broadcasts against their leading axes.
    The split polynomial of a real-rooted input is again real-rooted with
    consecutive-root gaps at least ``nuij_constant(m) * |s|``.  Its roots
    are :func:`laguerre_roots`', or the sorted :func:`polished_roots` on rows
    it does not accept.  A complex root beyond tolerance there means the
    input was not real-rooted and is reported as such, since the operator
    preserves real-rootedness.
    """
    rows = np.asarray(rows, dtype=float)
    s = np.asarray(s, dtype=float)
    m = rows.shape[-1] - 1
    lead = np.broadcast_shapes(rows.shape[:-1], s.shape)
    c = np.broadcast_to(rows, lead + (m + 1,)).copy()
    s_col = s[..., None]
    for _ in range(m):
        c[..., :-1] += s_col * (c[..., 1:] * np.arange(1, m + 1))
    real_roots, accepted = laguerre_roots(c)
    if not accepted.all():
        roots = polished_roots(c[~accepted])
        imag = np.max(np.abs(roots.imag), axis=-1, initial=0.0)
        scale = np.max(np.abs(roots), axis=-1, initial=1.0)
        if np.any(imag > 1e-8 * scale):
            raise NotRealRootedError(
                f"split polynomial has complex roots (max |Im| = "
                f"{np.max(imag):.3g}); input was not real-rooted"
            )
        real_roots[~accepted] = np.sort(roots.real, axis=-1)
    min_gap = np.min(np.diff(real_roots, axis=-1), axis=-1, initial=math.inf)
    return SplitResult(coeffs=c, roots=real_roots, min_gap=min_gap)


def nuij_constant(m: int) -> float:
    """Separation constant c(m) for degree-m polynomials, m >= 1.

    Seeded with c_2 = 1 and advanced through
    ``c_{l+1} = min_{2<=k<=l} (k + c_l - sqrt((k + c_l)^2 - 4 c_l)) / 2``
    up to l = m + 1; strictly positive and decreasing in m.  That is the
    smaller root of ``x^2 - (k + c_l) x + c_l``, taken as c_l over the larger
    one, ``2 c_l / (k + c_l + sqrt((k + c_l)^2 - 4 c_l))``: the difference
    form cancels as c_l shrinks (7.5% off at m = 17, exactly 0 from m = 18).
    """
    c = 1.0  # c_2
    for ell in range(2, m + 1):
        c = min(
            2.0 * c / (k + c + math.sqrt((k + c) ** 2 - 4.0 * c))
            for k in range(2, ell + 1)
        )
    return c


# SeedSequence's hash and mix constants and pool size, and PCG64's multiplier
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The hash constant before each of n hashmix calls and after the last,
    ``init mult^k mod 2^32``, as a column ``(n + 1, 1)``."""
    return np.cumprod([init] + [mult] * n, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Consecutive hashmix calls on the rows of ``v``: row k xors with
    ``consts[k]`` and multiplies by ``consts[k + 1]``."""
    v = (v ^ consts[:-1]) * consts[1:]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _seed_state(words: np.ndarray) -> np.ndarray:
    """SeedSequence's ``generate_state(4, np.uint64)`` of each column of
    ``words``, an entropy's little-endian uint32 words padded with zeros to at
    least the pool size: ``(w, n) -> (4, n)``.  A missing word within the pool
    hashes like a zero word; a later one mixes in only where a row has it."""
    w = words.shape[0]
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * w)
    pool = _hashmix(words[:_POOL], consts[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):  # every ordered pair, src outer, in hashmix order
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, w):
        mixed = _mix(pool, _hashmix(words[src], consts[k:k + _POOL + 1]))
        pool = np.where(words[src:].any(axis=0), mixed, pool)
        k += _POOL
    state = _hashmix(np.tile(pool, (2, 1)),
                     _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a b, from 32-bit halves."""
    low = 0xFFFFFFFF
    a0, a1, b0, b1 = a & low, a >> 32, b & low, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & low) + (p10 & low)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def random_real_rooted(m: int, spread: float, seeds) -> np.ndarray:
    """Sorted roots ``(len(seeds), m)``, uniform in [-spread, spread]: row i
    is ``np.random.default_rng(seeds[i]).uniform(-spread, spread, size=m)``,
    bit for bit, for any non-negative integer seeds and any spread whose
    range ``2 spread`` is finite.

    One generator per row would cost about 12 us, so every row is drawn at
    once.  SeedSequence's pool and ``generate_state`` run on uint32 arrays.
    PCG64 seeds its 128-bit state, in (high, low) uint64 limbs, from the
    state's two words (seed, seq) as ``pcg_setseq_128_srandom_r`` does: the
    increment is ``inc = 2 seq + 1``, and two LCG steps from 0 with seed
    added between them give ``S = (inc + seed) M + inc``.  Its k-th output is the
    XSL-RR of ``M^k S + (M^{k-1} + ... + 1) inc``, with the powers and sums
    of the multiplier M formed once in Python integers, and ``uniform``
    turns it into ``low + (high - low) (out >> 11) 2^-53``.
    """
    seeds = [int(s) for s in seeds]
    w = max(_POOL, -(-max(seeds, default=0).bit_length() // 32))
    words = np.frombuffer(b"".join(s.to_bytes(4 * w, "little") for s in seeds),
                          dtype="<u4").reshape(len(seeds), w).T
    s_hi, s_lo, i_hi, i_lo = _seed_state(words)
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    y_lo = s_lo + inc_lo  # inc + seed, the state after the first step
    y_hi = s_hi + inc_hi + (y_lo < s_lo)
    # M^(k+1) and M^k + ... + 1 for k = 1 .. m, one step past each output's
    # count for the second seeding step
    mod, powers, sums, power, total = 1 << 128, [], [], _PCG_MULT, 1
    for _ in range(m):
        power, total = power * _PCG_MULT % mod, (total * _PCG_MULT + 1) % mod
        powers.append(power)
        sums.append(total)
    consts = powers + sums
    c_hi, c_lo = np.array([[c >> 64 for c in consts], [c & (1 << 64) - 1 for c in consts]],
                          dtype=np.uint64).reshape(2, 2, 1, m)
    # both products at once, mod 2^128: (inc + seed) M^(k+1) and inc's sum
    x_hi, x_lo = np.stack((y_hi, inc_hi))[:, :, None], np.stack((y_lo, inc_lo))[:, :, None]
    hi, lo = _mulhi64(x_lo, c_lo) + x_hi * c_lo + x_lo * c_hi, x_lo * c_lo
    state_lo = lo[0] + lo[1]
    state_hi = hi[0] + hi[1] + (state_lo < lo[0])
    folded, rot = state_hi ^ state_lo, state_hi >> 58
    out = folded >> rot | folded << ((64 - rot) & 63)
    low, high = -float(spread), float(spread)
    return np.sort(low + (high - low) * ((out >> 11) * 2.0**-53), axis=-1)
