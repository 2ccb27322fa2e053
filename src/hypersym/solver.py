"""Spectrally truncated Cauchy evolution with energy diagnostics.

The truncated system is evolved in the original variables by classical RK4;
the time-dependent Gevrey weight ``e^{<D>^rho (T - a t)}`` is applied only to
snapshots (mathematically identical for diagnostics, and it keeps symbol
quantization out of the time loop).  The symmetrizer energy is rebuilt at
every sample time with the running window ``tau = T - a t``; in Hoelder mode
the mollified symmetrizer takes its place.

Only the active band, the modes with chi(h xi) > 0, goes through RK4.  Off
it chi = 0 and the generator is ``-eps_par xi^2``, so a mode there at time t
is exactly ``u0 e^{-t eps_par xi^2}``; likewise ``M = -a <xi>^rho I`` there,
so ``R = I/2`` exactly and Lyapunov solves run on band nodes only.  When
eps_par = 0 the off-band modes are u0's and are not touched at all;
otherwise each sample's off-band modes are set from that closed form, in one
broadcast per block of samples as the diagnostics read them.  With h = 0,
chi = 1 everywhere and the band is the whole lattice.

An x-independent real system evolves each mode alone, by the conjugate of
its mirror's generator.  So a solve of data with u0(-xi) = conj u0(xi) bit
for bit (:func:`pairs_modes`) evolves each band's xi >= 0 and -n_x/2 alone
and writes each xi < 0 band mode as the conjugate of its mirror.  Its
diagnostics read FFT positions 0 .. n_x/2 alone, each xi > 0 counted twice.

The lattice's stability scale sets the grid step dt, and a sample is taken
every ``stride`` grid steps.  The band crosses each sample interval in the
sub-steps of :func:`_substeps`, set by its own scale and the time terms' top
frequency, and never more of them than grid steps.

One solve takes several cutoffs, as the h-uniformity study does: they share
the grid and the sub-steps, which the widest band sets, and their bands lie
end to end in one joint band, separated by ``coeffs.x_band`` modes where
xi = 0 and chi = 0.  No product of the generator crosses a separator, so one
time loop evolves every cutoff as its own solve would (bit for bit where the
sub-steps are the same), in one sequence of steps instead of one per cutoff.

The (joint) band takes one of two step paths, chosen by its size alone.  The
generator is linear, so an RK4 step is a fixed polynomial in it, and on a
small band :class:`BandPropagator` precomputes each step as one banded
matrix: the products of the generator's per-time-term parts (words of length
1 to 4) are applied once per solve to coloured unit vectors, and each step's
matrix is their combination with that step's coefficients and size, one real
product per chunk of steps.  A step is then one ``einsum`` against the sliding
windows of the zero-padded state.  That path is taken when the word table
fits in ``_BLOCK_BYTES``.  A larger band steps by :func:`step_rk4` on the
generator, each stage a single product with that stage's matrix
``sum_j g_j L_j`` (:class:`TruncatedGenerator`), a real matrix against the
(re, im) pairs of the state.  Both paths take the g_j at the stage times
from :meth:`TruncatedGenerator.stage_coefficients`.

A state is a complex (m, n_x) array in FFT order, as in
:mod:`hypersym.engine`.  The samples, the last of which is the final step,
fill one (n_cutoffs, n_samples, m, n_x) array that starts as copies of u0,
so a sample takes only its cutoff's band, and the off-band modes when
eps_par > 0.

The band advances one sample interval at a time (:func:`_evolve`), each
sub-step writing its state into one row of the interval's block.  A buffered
:func:`step_rk4` reuses five work buffers with the operations of the plain
allocating RK4 step (the tests' reference) in the same order, so its
roundings are that step's.  Finiteness is checked on each interval's last
state, and an abort names the first sub-step whose state lost it, in any
cutoff's band.  On the propagator path that is the first state that leaves
the double range; a stepped band can lose it a few steps sooner, when an
RK4 stage overflows first.  The loop only records the sampled states.  The
diagnostics then run over blocks of samples, slices of the sample array, and
read each state once, for its squared moduli q = sum_c |u_c|^2.  A block
takes one weight array w and one product of q w^2 against a per-solve table:
its ``<xi>^(2 sigma)`` columns give the five norms, and its column of 1/2 on
the off-band modes their R-energy.  The band's R-energy is one Lyapunov batch
and one batched product R v, and the radius fit reads q folded over +-xi.
Each cutoff's samples are diagnosed on their own, and a block whose weighted
norms leave the double range aborts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hypersym.coeffs import SystemCoefficients, time_function
from hypersym.engine import fold_amplitudes, lattice, squared_moduli
from hypersym.errors import ConfigError, NumericAbortError, require_memory
from hypersym.matkernel import line_fit
from hypersym.planner import validate_params
from hypersym.symmetrizer import (
    _BLOCK_BYTES,
    ParameterSet,
    _lyap_node_bytes,
    _lyap_solve_batch,
    damped_generator,
    mollify_path,
)
from hypersym.weights import bracket, gevrey_weight, smooth_cutoff


# ---------------------------------------------------------------------------
# Data and problems


def gevrey_data(
    n_x: int,
    m: int,
    s: float,
    c0: float,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic initial data (m, n_x) with an exact Gevrey-s certificate.

    ``|g_hat(xi)| = e^{-c0 <xi>^(1/s)}`` with seeded random
    phases, conjugate-symmetric so physical samples are real; the unpaired
    top mode is zeroed.
    """
    xi = lattice(n_x)
    rng = np.random.default_rng(seed)
    amp = np.exp(-c0 * bracket(xi, 1.0) ** (1.0 / s))
    coeffs = np.zeros((m, n_x), dtype=complex)
    half = n_x // 2
    for c in range(m):
        phases = np.exp(2j * math.pi * rng.random(half - 1))
        coeffs[c, 0] = amp[0]
        coeffs[c, 1:half] = amp[1:half] * phases
        # negative frequencies mirror with conjugate phases
        neg = np.arange(half + 1, n_x)
        coeffs[c, neg] = np.conj(coeffs[c, n_x - neg])
        coeffs[c, half] = 0.0
    return coeffs


# Relative slack of the certificate check, on c0 and on the bound: enough for
# the rounding of gevrey_data's phases and exponentials, far below the factor
# a wrong c0 or s moves the tail by.
_CERT_SLACK = 1.05


@dataclass
class CauchyProblem:
    """Initial data and Gevrey certificate for one evolution run."""

    coeffs: SystemCoefficients
    g: np.ndarray  # complex (m, n_x), FFT order
    horizon: float
    gevrey_s: float | None = None
    gevrey_c0: float | None = None

    def check_certificate(self) -> bool:
        """Verify ``|g_hat| <= e^{-c0 <xi>^(1/s)}``, the amplitude gevrey_data
        synthesizes, on the lattice up to ``_CERT_SLACK``."""
        if self.gevrey_s is None or self.gevrey_c0 is None:
            return True
        xi = lattice(self.g.shape[1])
        bound = np.exp(-self.gevrey_c0 / _CERT_SLACK * bracket(xi, 1.0) ** (1.0 / self.gevrey_s))
        return bool(np.all(np.abs(self.g) <= bound[None, :] * _CERT_SLACK + 1e-300))


# ---------------------------------------------------------------------------
# Spatial operator (term-shift application of the truncated generator)


class TruncatedGenerator:
    """Applies ``chi(hD) (i A(t,x,D) + B(t,x)) chi(hD) - eps_par |D|^2`` on
    the bands of several cutoffs h at once.

    A cutoff's band is the modes with chi(h xi) > 0, the contiguous range
    |xi| < 1/h (chi decreases in |xi|); with h = 0, chi = 1 and the band is
    the whole lattice.  ``paired`` keeps of each band its xi >= 0 and the
    modes without a mirror -xi; :attr:`mirrored` holds, per cutoff, the
    columns of its segment whose mirrors are left out and their FFT positions.
    The bands of ``cutoffs`` lie end to end in one joint
    band, each but the last followed by K = ``coeffs.x_band`` separator
    modes where xi = 0 and chi = 0.  Band states are (m, n_band) arrays:
    column j holds frequency ``xi[j]``, and :attr:`segments` holds, per
    cutoff, the slice of its band, in centered order, and the FFT positions
    of those modes in a lattice state.  Trig-polynomial coefficients act by
    exact frequency shifts, which is their Kohn-Nirenberg quantization:
    harmonic k moves position p to p + k and drops the modes that leave the
    band (the rule of :func:`engine.shift_map`).  The inputs of the fields
    that have terms, ``i xi chi v`` for A and ``chi v`` for B, sit in a
    zero-padded buffer with K zeros on each side; window row K - k of its
    sliding-window view is the source shifted by k, zero where it left the
    joint band.  A shift reaches at most K modes, and every input and output
    is multiplied by chi, which is 0 on the separators, so no product
    crosses from one cutoff's band to the next: each band evolves exactly as
    it would alone.  A field with complex coefficients Cr + i Ci is two, Cr
    on its input and Ci on i times it, so one product of the real
    ``(m, F m (2K+1))`` matrix of every harmonic of the F fields applies the
    whole generator.  Split by the time terms, that matrix is
    ``sum_j g_j(t) L_j``: :attr:`term_matrices` holds the L_j, column
    (f, d, K - k) holding component d of harmonic k of field f, and
    :meth:`word_table` the products of up to four L_j that
    :class:`BandPropagator` combines.
    """

    def __init__(self, coeffs: SystemCoefficients, n_x: int, cutoffs, eps_par: float,
                 paired: bool = False):
        self.coeffs = coeffs
        self.n_x = n_x
        self.paired = paired
        self.eps_par = float(eps_par)
        k_max = coeffs.x_band
        lat = np.arange(-(n_x // 2), n_x - n_x // 2, dtype=float)
        # paired, a band keeps its xi >= 0 and the modes without a mirror -xi
        kept = (lat >= 0) | (-lat > lat[-1]) if paired else True
        # each cutoff's band, the modes with chi(h xi) > 0, then K separator
        # modes; the buffer's padding stands in for the last band's
        xis, chis, self.segments, self.mirrored, lo = [], [], [], [], 0
        for h in cutoffs:
            chi = smooth_cutoff(float(h) * lat)  # exactly 1 everywhere when h = 0
            band = (chi > 0) & kept
            xi, chi = lat[band], chi[band]
            xis += [xi, np.zeros(k_max)]
            chis += [chi, np.zeros(k_max)]
            self.segments.append((slice(lo, lo + xi.size), xi.astype(int) % n_x))
            cols = np.flatnonzero(xi > 0) if paired else np.arange(0)
            self.mirrored.append((cols, (-xi[cols]).astype(int) % n_x))
            lo += xi.size + k_max
        self.xi = np.concatenate(xis)[:lo - k_max]
        self.chi = np.concatenate(chis)[:lo - k_max]
        n = len(self.xi)
        # each field's input is factor * u, at columns K .. K + n - 1 of its
        # buffer row; the padding stays zero
        fields = [(terms, part, unit * fac) for terms, fac in
                  ((coeffs.a_terms, 1j * self.xi * self.chi), (coeffs.b_terms, self.chi + 0j))
                  for part, unit in ((np.real, 1), (np.imag, 1j))
                  if terms and (part is np.real or any(np.any(t.matrix.imag) for t in terms))]
        self._factors = np.array([fac for *_, fac in fields], dtype=complex).reshape(-1, 1, n)
        buf = np.zeros((len(fields), coeffs.m, n + 2 * k_max), dtype=complex)
        self._center = buf[:, :, k_max:k_max + n]
        self._windows = np.lib.stride_tricks.sliding_window_view(buf, n, axis=-1)
        # the product's right operand: the windows themselves when K = 0,
        # else a contiguous copy of them that apply refreshes through _gather
        self._operand = self._windows.reshape(-1, n)
        self._gather = self._operand.reshape(self._windows.shape) if k_max else None
        # the real product goes into a contiguous buffer that chi writes out,
        # and that then holds the heat term
        self._operand_pairs = self._operand.view(float)
        self._product = np.empty((coeffs.m, n), dtype=complex)
        self._product_pairs = self._product.view(float)
        # complex, so that no product casts per call
        self._chi = self.chi.astype(complex)
        self._heat = (self.eps_par * self.xi**2).astype(complex)
        # L(t) = sum_j g_j(t) L_j over the distinct time terms, the heat term
        # in the constant one, which a generator without terms also has; a
        # product of up to four L_j couples modes at most word_width apart
        self.time_terms = {term.t_term: term.g for terms, *_ in fields for term in terms}
        if self.eps_par or not self.time_terms:
            self.time_terms.setdefault("1", time_function("1"))
        names = list(self.time_terms)
        mats = np.zeros((len(names), coeffs.m, len(fields), coeffs.m, 2 * k_max + 1))
        for f, (terms, part, _) in enumerate(fields):
            for term in terms:
                mats[names.index(term.t_term), :, f, :, k_max - term.x_freq] += part(term.matrix)
        self.term_matrices = mats.reshape(len(names), coeffs.m, -1)
        self.word_width = min(4 * k_max, n - 1)

    def stage_coefficients(self, t, h) -> np.ndarray:
        """The g_j of :attr:`time_terms` at the RK4 stage times t, t + h/2 and
        t + h of steps from the times ``t`` of the sizes ``h``: (3, len(t), J)."""
        t = np.asarray(t, dtype=float)
        return np.stack([np.stack([g(s) for g in self.time_terms.values()], axis=-1)
                         for s in (t, t + h / 2.0, t + h)])

    def lam_bound(self, t_hi: float) -> float:
        """Stability scale over t in [0, t_hi]: sup ||A|| |xi|max + sup ||B|| +
        eps_par |xi|max^2, each sup a per-term triangle bound, so that it holds
        at every x, and |xi|max the lattice's n_x/2.  :attr:`lam_band` is the
        same scale over the joint band, the norm bound of its generator."""
        ts, m = np.linspace(0.0, max(t_hi, 1e-9), 33), self.coeffs.m
        fields = (self.coeffs.a_terms, self.coeffs.b_terms)
        norms = iter(np.linalg.norm(np.reshape([term.matrix for term in sum(fields, [])],
                                               (-1, m, m)), 2, axis=(-2, -1)))
        sup_a, sup_b = (float(np.max(sum((next(norms) * np.abs(term.g(ts)) for term in terms),
                                         np.zeros(ts.size)))) for terms in fields)
        self.lam_band, lam = (sup_a * xi + sup_b + self.eps_par * xi**2 for xi in
                              (float(np.max(np.abs(self.xi), initial=0.0)), self.n_x / 2.0))
        return lam

    def apply(self, mat: np.ndarray, coeffs_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The generator with real matrix ``mat``, ``sum_j g_j(t) L_j`` at its
        time t, on a band state (m, n_band), written into ``out`` (it must not
        be ``coeffs_hat``): one real product on the (re, im) pairs."""
        np.multiply(coeffs_hat, self._factors, self._center)
        if self._gather is not None:
            np.copyto(self._gather, self._windows)
        np.matmul(mat, self._operand_pairs, self._product_pairs)
        np.multiply(self._product, self._chi, out)
        if self.eps_par:
            out -= np.multiply(self._heat, coeffs_hat, self._product)
        return out

    def word_table(self) -> np.ndarray:
        """Every word of length 0 to 4 in the L_j of :attr:`time_terms`, banded.

        Word (a, b, ...) is the product L_a L_b ..., its last factor applied
        first.  The words come by length, each length in lexicographic order
        of the time terms, and the empty word is the identity.  Entry
        [w, d, q, c, s] takes component c of mode q + s - W to component d of
        mode q, W = :attr:`word_width`, and is zero where that mode is off
        the band.  Each word is applied once, to the C m probes that each sum
        the unit vectors of one component over the modes of one colour
        p mod C, C = min(2W + 1, n_band) (Curtis, Powell & Reid, J. Inst.
        Math. Appl. 13, 1974): a mode's row of a word meets at most one mode
        of each colour, so every entry can be read off the images.
        """
        m, n, k_max = self.coeffs.m, self.xi.size, self.coeffs.x_band
        width, mats = self.word_width, self.term_matrices
        names = list(self.time_terms)
        heat = [self._heat if name == "1" else 0.0 for name in names]

        def apply_term(j, x):
            # L_j on a stack (B, m, n) of band vectors, the products of apply
            buf = np.zeros((len(x), len(self._factors), m, n + 2 * k_max), dtype=complex)
            np.multiply(x[:, None], self._factors, buf[..., k_max:k_max + n])
            windows = np.lib.stride_tricks.sliding_window_view(buf, n, axis=-1)
            return mats[j] @ windows.reshape(len(x), -1, n) * self._chi - heat[j] * x

        colors = min(2 * width + 1, n)
        probes = np.zeros((colors, m, m, n), dtype=complex)
        for c in range(m):
            probes[:, c, c] = np.arange(n) % colors == np.arange(colors)[:, None]
        words = [probes.reshape(1, colors * m, m, n)]
        for _ in range(4):
            images = [apply_term(j, words[-1].reshape(-1, m, n)) for j in range(len(names))]
            words.append(np.stack(images).reshape((-1,) + words[0].shape[1:]))
        images = np.concatenate(words).reshape(-1, colors, m, m, n)  # [w, colour, c, d, q]
        q = np.arange(n)[:, None]
        p = q + np.arange(2 * width + 1) - width  # [q, s]: the source mode
        table = images.transpose(0, 4, 1, 2, 3)[:, q, p % colors]  # [w, q, s, c, d]
        table[:, (p < 0) | (p >= n)] = 0.0
        return table.transpose(0, 4, 1, 3, 2)


def step_rk4(rhs, u: np.ndarray, stages, h: float, out: np.ndarray, work) -> np.ndarray:
    """Classical four-stage explicit step of size ``h`` for ``du/dt = rhs(t, u)``.

    ``stages`` holds what ``rhs`` takes for the times t, t + h/2 and
    t + h, the step's start, middle and end.  ``work`` is five arrays
    shaped like u: the stages go into them by ``rhs(stages[i], v, k)`` and
    the new state into ``out``, which may be u.
    """
    k1, k2, k3, k4, v = work
    # 0-d arrays of u's type stand in for the Python floats, and the outputs
    # go by position: on small bands either costs more than the arithmetic
    d = u.dtype
    half, whole, two, sixth = (np.array(h / 2.0, d), np.array(h, d), np.array(2.0, d),
                               np.array(h / 6.0, d))
    start, middle, end = stages
    rhs(start, u, k1)
    rhs(middle, np.add(u, np.multiply(half, k1, v), v), k2)
    rhs(middle, np.add(u, np.multiply(half, k2, v), v), k3)
    rhs(end, np.add(u, np.multiply(whole, k3, v), v), k4)
    np.add(k1, np.multiply(two, k2, k2), k1)
    np.add(k1, np.multiply(two, k3, k3), k1)
    np.add(k1, k4, k1)
    return np.add(u, np.multiply(sixth, k1, k1), out)


class BandPropagator:
    """One RK4 step of the band as a precomputed banded matrix.

    The generator is linear, ``L(t) = sum_j g_j(t) L_j``, so the step of size
    h from t is a fixed polynomial in L1, L2 and L3, the generator at t,
    t + h/2 and t + h::

        P = I + h/6 (L1 + 4 L2 + L3) + h^2/6 (L2 L1 + L2 L2 + L3 L2)
              + h^3/12 (L2 L2 L1 + L3 L2 L2) + h^4/24 L3 L2 L2 L1

    That is the sum of c_w L_w over the words w of
    :meth:`TruncatedGenerator.word_table`, where each c_w is a product of
    the g_j at the three stage times and 1 for the empty word.  P couples
    modes at most W = ``gen.word_width`` apart, and it has the table's
    layout: a step is ``einsum("dqcs,cqs->dq", P, windows)`` over the
    windows of 2W + 1 modes of the state zero-padded by W modes on each
    side.
    """

    def __init__(self, gen: TruncatedGenerator):
        self._coefficients = gen.stage_coefficients
        table = np.ascontiguousarray(gen.word_table())
        self._shape = table.shape[1:]
        # complex entries as (re, im) pairs, for real coefficient rows
        self._table = table.reshape(len(table), -1).view(float)

    @staticmethod
    def table_bytes(gen: TruncatedGenerator) -> int:
        """Bytes of the word table of ``gen``: 1 + J + J^2 + J^3 + J^4 words
        over J time terms, each (m, n_band, m, 2W + 1) complex."""
        j, m, n = len(gen.time_terms), gen.coeffs.m, gen.xi.size
        return 16 * (1 + j + j**2 + j**3 + j**4) * m * n * m * (2 * gen.word_width + 1)

    def matrices(self, t, h) -> np.ndarray:
        """The propagators of steps from the times ``t`` of the sizes ``h``:
        (len(t), m, n_band, m, 2W + 1)."""
        h = np.asarray(h, dtype=float)[:, None]
        g1, g2, g3 = self._coefficients(t, h[:, 0])  # each [k, j]
        words = [g1 + 4.0 * g2 + g3,
                 np.einsum("ka,kb->kab", g2, g1 + g2) + np.einsum("ka,kb->kab", g3, g2),
                 np.einsum("kb,kac->kabc", g2, np.einsum("ka,kc->kac", g2, g1)
                           + np.einsum("ka,kc->kac", g3, g2)),
                 np.einsum("ka,kb,kc,kd->kabcd", g3, g2, g2, g1)]
        rows = np.concatenate([np.ones((len(h), 1))]
                              + [c * w.reshape(len(h), -1) for c, w in
                                 zip((h / 6.0, h**2 / 6.0, h**3 / 12.0, h**4 / 24.0), words)],
                              axis=1)
        return (rows @ self._table).view(complex).reshape((len(h),) + self._shape)

    def steps(self, t, h):
        """The propagators of the steps from the times ``t`` of the sizes
        ``h`` in turn, formed in chunks of about ``_BLOCK_BYTES``."""
        chunk = max(1, _BLOCK_BYTES // (16 * math.prod(self._shape)))
        for lo in range(0, len(t), chunk):
            yield from self.matrices(t[lo:lo + chunk], h[lo:lo + chunk])


# ---------------------------------------------------------------------------
# Traces and the main loop


# A sub-step h has h Lambda_band <= C_ACC and h omega_max <= C_ACC: RK4 then
# errs by at most C_ACC^4/120 (5.2e-8) per radian the fastest band mode turns,
# and loses at most C_ACC^5/144 (2.2e-9) of its amplitude on the imaginary axis.
C_ACC = 0.05


def _substeps(length, dt: float, scale: float):
    """The fewest equal sub-steps, at least one, with h ``scale`` <= C_ACC
    that cross ``length`` grid steps of size dt, but never more than length."""
    return np.minimum(length, np.maximum(1, np.ceil(length * dt * scale / C_ACC))).astype(int)


def _step_schedule(sample_steps: np.ndarray, dt: float, scale: float):
    """Per interval between the samples its count of sub-steps, and per
    sub-step its start and size in grid steps: k and 1.0 exactly where an
    interval keeps its grid steps."""
    lengths = np.diff(sample_steps)
    counts = _substeps(lengths, dt, scale)
    size = np.repeat(lengths / counts, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    start = np.repeat(sample_steps[:-1], counts) + (np.arange(size.size) - first) * size
    return counts, start, size


def _samples_per_block(blocks: list[np.ndarray], sample_bytes: int, n_lyap: int) -> int:
    """Samples per block of diagnostics, so that its temporaries stay near
    _BLOCK_BYTES: a sample holds ``sample_bytes`` (48 a mode read, for its
    squared moduli, weight, their products and the radius fit's rows, and
    with eps_par > 0 16 m + 8 a mode off the band, for their new values),
    and each of its ``n_lyap`` Lyapunov nodes (a paired band's kept nodes)
    what the band generator and the kernel of ``_lyap_solve_batch`` hold at
    once on the partition ``blocks`` (``_lyap_node_bytes``)."""
    return max(1, _BLOCK_BYTES // (sample_bytes + _lyap_node_bytes(blocks) * n_lyap))


@dataclass
class EnergyTrace:
    times: np.ndarray
    e_r: np.ndarray  # R-weighted energy of v, normalized by its initial value
    e_r_raw: np.ndarray
    norms: np.ndarray  # (n_samples, 5): ||<D>^sigma v(t)||, column j for sigmas[j]
    gevrey_c: np.ndarray
    increments: np.ndarray  # per-sample increments of normalized e_r
    er_mode: str  # multiplier | mollified | skipped
    sigmas: tuple

    def to_csv(self, path) -> None:
        cols = ["t", "e_r_norm", "e_r_raw", "gevrey_c"] + [
            f"norm_sigma_{s:+.6f}" for s in self.sigmas
        ]
        lines = [",".join(cols)]
        for i, t in enumerate(self.times):
            row = [repr(float(t)), repr(float(self.e_r[i])), repr(float(self.e_r_raw[i])),
                   repr(float(self.gevrey_c[i]))]
            row += [repr(float(x)) for x in self.norms[i]]
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class SolveResult:
    dt: float
    # (n_cutoffs, n_samples, m, n_x): states[i] is cutoff i's u at
    # traces[i].times, the last at the horizon
    states: np.ndarray
    traces: list[EnergyTrace]  # one per cutoff
    steps: int  # RK4 steps taken, each a sub-step of a sample interval


# Amplitudes at or below this are rounding residue of the unit-size data and
# carry no radius information.
_NOISE_FLOOR = 1e-14


def gevrey_radius_fit(amplitudes, s: float):
    """Least-squares radius of ``|u_hat| ~ e^{-c <xi>^(1/s)}`` over the tail.

    ``amplitudes`` is a stack (..., N_x/2 + 1) of ``|u_hat|`` by |xi|, folded
    over +-xi (:func:`engine.fold_amplitudes`); returns the fitted c and the
    rms residual, each of the stack's leading shape.  A fit needs at least
    five tail points spanning three decades above ``_NOISE_FLOOR``;
    otherwise the measurement is inconclusive and both are NaN.
    """
    vals = np.asarray(amplitudes, dtype=float)
    peak = np.max(vals, axis=-1, keepdims=True)
    band = (vals > _NOISE_FLOOR) & (vals < 0.5 * peak)
    band[..., 0] = False
    # the rest reads only the |xi| from the first to the last that a tail holds
    ks = np.flatnonzero(np.any(band, axis=tuple(range(band.ndim - 1))))
    ks = np.arange(ks[0], ks[-1] + 1) if ks.size else np.arange(1)
    band, vals = band[..., ks], vals[..., ks]
    count = np.count_nonzero(band, axis=-1)
    lo = np.min(np.where(band, vals, np.inf), axis=-1)
    hi = np.max(np.where(band, vals, 0.0), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        conclusive = (count >= 5) & (np.log10(hi / lo) >= 3.0)
        # closed-form least squares over the band, in centered coordinates
        n = np.maximum(count, 1)[..., None]
        xcoord = np.where(band, bracket(ks.astype(float), 1.0) ** (1.0 / s), 0.0)
        ycoord = np.where(band, -np.log(np.where(band, vals, 1.0)), 0.0)
        dx = np.where(band, xcoord - np.sum(xcoord, axis=-1, keepdims=True) / n, 0.0)
        dy = np.where(band, ycoord - np.sum(ycoord, axis=-1, keepdims=True) / n, 0.0)
        slope = np.sum(dx * dy, axis=-1, keepdims=True) / np.sum(dx * dx, axis=-1, keepdims=True)
        resid = np.sqrt(np.sum((dy - slope * dx) ** 2, axis=-1, keepdims=True) / n)
    return np.where(conclusive, slope[..., 0], np.nan), np.where(conclusive, resid[..., 0], np.nan)


def _evolve(gen: TruncatedGenerator, u0: np.ndarray, n_samples: int, counts: np.ndarray,
            start: np.ndarray, size: np.ndarray, dt: float, prop: BandPropagator | None):
    """The samples (n_cutoffs, n_samples, m, n_x) of ``gen``'s joint band
    evolved from ``u0`` through the schedule of :func:`_step_schedule` by the
    propagators of ``prop``, or by :func:`step_rk4` when it is None.

    Row 0 of the interval's block holds its first state and row i + 1 the
    state after its sub-step i, padded with the propagators' width of zeros
    on each side.  A non-finite entry stays non-finite in every later state:
    an RK4 step adds u with coefficient exactly 1, a propagator row always
    takes its own mode, and in IEEE arithmetic a finite number times inf, or
    inf - inf, is never finite.  So the interval's last state alone is
    checked, and only when it lost finiteness are its rows scanned for the
    first sub-step that did, in any band; the abort names its end, and its
    start as the last healthy time.  Every sample starts as u0, so it takes
    only its cutoff's band, and the separators stay zero.
    """
    t_start, h_step = start * dt, size * dt
    if prop is None:
        g = gen.stage_coefficients(t_start, h_step).transpose(1, 0, 2)[..., None, None]
        stages = g[:, :, 0] * gen.term_matrices[0]
        for j in range(1, len(gen.term_matrices)):
            stages += g[:, :, j] * gen.term_matrices[j]
        work = [np.empty((gen.coeffs.m, gen.xi.size), dtype=complex) for _ in range(5)]
    else:
        props = prop.steps(t_start, h_step)
    states = np.tile(u0, (len(gen.segments), n_samples, 1, 1))
    n_band, width = gen.xi.size, 0 if prop is None else gen.word_width
    block = np.zeros((np.max(counts) + 1, gen.coeffs.m, n_band + 2 * width), dtype=complex)
    rows = block[:, :, width:width + n_band]
    windows = np.lib.stride_tricks.sliding_window_view(block, 2 * width + 1, axis=-1)
    for seg, index in gen.segments:
        rows[0][:, seg] = u0[:, index]
    first = 0  # the interval's first sub-step
    for samples, n in zip(states.swapaxes(0, 1)[1:], counts):
        if prop is None:
            h = float(h_step[first])
            for i in range(n):
                step_rk4(gen.apply, rows[i], stages[first + i], h, rows[i + 1], work)
        else:
            for i in range(n):
                np.einsum("dqcs,cqs->dq", next(props), windows[i], out=rows[i + 1])
        if not np.isfinite(rows[n]).all():
            k = first + int(np.argmax(~np.isfinite(rows[1:n + 1]).all(axis=(1, 2))))
            t = (start[k] + size[k]) * dt
            raise NumericAbortError(
                f"evolution lost finiteness at t = {t:.6g}", last_time=t - h_step[k]
            )
        rows[0] = rows[n]
        first += n
        for sample, (seg, index) in zip(samples, gen.segments):
            sample[:, index] = rows[0][:, seg]
    return states


def pairs_modes(coeffs: SystemCoefficients, u0: np.ndarray) -> bool:
    """Whether a solve of ``u0`` pairs its modes: the system is x-independent
    and real, and u0(-xi) = conj u0(xi) bit for bit."""
    n_x = u0.shape[1]
    pos = np.arange(1, (n_x + 1) // 2)
    return (coeffs.x_band == 0 and coeffs.real_valued
            and np.array_equal(u0[:, n_x - pos], u0[:, pos].conj()))


def solve_cauchy(
    problem: CauchyProblem,
    params: ParameterSet,
    cutoffs,
    eps_par: float = 0.0,
    dt: float | None = None,
    stride: int = 8,
    track_energy: bool = True,
) -> SolveResult:
    """Evolve the truncated (optionally parabolically regularized) problem
    at each cutoff scale h of ``cutoffs``.

    The cutoffs share the grid step dt, set by the lattice's stability scale,
    and the sub-steps between samples, set by the widest band, and one time
    loop advances their bands together.  Each trajectory is sampled every
    ``stride`` grid steps; at each sample the diagnostic weight
    ``e^{<D>^rho (T - a t)}`` produces v, the weighted norms, the R-energy
    (exact multiplier for x-independent coefficients; mollified variant in
    Hoelder mode) and a Gevrey radius fit; with ``track_energy`` false, as
    the studies run, only the norms (``gevrey_c`` stays NaN).  Aborts with the
    last healthy time on NaN/overflow, of the evolution or of its diagnostics.
    """
    coeffs = problem.coeffs
    violations = validate_params(params, c=params.c_spec if params.c_spec is not None else 0.5,
                                 a0=params.a0, eps0=params.eps0)
    if violations:
        raise ConfigError("invalid parameters: " + "; ".join(violations))
    if max(cutoffs) > 1.0 / float(params.ell) + 1e-12:
        raise ConfigError(
            f"cutoff scale h = {max(cutoffs)} above the uniformity range 1/ell = "
            f"{1.0 / float(params.ell)}"
        )
    if eps_par < 0:
        raise ConfigError(f"eps_par = {eps_par} is negative: an anti-dissipative "
                          "regularization that the stability scale does not bound")
    n_x, u0 = problem.g.shape[1], problem.g
    gen = TruncatedGenerator(coeffs, n_x, cutoffs, eps_par, pairs_modes(coeffs, u0))
    lam = max(gen.lam_bound(problem.horizon), 1e-12)
    if dt is None:
        dt = min(0.5 / lam, problem.horizon / 8.0)
    # an infinite Lambda leaves dt = 0, and a tiny dt a step count that no
    # index reaches
    steps = problem.horizon / dt if dt > 0 else math.inf
    if not (math.isfinite(lam) and steps <= np.iinfo(np.intp).max):
        raise ConfigError(f"dt = {dt:.3g}, Lambda = {lam:.3g} (eps_par = {eps_par:.3g}): "
                          f"{steps:.3g} steps are past the index range")
    n_steps = max(1, math.ceil(steps))
    dt = problem.horizon / n_steps
    if dt * lam > 2.5:
        raise ConfigError(f"dt = {dt:.3g} violates the stability budget "
                          f"2.5/Lambda = {2.5 / lam:.3g}")
    # The sub-steps between samples; the longest interval takes the most.
    scale = max(gen.lam_band, *(g.omega_max for g in gen.time_terms.values()))
    longest = min(stride, n_steps)
    most, last = (int(_substeps(n, dt, scale)) for n in (longest, n_steps % longest))
    total = n_steps // longest * most + last
    # The samples of every cutoff (a state each, and a time), the interval's
    # block of band states, the schedule (48 bytes a sub-step as it is formed)
    # and, when stepping, five work states and each sub-step's stage
    # coefficients (24 bytes a time term) and three real stage matrices (24
    # bytes an entry, and as much again while a term is summed in) are held
    # at once; they must fit in physical memory.
    stepping = BandPropagator.table_bytes(gen) > _BLOCK_BYTES
    need = ((math.ceil(n_steps / stride) + 1) * (16 * len(gen.segments) * coeffs.m * n_x + 16)
            + (most + 1 + 5 * stepping) * 16 * coeffs.m
            * (gen.xi.size + (0 if stepping else 2 * gen.word_width))
            + total * (48 + stepping * (24 * len(gen.time_terms) + 48 * gen.term_matrices[0].size)))
    require_memory(need, f"dt = {dt:.3g}: {n_steps} steps")

    # up-front overflow probe for the largest weight in the run
    gevrey_weight(lattice(n_x), float(params.T), float(params.rho), float(params.ell))
    # Off its band a cutoff's generator is -eps_par xi^2, so sample k holds
    # u0 e^{-times[k] eps_par xi^2} there, set with the diagnostics.  The
    # factor is at most 1, so only u0 can make those modes non-finite.
    if not np.isfinite(u0).all():
        raise NumericAbortError(f"evolution lost finiteness at t = {dt:.6g}", last_time=0.0)
    # A sample is taken every stride steps and at the last step: sample k
    # holds the state after sample_steps[k] steps, at time sample_steps[k] dt.
    sample_steps = np.append(np.arange(0, n_steps, stride), n_steps)
    times = sample_steps * dt
    states = _evolve(gen, u0, times.size, *_step_schedule(sample_steps, dt, scale), dt,
                     None if stepping else BandPropagator(gen))
    for u, (_, index), (cols, mirror) in zip(states, gen.segments, gen.mirrored):
        u[:, :, mirror] = u[:, :, index[cols]].conj()

    if not (track_energy and coeffs.x_band == 0):
        er_mode = "skipped"
    elif coeffs.t_regularity == "holder" and params.delta is not None:
        er_mode = "mollified"
    else:
        er_mode = "multiplier"
    traces = [_energy_trace(problem, params, gen, seg, index, mirror, u, times, er_mode,
                            track_energy)
              for u, (seg, index), (_, mirror) in zip(states, gen.segments, gen.mirrored)]
    return SolveResult(dt=dt, states=states, traces=traces, steps=total)


def _energy_trace(problem: CauchyProblem, params: ParameterSet, gen: TruncatedGenerator,
                  seg: slice, index: np.ndarray, mirror: np.ndarray, states: np.ndarray,
                  times: np.ndarray, er_mode: str, fit: bool) -> EnergyTrace:
    """The diagnostics of one cutoff's samples ``states``, at ``times``, whose
    band is the segment ``seg`` of ``gen``'s joint band and sits at ``index``
    of a lattice state, its mirrors, left out of a paired band, at
    ``mirror``; with eps_par > 0 they first set the off-band modes.  With
    ``fit`` false ``gevrey_c`` stays NaN.

    They run over blocks of samples, each block's states read once for their
    squared moduli q.  One product of q w^2 against ``table`` gives the
    squared norms of the five orders sigma (with nu = 0 three of them
    coincide) and the off-band R-energy, R = I/2 there.  A block whose
    products leave the double range aborts at its first such sample.  A
    paired solve's states are conjugate-symmetric, so they read FFT positions
    0 .. N_x/2 alone, each xi > 0 twice (its row of ``table`` and its R v
    doubled), and that half of q is already folded for the radius fit.
    """
    coeffs, n_x = problem.coeffs, problem.g.shape[1]
    big_t, a = float(params.T), float(params.a)
    rho, ell = float(params.rho), float(params.ell)
    n_read = n_x // 2 + 1 if gen.paired else n_x
    lat = lattice(n_x)
    xi = lat[:n_read]
    mult = 1.0 + gen.paired * (xi > 0)
    off_index = np.setdiff1d(np.arange(n_x), np.concatenate((index, mirror)))
    # R is solved on the band, where chi > 0, and R(-xi) = conj R(xi) gives
    # the same energy; elsewhere M = -a <xi>^rho I, so R = I/2.
    r_xi, r_chi2 = gen.xi[seg], gen.chi[seg] ** 2

    def r_generator(t):
        # damped generator of the cutoff problem for x-independent
        # coefficients, with the running window tau = T - a t in H_N; an
        # array t of shape (n, 1) gives one row of band generators per time
        return damped_generator(coeffs, replace(params, tau=big_t - a * t),
                                t, 0.0, r_xi, r_chi2)

    if er_mode == "mollified":
        delta = float(params.delta)
        widths = bracket(xi, ell) ** -delta
        dt_path, pad = float(np.min(widths)) / 5.0, float(np.max(widths)) * 1.05
        path_ts = np.arange(-pad, problem.horizon + pad + dt_path, dt_path)
        r_path = _lyap_solve_batch(*r_generator(path_ts[:, None]), coeffs.blocks)
        # (n_samples, n_active, m, m)
        molly_values = mollify_path(path_ts, r_path, bracket(r_xi, ell), delta, times)

    n_samples, nu = times.size, params.nu
    sigmas = (-nu, (rho - 1.0) / 2.0, rho / 2.0, nu, 3.0 * nu)
    table = np.zeros((n_read, len(sigmas) + 1))
    table[:, :-1] = bracket(xi[:, None], ell) ** (2.0 * np.asarray(sigmas))
    table[off_index[off_index < n_read], -1] = 0.5
    table *= mult[:, None]
    norms = np.empty((n_samples, len(sigmas)))
    e_r_arr = np.full(n_samples, np.nan)
    gevrey_c = np.full(n_samples, np.nan)
    sample_bytes = 48 * n_read + ((16 * coeffs.m + 8) * off_index.size if gen.eps_par else 0)
    block = _samples_per_block(coeffs.blocks, sample_bytes,
                               r_xi.size if er_mode == "multiplier" else 0)
    for lo in range(0, n_samples, block):
        blk = slice(lo, lo + block)
        if gen.eps_par:
            states[blk, :, off_index] = problem.g[:, off_index] * np.exp(
                -gen.eps_par * lat[off_index] ** 2 * times[blk, None, None])
        u = states[blk, ..., :n_read]
        weight = gevrey_weight(xi, big_t - a * times[blk, None], rho, ell)
        q = squared_moduli(u)
        sums = (q * weight * weight) @ table
        lost = ~np.isfinite(sums).all(axis=1)
        if lost.any():
            k = lo + int(np.argmax(lost))
            raise NumericAbortError(
                f"the weighted norms left the double range at t = {times[k]:.6g}",
                last_time=float(times[max(k - 1, 0)]))
        norms[blk] = np.sqrt(sums[:, :-1])
        if er_mode != "skipped":
            # the band's Re <R v, v> with its solved R, as the dot product of
            # v and R v over their real and imaginary parts
            r_band = (_lyap_solve_batch(*r_generator(times[blk, None]), coeffs.blocks)
                      if er_mode == "multiplier" else molly_values[blk])
            # contiguous, so that its real view below exists also when m = 1
            v_band = np.ascontiguousarray(
                (u[:, :, index] * weight[:, None, index]).transpose(0, 2, 1))
            rv = np.einsum("bnij,bnj->bni", r_band, v_band)
            rv *= mult[index, None]
            e_r_arr[blk] = np.einsum("bi,bi->b", v_band.reshape(len(u), -1).view(float),
                                     rv.reshape(len(u), -1).view(float)) + sums[:, -1]
        if fit and problem.gevrey_s is not None:
            gevrey_c[blk] = gevrey_radius_fit(np.sqrt(q) if gen.paired else fold_amplitudes(q),
                                              problem.gevrey_s)[0]

    base = e_r_arr[0] if np.isfinite(e_r_arr[0]) and e_r_arr[0] > 0 else 1.0
    e_r_norm = e_r_arr / base
    increments = np.diff(e_r_norm, prepend=e_r_norm[0])
    return EnergyTrace(times=times, e_r=e_r_norm, e_r_raw=e_r_arr, norms=norms,
                       gevrey_c=gevrey_c, increments=increments, er_mode=er_mode,
                       sigmas=sigmas)


# ---------------------------------------------------------------------------
# A priori estimate residuals and studies


@dataclass
class EnergyResidualReport:
    c_first: float  # empirical constant in the sigma = -nu estimate
    c_second: float  # empirical constant in the sigma = (rho-1)/2 estimate


def energy_residual(trace: EnergyTrace) -> EnergyResidualReport:
    """Empirical constants of the two a priori estimates along a run:
    ``max_t LHS(t) / ||<D>^nu v(0)||`` for LHS the sigma = -nu and the
    sigma = (rho-1)/2 norm of v."""
    rhs0 = trace.norms[0, 3]  # nu at t=0
    c1 = float(np.max(trace.norms[:, 0]) / rhs0)  # -nu
    c2 = float(np.max(trace.norms[:, 1]) / rhs0)  # (rho-1)/2
    return EnergyResidualReport(c_first=c1, c_second=c2)


# Largest relative spread of the estimate constants, and of the normalized
# curves, that still counts as uniform in h or in eps_par: the tolerance of
# the uniformity criteria.
_SPREAD_TOL = 0.10


@dataclass
class HStudyResult:
    h_values: list
    constants_first: list
    constants_second: list
    spread_first: float
    spread_second: float
    curve_spread: float
    passed: bool


def h_uniformity_study(
    problem: CauchyProblem,
    params: ParameterSet,
    h_list,
    dt: float | None = None,
) -> HStudyResult:
    """Empirical estimate constants across cutoff scales; pass if every spread
    is at most ``_SPREAD_TOL``.

    Besides the per-run constants (max over time), the whole normalized
    curves ``t -> LHS(t) / RHS(0)`` are compared across h so that
    h-dependence hiding below the maximum is still caught.
    """
    # one solve evolves every h; they share the grid and the sample times, so
    # the curves stack as they are
    traces = solve_cauchy(problem, params, h_list, dt=dt, track_energy=False).traces
    reps = [energy_residual(trace) for trace in traces]
    cs1, cs2 = [rep.c_first for rep in reps], [rep.c_second for rep in reps]
    stackc = np.stack([trace.norms[:, 0] / trace.norms[0, 3] for trace in traces])
    curve_spread = float(np.max(stackc.max(axis=0) - stackc.min(axis=0)) / np.max(stackc))
    spread1, spread2 = ((max(cs) - min(cs)) / min(cs) for cs in (cs1, cs2))
    return HStudyResult(
        h_values=list(h_list), constants_first=cs1, constants_second=cs2,
        spread_first=float(spread1), spread_second=float(spread2), curve_spread=curve_spread,
        passed=all(spread <= _SPREAD_TOL for spread in (spread1, spread2, curve_spread)),
    )


# First-order self-convergence in eps_par, within 0.3 either way: the
# regularization's error is O(eps_par) on the smooth data of the studies.
_RATE_WINDOW = (0.7, 1.3)


@dataclass
class ParabolicStudyResult:
    eps_values: list
    self_differences: list
    rate: float
    sup_norms: list
    energy_spread: float
    passed_rate: bool
    passed_uniform: bool


def _l2(u) -> float:
    """Plain l2 norm of a state over all its components and modes."""
    return float(np.sqrt(np.sum(np.abs(u) ** 2)))


def parabolic_study(
    problem: CauchyProblem,
    params: ParameterSet,
    eps_list,
    dt: float | None = None,
    h: float | None = None,
) -> ParabolicStudyResult:
    """Self-convergence in the parabolic regularization strength.

    Runs each eps and eps/2, reports ``||u_eps - u_{eps/2}||`` at the final
    time, the fitted convergence rate, and the spread of the sup-in-time
    plain norms (uniform-in-eps energy boundedness).  The rate passes inside
    ``_RATE_WINDOW`` and the spread at most ``_SPREAD_TOL``.
    """
    if h is None:
        h = 1.0 / float(params.ell)
    diffs = []
    sups = []
    for eps in eps_list:
        r1 = solve_cauchy(problem, params, (h,), eps_par=eps, dt=dt,
                          track_energy=False, stride=16).states[0]
        r2 = solve_cauchy(problem, params, (h,), eps_par=eps / 2.0, dt=dt,
                          track_energy=False, stride=16).states[0]
        diffs.append(_l2(r1[-1] - r2[-1]))
        sups.append(max(_l2(u) for u in r1))
    rate = float(line_fit(np.log(eps_list), np.log(np.maximum(diffs, 1e-300)))[0])
    spread = (max(sups) - min(sups)) / min(sups)
    return ParabolicStudyResult(
        eps_values=list(eps_list),
        self_differences=[float(d) for d in diffs],
        rate=rate,
        sup_norms=[float(s) for s in sups],
        energy_spread=float(spread),
        passed_rate=bool(_RATE_WINDOW[0] <= rate <= _RATE_WINDOW[1]),
        passed_uniform=bool(spread <= _SPREAD_TOL),
    )
