"""Spectrally truncated Cauchy evolution with energy diagnostics.

The truncated system is evolved in the original variables by classical RK4;
the time-dependent Gevrey weight ``e^{<D>^rho (T - a t)}`` is applied only to
snapshots (mathematically identical for diagnostics, and it keeps symbol
quantization out of the time loop).  The symmetrizer energy is rebuilt at
every sample time with the running window ``tau = T - a t``; when the plan
has a mollifier exponent delta (Hoelder mode) the mollified symmetrizer takes
its place.  The parameters are the planner's, admissible as planned
(:func:`planner.plan` is the one check), and a solve does not re-check them.

Only the active band, the modes with chi(h xi) > 0, goes through RK4.  Off
it chi = 0 and the generator is ``-eps_par xi^2``, so a mode there at time t
is exactly ``u0 e^{-t eps_par xi^2}``; likewise ``M = -a <xi>^rho I`` there,
so ``R = I/2`` exactly and Lyapunov solves run on band nodes only.  When
eps_par = 0 the off-band modes are u0's; otherwise they are that closed form
(:func:`_off_band`), evaluated only where a state is read.  With h = 0,
chi = 1 everywhere and the band is the whole lattice.

An x-independent real system evolves each mode alone, by the conjugate of
its mirror's generator.  So a solve of data with u0(-xi) = conj u0(xi) bit
for bit (:func:`pairs_modes`) evolves each band's xi >= 0 and -n_x/2 alone
and writes each xi < 0 band mode as the conjugate of its mirror.  Its
diagnostics read FFT positions 0 .. n_x/2 alone, each xi > 0 counted twice.

Every solve is sampled at the ``N_SAMPLES + 1`` times k horizon / N_SAMPLES.
The lattice's stability scale sets the grid step dt, the step count is
rounded up to a multiple of N_SAMPLES, so that each sample interval holds
the same ``per`` grid steps, and the band crosses every interval in the same
sub-steps (:func:`_substeps`), set by its own scale and the time terms' top
frequency, and never more of them than grid steps.

One solve takes several cases, each a cutoff h with its own eps_par, as the
h-uniformity study (several h) and the parabolic study (several eps_par) do.
They share the grid and the sub-steps, the finest that any case needs, and
their bands lie end to end in one joint band, separated by ``coeffs.x_band``
modes where xi = 0, chi = 0 and the heat term is 0.  No product of the
generator crosses a separator, so one time loop evolves every case, on and
off its band, as its own solve would (bit for bit where the grid and the
sub-steps are the same), in one sequence of steps instead of one per case.

The (joint) band takes one of two step paths, which :func:`step_path`
chooses by the band's size alone.  The generator is linear, so an RK4 step
is a fixed polynomial in it, and on a small band :class:`BandPropagator`
precomputes each step as one banded matrix: the products of the generator's
per-time-term parts (words of length 1 to 4) are applied once per solve to
coloured unit vectors, and each step's matrix is their combination with that
step's coefficients and size, one real product per chunk of steps.  A step
is then one ``einsum`` against the sliding windows of the zero-padded state.
That path is taken when the word table fits in ``_BLOCK_BYTES``.  A larger
band takes :class:`RK4Stepping`: :func:`step_rk4` on the generator, each
stage a single product with that stage's matrix ``sum_j g_j L_j``
(:class:`TruncatedGenerator`), a real matrix against the (re, im) pairs of
the state.  Both paths take the g_j at the stage times from
:meth:`TruncatedGenerator.stage_coefficients`, and both have the same three
members: ``width``, the zero padding of the state; ``need(total)``, the
bytes the path adds for ``total`` sub-steps; and ``start(t, h)``, which
returns the ``advance`` that crosses one sample interval.  So neither the
time loop nor the solve's memory check asks which path it holds.

A state is a complex (m, n_x) array in FFT order, as in
:mod:`hypersym.engine`.  A solve keeps only its joint band's samples, one
(n_samples, m, n_band) array whose last row is the final step, and
:meth:`SolveResult.lattice_states` assembles a block of a cutoff's lattice
states from them where one is read: u0 off the band (the closed form when
eps_par > 0), the band, and in a paired solve the mirrors' conjugates;
:meth:`SolveResult.lattice_blocks` reads every sample's, ``_BLOCK_BYTES`` at a time.

The band advances one sample interval at a time (:func:`_evolve`), and
records only the sampled band states.  A buffered :func:`step_rk4` repeats
the operations of the plain allocating RK4 step (the tests' reference) in
order, so its roundings are that step's.  On the propagator path an abort
names the first state that leaves the double range; a stepped band can lose
finiteness a few steps sooner, when an RK4 stage overflows first.  Each
cutoff's samples are diagnosed on their own (:func:`_energy_trace`), when the
result's traces are first read, over blocks of samples that form no lattice
state, and a mollified energy solves its R path a chunk at a time into
:func:`mollify_path`'s ring; the h-uniformity study reads each cutoff's
weighted norms alone.  The
result owns the energy's allowances, per grid step and per sample, that the
monotone-energy gate holds the increments to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from hypersym.coeffs import SystemCoefficients, time_function
from hypersym.engine import fold_amplitudes, lattice, squared_moduli
from hypersym.errors import ConfigError, NumericAbortError, require_memory
from hypersym.matkernel import _BLOCK_BYTES, line_fit
from hypersym.planner import ParameterSet
from hypersym.symmetrizer import (
    _lyap_node_bytes,
    _lyap_solve_batch,
    _mollifier_path,
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
    # row c holds the phases that the c-th draw of half - 1 numbers gives,
    # formed in place: the output is the only complex array
    view = coeffs[:, 1:half]
    np.multiply(2j * math.pi, rng.random((m, half - 1)), out=view)
    np.exp(view, out=view)
    np.multiply(amp[1:half], view, out=view)
    coeffs[:, 0] = amp[0]
    # negative frequencies mirror with conjugate phases; the top mode stays 0
    np.conjugate(coeffs[:, n_x - half - 1:0:-1], out=coeffs[:, half + 1:])
    return coeffs


@dataclass
class CauchyProblem:
    """Initial data and its Gevrey certificate (s, c0) for one evolution run."""

    coeffs: SystemCoefficients
    g: np.ndarray  # complex (m, n_x), FFT order
    horizon: float
    gevrey_s: float | None = None
    gevrey_c0: float | None = None


# ---------------------------------------------------------------------------
# Spatial operator (term-shift application of the truncated generator)


class TruncatedGenerator:
    """Applies ``chi(hD) (i A(t,x,D) + B(t,x)) chi(hD) - eps_par |D|^2`` on
    the bands of several cutoffs h at once, each with its own :attr:`eps_par`.

    A cutoff's band is the modes with chi(h xi) > 0, the contiguous range
    |xi| < 1/h (chi decreases in |xi|); with h = 0, chi = 1 and the band is
    the whole lattice.  ``paired`` keeps of each band its xi >= 0 and the
    modes without a mirror -xi; :attr:`mirrored` holds, per cutoff, the
    columns of its segment whose mirrors are left out and their FFT positions.
    The bands of ``cutoffs`` lie end to end in one joint band, each but the
    last followed by K = ``coeffs.x_band`` separator modes where xi = 0,
    chi = 0 and the heat term is 0.  Band states are (m, n_band) arrays:
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
    (f, d, K - k) holding component d of harmonic k of field f.
    """

    def __init__(self, coeffs: SystemCoefficients, n_x: int, cutoffs, eps_par,
                 paired: bool = False):
        self.coeffs = coeffs
        self.n_x = n_x
        self.paired = paired
        self.eps_par = np.broadcast_to(np.asarray(eps_par, dtype=float), (len(cutoffs),))
        self.eps_max = float(np.max(self.eps_par))
        k_max = coeffs.x_band
        lat = np.arange(-(n_x // 2), n_x - n_x // 2, dtype=float)
        # paired, a band keeps its xi >= 0 and the modes without a mirror -xi
        kept = (lat >= 0) | (-lat > lat[-1]) if paired else True
        # each cutoff's band, the modes with chi(h xi) > 0, then K separator
        # modes; the buffer's padding stands in for the last band's
        xis, chis, heats, self.segments, self.mirrored, lo = [], [], [], [], [], 0
        for h, eps in zip(cutoffs, self.eps_par):
            chi = smooth_cutoff(float(h) * lat)  # exactly 1 everywhere when h = 0
            band = (chi > 0) & kept
            xi, chi = lat[band], chi[band]
            xis += [xi, np.zeros(k_max)]
            chis += [chi, np.zeros(k_max)]
            heats += [eps * xi**2, np.zeros(k_max)]
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
        self._heat = np.concatenate(heats)[:lo - k_max].astype(complex)
        # L(t) = sum_j g_j(t) L_j over the distinct time terms, the heat term
        # in the constant one, which a generator without terms also has
        self.time_terms = {term.t_term: term.g for terms, *_ in fields for term in terms}
        if self.eps_max or not self.time_terms:
            self.time_terms.setdefault("1", time_function("1"))
        names = list(self.time_terms)
        mats = np.zeros((len(names), coeffs.m, len(fields), coeffs.m, 2 * k_max + 1))
        for f, (terms, part, _) in enumerate(fields):
            for term in terms:
                mats[names.index(term.t_term), :, f, :, k_max - term.x_freq] += part(term.matrix)
        self.term_matrices = mats.reshape(len(names), coeffs.m, -1)

    def stage_coefficients(self, t, h: float) -> np.ndarray:
        """The g_j of :attr:`time_terms` at the RK4 stage times t, t + h/2 and
        t + h of the steps of size ``h`` from the times ``t``: (3, len(t), J)."""
        t = np.asarray(t, dtype=float)
        return np.stack([np.stack([g(s) for g in self.time_terms.values()], axis=-1)
                         for s in (t, t + h / 2.0, t + h)])

    def lam_bound(self, t_hi: float) -> float:
        """Stability scale over t in [0, t_hi]: sup ||A|| |xi|max + sup ||B|| +
        max eps_par |xi|max^2, each sup a per-term triangle bound, so that it
        holds at every x, and |xi|max the lattice's n_x/2.  :attr:`lam_band`
        is the same scale over the joint band, a norm bound of its generator."""
        ts, m = np.linspace(0.0, max(t_hi, 1e-9), 33), self.coeffs.m
        fields = (self.coeffs.a_terms, self.coeffs.b_terms)
        norms = iter(np.linalg.norm(np.reshape([term.matrix for term in sum(fields, [])],
                                               (-1, m, m)), 2, axis=(-2, -1)))
        sup_a, sup_b = (float(np.max(sum((next(norms) * np.abs(term.g(ts)) for term in terms),
                                         np.zeros(ts.size)))) for terms in fields)
        self.lam_band, lam = (sup_a * xi + sup_b + self.eps_max * xi**2 for xi in
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
        if self.eps_max:
            out -= np.multiply(self._heat, coeffs_hat, self._product)
        return out


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


class RK4Stepping:
    """The band stepped by :func:`step_rk4` on the generator, each stage a
    single product with that stage's matrix ``sum_j g_j L_j``
    (:meth:`TruncatedGenerator.apply`).  Every sub-step's stage matrices are
    formed at the start, and the band needs no zero padding."""

    width = 0

    def __init__(self, gen: TruncatedGenerator):
        self.gen = gen

    def need(self, total: int) -> int:
        """Bytes the path adds for ``total`` sub-steps: five work states and
        each sub-step's stage coefficients (24 bytes a time term) and three
        real stage matrices (24 bytes an entry, and as much again while a
        term is summed in)."""
        return (5 * 16 * self.gen.coeffs.m * self.gen.xi.size + total
                * (24 * len(self.gen.time_terms) + 48 * self.gen.term_matrices[0].size))

    def start(self, t, h: float):
        """``advance(rows, windows, first)`` for the sub-steps of size ``h``
        from the times ``t``: it steps ``rows[i]`` into ``rows[i + 1]`` by
        sub-step ``first + i``, for every row but the last (the band has no
        padding, and ``windows`` goes unread)."""
        gen = self.gen
        g = gen.stage_coefficients(t, h).transpose(1, 0, 2)[..., None, None]
        stages = g[:, :, 0] * gen.term_matrices[0]
        for j in range(1, len(gen.term_matrices)):
            stages += g[:, :, j] * gen.term_matrices[j]
        work = [np.empty((gen.coeffs.m, gen.xi.size), dtype=complex) for _ in range(5)]

        def advance(rows, windows, first):
            for i in range(len(rows) - 1):
                step_rk4(gen.apply, rows[i], stages[first + i], h, rows[i + 1], work)

        return advance


class BandPropagator:
    """One RK4 step of the band as a precomputed banded matrix.

    The generator is linear, ``L(t) = sum_j g_j(t) L_j``, so the step of size
    h from t is a fixed polynomial in L1, L2 and L3, the generator at t,
    t + h/2 and t + h::

        P = I + h/6 (L1 + 4 L2 + L3) + h^2/6 (L2 L1 + L2 L2 + L3 L2)
              + h^3/12 (L2 L2 L1 + L3 L2 L2) + h^4/24 L3 L2 L2 L1

    That is the sum of c_w L_w over the words w of :meth:`word_table`, where
    each c_w is a product of the g_j at the three stage times and 1 for the
    empty word.  P couples modes at most W = :attr:`width` apart, and it has
    the table's layout: a step is ``einsum("dqcs,cqs->dq", P, windows)`` over
    the windows of 2W + 1 modes of the state zero-padded by W modes on each
    side.  The table is built when first used, by :meth:`start` in a solve.
    """

    def __init__(self, gen: TruncatedGenerator):
        self.gen = gen
        # a product of up to four L_j couples modes at most 4K apart
        self.width = min(4 * gen.coeffs.x_band, gen.xi.size - 1)
        self._shape = (gen.coeffs.m, gen.xi.size, gen.coeffs.m, 2 * self.width + 1)

    def table_bytes(self) -> int:
        """Bytes of the word table: 1 + J + J^2 + J^3 + J^4 words over the J
        time terms, each (m, n_band, m, 2W + 1) complex."""
        return 16 * sum(len(self.gen.time_terms) ** k for k in range(5)) * math.prod(self._shape)

    def need(self, total: int) -> int:
        """Bytes the path adds for ``total`` sub-steps: the word table, 4 times
        it while built, and a chunk of propagators (at most every sub-step's)."""
        return 4 * self.table_bytes() + min(_BLOCK_BYTES, total * 16 * math.prod(self._shape))

    def word_table(self) -> np.ndarray:
        """Every word of length 0 to 4 in the L_j of the generator's
        :attr:`~TruncatedGenerator.time_terms`, banded.

        Word (a, b, ...) is the product L_a L_b ..., its last factor applied
        first.  The words come by length, each length in lexicographic order
        of the time terms, and the empty word is the identity.  Entry
        [w, d, q, c, s] takes component c of mode q + s - W to component d of
        mode q, W = :attr:`width`, and is zero where that mode is off
        the band.  Each word is applied once, to the C m probes that each sum
        the unit vectors of one component over the modes of one colour
        p mod C, C = min(2W + 1, n_band) (Curtis, Powell & Reid, J. Inst.
        Math. Appl. 13, 1974): a mode's row of a word meets at most one mode
        of each colour, so every entry can be read off the images.
        """
        gen = self.gen
        m, n, k_max = gen.coeffs.m, gen.xi.size, gen.coeffs.x_band
        width, mats = self.width, gen.term_matrices
        heat = [gen._heat if name == "1" else 0.0 for name in gen.time_terms]

        def apply_term(j, x):
            # L_j on a stack (B, m, n) of band vectors, the products of apply
            buf = np.zeros((len(x), len(gen._factors), m, n + 2 * k_max), dtype=complex)
            np.multiply(x[:, None], gen._factors, buf[..., k_max:k_max + n])
            windows = np.lib.stride_tricks.sliding_window_view(buf, n, axis=-1)
            return mats[j] @ windows.reshape(len(x), -1, n) * gen._chi - heat[j] * x

        colors = min(2 * width + 1, n)
        probes = np.zeros((colors, m, m, n), dtype=complex)
        for c in range(m):
            probes[:, c, c] = np.arange(n) % colors == np.arange(colors)[:, None]
        words = [probes.reshape(1, colors * m, m, n)]
        for _ in range(4):
            images = [apply_term(j, words[-1].reshape(-1, m, n)) for j in range(len(heat))]
            words.append(np.stack(images).reshape((-1,) + words[0].shape[1:]))
        images = np.concatenate(words).reshape(-1, colors, m, m, n)  # [w, colour, c, d, q]
        q = np.arange(n)[:, None]
        p = q + np.arange(2 * width + 1) - width  # [q, s]: the source mode
        table = images.transpose(0, 4, 1, 2, 3)[:, q, p % colors]  # [w, q, s, c, d]
        table[:, (p < 0) | (p >= n)] = 0.0
        return table.transpose(0, 4, 1, 3, 2)

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """:meth:`word_table`, a row of (re, im) pairs a word, for real
        coefficient rows."""
        table = np.ascontiguousarray(self.word_table())
        return table.reshape(len(table), -1).view(float)

    def matrices(self, t, h: float) -> np.ndarray:
        """The propagators of the steps of size ``h`` from the times ``t``:
        (len(t), m, n_band, m, 2W + 1)."""
        g1, g2, g3 = self.gen.stage_coefficients(t, h)  # each [k, j]
        words = [g1 + 4.0 * g2 + g3,
                 np.einsum("ka,kb->kab", g2, g1 + g2) + np.einsum("ka,kb->kab", g3, g2),
                 np.einsum("kb,kac->kabc", g2, np.einsum("ka,kc->kac", g2, g1)
                           + np.einsum("ka,kc->kac", g3, g2)),
                 np.einsum("ka,kb,kc,kd->kabcd", g3, g2, g2, g1)]
        rows = np.concatenate([np.ones((len(t), 1))]
                              + [c * w.reshape(len(t), -1) for c, w in
                                 zip((h / 6.0, h**2 / 6.0, h**3 / 12.0, h**4 / 24.0), words)],
                              axis=1)
        return (rows @ self._table).view(complex).reshape((len(t),) + self._shape)

    def start(self, t, h: float):
        """``advance(rows, windows, first)`` for the sub-steps of size ``h``
        from the times ``t``: it steps ``rows[i]`` into ``rows[i + 1]`` by the
        next sub-step's propagator on ``windows[i]``, the windows of the
        padded block that holds the rows, for every row but the last.  The
        word table is built here, and the propagators formed in chunks of
        about ``_BLOCK_BYTES``."""
        # a propagator holds the bytes of a row of the table, which this
        # first read of it builds
        chunk = max(1, _BLOCK_BYTES // self._table[0].nbytes)

        def steps():
            # no reference to a chunk outlives its last step, so that no two
            # chunks are held at once
            for lo in range(0, len(t), chunk):
                yield from self.matrices(t[lo:lo + chunk], h)

        props = steps()

        def advance(rows, windows, first):
            for i in range(len(rows) - 1):
                np.einsum("dqcs,cqs->dq", next(props), windows[i], out=rows[i + 1])

        return advance


def step_path(gen: TruncatedGenerator) -> RK4Stepping | BandPropagator:
    """The step path of ``gen``'s band: its propagators when their word table
    fits in ``_BLOCK_BYTES``, else RK4 steps on the generator."""
    prop = BandPropagator(gen)
    return prop if prop.table_bytes() <= _BLOCK_BYTES else RK4Stepping(gen)


# ---------------------------------------------------------------------------
# Traces and the main loop


# A sub-step h has h Lambda_band <= C_ACC and h omega_max <= C_ACC: RK4 then
# errs by at most C_ACC^4/120 (5.2e-8) per radian the fastest band mode turns,
# and loses at most C_ACC^5/144 (2.2e-9) of its amplitude on the imaginary axis.
C_ACC = 0.05


# Every solve is sampled at the N_SAMPLES + 1 times k horizon / N_SAMPLES:
# at the default n_lattice 256 that is about 8 grid steps an interval.
N_SAMPLES = 48


def _substeps(per: int, dt: float, scale: float) -> int:
    """The fewest equal sub-steps, at least one, with h ``scale`` <= C_ACC
    that cross ``per`` grid steps of size dt, but never more than per."""
    return min(per, max(1, math.ceil(per * dt * scale / C_ACC)))


def _samples_per_block(blocks: list[np.ndarray], sample_bytes: int, n_lyap: int) -> int:
    """Samples per block of diagnostics, so that its temporaries stay near
    _BLOCK_BYTES: a sample holds ``sample_bytes`` (48 a mode read, for its
    squared moduli, weight, their products and the radius fit's rows, and
    with eps_par > 0 16 m + 8 a mode read off the band, for its closed form),
    and each of its ``n_lyap`` Lyapunov nodes (a paired band's kept nodes)
    what the band generator and the kernel of ``_lyap_solve_batch`` hold at
    once on the partition ``blocks`` (``_lyap_node_bytes``)."""
    return max(1, _BLOCK_BYTES // (sample_bytes + _lyap_node_bytes(blocks) * n_lyap))


@dataclass
class EnergyTrace:
    times: np.ndarray
    e_r_raw: np.ndarray  # R-weighted energy of v, NaN where skipped
    norms: np.ndarray  # (n_samples, 5): ||<D>^sigma v(t)||, column j for sigmas[j]
    gevrey_c: np.ndarray
    er_mode: str  # multiplier | mollified | skipped
    sigmas: tuple

    @property
    def e_r(self) -> np.ndarray:
        """:attr:`e_r_raw` over its initial value where that is finite and > 0."""
        base = self.e_r_raw[0]
        return self.e_r_raw / (base if np.isfinite(base) and base > 0 else 1.0)

    @property
    def increments(self) -> np.ndarray:
        """The per-sample increments of :attr:`e_r`, the first 0."""
        return np.diff(self.e_r, prepend=self.e_r[0])

    @property
    def estimate_curves(self) -> np.ndarray:
        """The two a priori estimates' curves ``||<D>^sigma v(t)|| /
        ||<D>^nu v(0)||`` for sigma = -nu and (rho-1)/2: (n_samples, 2).
        Their maxima over time are the run's empirical estimate constants."""
        return self.norms[:, :2] / self.norms[0, 3]

    def to_csv(self, path) -> None:
        cols = ["t", "e_r_norm", "e_r_raw", "gevrey_c"] + [f"norm_sigma_{s:+.6f}"
                                                           for s in self.sigmas]
        rows = np.column_stack([self.times, self.e_r, self.e_r_raw, self.gevrey_c, self.norms])
        lines = [",".join(cols)] + [",".join(repr(float(x)) for x in row) for row in rows]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class SolveResult:
    """A solve's band samples and energy allowances; its traces are diagnosed
    when first read, its lattice states a block of samples at a time where read."""
    problem: CauchyProblem
    params: ParameterSet
    dt: float
    per: int  # grid steps of dt between two samples
    times: np.ndarray  # the sample times, the last the horizon
    band: np.ndarray  # (n_samples, m, n_band): the joint band of gen at times
    steps: int  # RK4 steps taken, each a sub-step of a sample interval
    gen: TruncatedGenerator

    @property
    def eta(self) -> float:
        """The energy's allowance per grid step: dt^2 + 1e-8."""
        return self.dt**2 + 1e-8

    @property
    def sample_eta(self) -> float:
        """The energy's allowance per sample: eta at the sub-step size, for
        each RK4 sub-step between two samples."""
        sub = self.problem.horizon / self.steps
        return (sub**2 + 1e-8) * (self.steps // (len(self.times) - 1))

    @functools.cached_property
    def traces(self) -> list[EnergyTrace]:
        """Every cutoff's diagnostics in full, in the order of the cutoffs."""
        return [_energy_trace(self, i, True) for i in range(len(self.gen.segments))]

    def lattice_states(self, i: int, samples=slice(None)) -> np.ndarray:
        """Cutoff i's lattice states (b, m, n_x) at ``times[samples]``:
        u0 off its band, or the closed form :func:`_off_band` when its eps_par
        is > 0, its segment of the band samples at its FFT positions and,
        paired, the conjugates of those at their mirrors."""
        (seg, index), (cols, mirror) = self.gen.segments[i], self.gen.mirrored[i]
        band, times, eps = self.band[samples], self.times[samples], self.gen.eps_par[i]
        u0 = self.problem.g
        states = (_off_band(u0, eps, times, slice(None)) if eps
                  else np.repeat(u0[None], len(times), axis=0))
        states[..., index] = band[..., seg]
        states[..., mirror] = states[..., index[cols]].conj()
        return states

    def lattice_blocks(self, i: int):
        """Cutoff i's lattice states at every sample time, in blocks of at
        most ``_BLOCK_BYTES`` (one sample when a state alone is larger)."""
        block = max(1, _BLOCK_BYTES // (16 * self.problem.g.size))
        for lo in range(0, self.times.size, block):
            yield self.lattice_states(i, slice(lo, lo + block))


def _off_band(u0: np.ndarray, eps_par: float, times: np.ndarray, modes) -> np.ndarray:
    """The FFT positions ``modes`` of u0 at ``times`` under the off-band
    generator -eps_par xi^2, ``u0 e^{-t eps_par xi^2}``: (len(times), m, ...)."""
    return u0[:, modes] * np.exp(-eps_par * lattice(u0.shape[1])[modes] ** 2
                                 * times[:, None, None])


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

    Rows are trimmed to the |xi| range of all the stack's tails (on 49 rows at
    n_lattice 1024, 186 us against 517 untrimmed), so a row's fit moves in its
    last ulps with the rows beside it (seed-3 data at 1024 fits c = 1.5 alone,
    1.5000000000000007 beside another): so do ``gevrey_c`` and its csv bytes
    when the diagnostics' block sizes change.
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


def _evolve(gen: TruncatedGenerator, u0: np.ndarray, per: int, count: int, dt: float,
            path: RK4Stepping | BandPropagator):
    """The N_SAMPLES + 1 samples (n, m, n_band) of ``gen``'s joint band, u0's
    first, each interval of ``per`` grid steps of size dt crossed in
    ``count`` equal sub-steps by the step path ``path`` (:func:`step_path`).
    Sub-step i of interval k starts k per + i per / count grid steps in:
    exactly k per + i where the interval keeps its grid steps.

    Row 0 of the interval's block holds its first state and row i + 1 the
    state after its sub-step i, padded with the path's width of zeros on
    each side.  A non-finite entry stays non-finite in every later state:
    an RK4 step adds u with coefficient exactly 1, a propagator row always
    takes its own mode, and in IEEE arithmetic a finite number times inf, or
    inf - inf, is never finite.  So the interval's last state alone is
    checked, and only when it lost finiteness are its rows scanned for the
    first sub-step that did, in any band; the abort names its end, and its
    start as the last healthy time.  The separators stay zero.
    """
    size = per / count
    start = (np.arange(N_SAMPLES, dtype=float)[:, None] * per + np.arange(count) * size).ravel()
    advance = path.start(start * dt, size * dt)
    n_band, width = gen.xi.size, path.width
    block = np.zeros((count + 1, gen.coeffs.m, n_band + 2 * width), dtype=complex)
    rows = block[:, :, width:width + n_band]
    windows = np.lib.stride_tricks.sliding_window_view(block, 2 * width + 1, axis=-1)
    for seg, index in gen.segments:
        rows[0][:, seg] = u0[:, index]
    samples = np.empty((N_SAMPLES + 1, gen.coeffs.m, n_band), dtype=complex)
    samples[0] = rows[0]
    for first, sample in zip(range(0, start.size, count), samples[1:]):
        advance(rows, windows, first)
        if not np.isfinite(rows[count]).all():
            k = first + int(np.argmax(~np.isfinite(rows[1:]).all(axis=(1, 2))))
            t = (start[k] + size) * dt
            raise NumericAbortError(f"evolution lost finiteness at t = {t:.6g}",
                                    last_time=t - size * dt)
        rows[0] = sample[...] = rows[count]
    return samples


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
    eps_par=0.0,
    dt: float | None = None,
) -> SolveResult:
    """Evolve the truncated problem at each cutoff scale h of ``cutoffs``,
    parabolically regularized by ``eps_par`` >= 0, one for all or per cutoff.
    ``params`` are admissible, as :func:`planner.plan` makes them, and are not
    re-checked; the cutoffs must lie in the uniformity range h <= 1/ell.

    The cutoffs share the grid step dt, set by the lattice's stability scale
    at the largest eps_par, and the sub-steps between samples, set by the
    widest band at it, and one time loop advances their bands together.
    Each trajectory is sampled at the N_SAMPLES + 1 times
    k horizon / N_SAMPLES.  The result's ``traces`` are diagnosed when first
    read (:func:`_energy_trace`): at each sample the weight
    ``e^{<D>^rho (T - a t)}`` produces v, the weighted norms, the R-energy
    and a Gevrey radius fit.  Aborts with the last healthy time on
    NaN/overflow of the evolution; the first read of ``traces`` does so on
    NaN/overflow of the diagnostics, and raises :class:`WeightOverflowError`
    at the first weight they form past ``EXP_BUDGET``.  A caller that reads
    no trace forms no weight.
    """
    coeffs = problem.coeffs
    if max(cutoffs) > 1.0 / float(params.ell) + 1e-12:
        raise ConfigError(
            f"cutoff scale h = {max(cutoffs)} above the uniformity range 1/ell = "
            f"{1.0 / float(params.ell)}"
        )
    n_x, u0 = problem.g.shape[1], problem.g
    gen = TruncatedGenerator(coeffs, n_x, cutoffs, eps_par, pairs_modes(coeffs, u0))
    lam = max(gen.lam_bound(problem.horizon), 1e-12)
    if dt is None:
        dt = 0.5 / lam
    # an infinite Lambda leaves dt = 0, and a tiny dt a step count that no
    # index reaches
    steps = problem.horizon / dt if dt > 0 else math.inf
    if not (math.isfinite(lam) and steps <= np.iinfo(np.intp).max):
        raise ConfigError(f"dt = {dt:.3g}, Lambda = {lam:.3g} (eps_par = "
                          f"{gen.eps_max:.3g}): {steps:.3g} steps are past the index range")
    n_steps = max(1, math.ceil(steps))
    dt = problem.horizon / n_steps
    if dt * lam > 2.5:
        raise ConfigError(f"dt = {dt:.3g} violates the stability budget "
                          f"2.5/Lambda = {2.5 / lam:.3g}")
    # The grid steps of a sample interval, and the sub-steps that cross it.
    per = math.ceil(n_steps / N_SAMPLES)
    dt = problem.horizon / (per * N_SAMPLES)
    scale = max(gen.lam_band, *(g.omega_max for g in gen.time_terms.values()))
    count = _substeps(per, dt, scale)
    total = N_SAMPLES * count
    # The joint band's samples (a band state, a time and each cutoff's 80
    # bytes of diagnostics rows each), the interval's block of band states,
    # padded by the path's width, the sub-steps' start times (48 bytes a
    # sub-step as they are formed), the generator's buffers, a block of
    # diagnostics and their rows (128 bytes a mode) and what the step path
    # adds must fit in physical memory; the diagnostics charge a mollified
    # energy's R path.
    path, n_band, n_samples = step_path(gen), gen.xi.size, N_SAMPLES + 1
    need = (n_samples * (16 * coeffs.m * n_band + 16 + 80 * len(gen.segments))
            + (count + 1) * 16 * coeffs.m * (n_band + 2 * path.width) + 48 * total
            + 64 * gen._operand.size + _BLOCK_BYTES + 128 * n_x + path.need(total))
    require_memory(need, f"dt = {dt:.3g}: {total} steps")

    # Off its band a cutoff's generator is -eps_par xi^2, so sample k holds
    # u0 e^{-times[k] eps_par xi^2} there, set with the diagnostics.  The
    # factor is at most 1, so only u0 can make those modes non-finite.
    if not np.isfinite(u0).all():
        raise NumericAbortError(f"evolution lost finiteness at t = {dt:.6g}", last_time=0.0)
    # sample k holds the state after k per grid steps, at time k per dt
    times = np.arange(n_samples, dtype=float) * per * dt
    band = _evolve(gen, u0, per, count, dt, path)
    return SolveResult(problem=problem, params=params, dt=dt, per=per, times=times, band=band,
                       steps=total, gen=gen)


def _energy_trace(res: SolveResult, i: int, energies: bool) -> EnergyTrace:
    """The diagnostics of cutoff i of ``res`` at its sample times: the
    weighted norms and, when ``energies`` is true, the R-energy and the
    radius fit; otherwise ``er_mode`` is "skipped" and ``gevrey_c`` NaN.

    The R-energy is skipped on x-dependent coefficients, mollified when the
    plan has a delta (Hoelder mode), and the exact multiplier otherwise.  A
    mollified energy hands :func:`mollify_path` R on a range of path times,
    solved on demand, each time once, never the whole path.  The
    diagnostics run over blocks of samples and form no lattice state.  A
    block's squared moduli q are u0's, found once, with its band's written
    over them at the band's FFT positions and, when eps_par > 0, those of
    :func:`_off_band` at the other modes read.  One product of q w^2 against
    ``table`` gives the squared norms of the five orders sigma (with nu = 0
    three of them coincide) and the off-band R-energy, R = I/2 there.  A
    block whose products leave the double range aborts at its first such
    sample.  A paired solve's states are conjugate-symmetric, so they read
    FFT positions 0 .. N_x/2 alone, each xi > 0 twice (its row of ``table``
    and its R v doubled), and that half of q is already folded for the
    radius fit; its band lies there whole, and the mirrors beyond.
    """
    problem, params, gen, band, times = res.problem, res.params, res.gen, res.band, res.times
    (seg, index), eps = gen.segments[i], gen.eps_par[i]
    coeffs, n_x = problem.coeffs, problem.g.shape[1]
    er_mode = ("skipped" if not energies or coeffs.x_band
               else "multiplier" if params.delta is None else "mollified")
    big_t, a = float(params.T), float(params.a)
    rho, ell = float(params.rho), float(params.ell)
    n_read = n_x // 2 + 1 if gen.paired else n_x
    xi = lattice(n_x)[:n_read]
    mult = 1.0 + gen.paired * (xi > 0)
    off = np.ones(n_read, dtype=bool)
    off[index] = False
    off_index, q0 = np.flatnonzero(off), squared_moduli(problem.g[:, :n_read])
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
        path_ts = _mollifier_path(xi, params, problem.horizon)
        # R is solved a chunk of path times at a time: their Lyapunov nodes,
        # with their rows of R (16 m^2 bytes a node), take _BLOCK_BYTES
        chunk = max(1, _BLOCK_BYTES // ((_lyap_node_bytes(coeffs.blocks) + 16 * coeffs.m**2)
                                        * r_xi.size))
        # the mollified R and the ring of R, a chunk and a window of path
        # times (the path starts half a window before 0), must fit in
        # physical memory beside a chunk's solve or a block of samples
        rows = times.size + chunk + 2 * math.ceil(-path_ts[0] / (path_ts[1] - path_ts[0])) + 1
        require_memory(16 * coeffs.m**2 * r_xi.size * rows + _BLOCK_BYTES,
                       f"{path_ts.size} mollifier path times")

        def r_rows(lo, hi):
            return _lyap_solve_batch(*r_generator(path_ts[lo:hi, None]), coeffs.blocks)

        # (n_samples, n_active, m, m)
        molly_values = mollify_path(path_ts, r_rows, bracket(r_xi, ell), float(params.delta),
                                    times, chunk)

    n_samples, nu = times.size, params.nu
    sigmas = (-nu, (rho - 1.0) / 2.0, rho / 2.0, nu, 3.0 * nu)
    table = np.zeros((n_read, len(sigmas) + 1))
    table[:, :-1] = bracket(xi[:, None], ell) ** (2.0 * np.asarray(sigmas))
    table[off_index, -1] = 0.5
    table *= mult[:, None]
    norms = np.empty((n_samples, len(sigmas)))
    e_r_arr = np.full(n_samples, np.nan)
    gevrey_c = np.full(n_samples, np.nan)
    sample_bytes = 48 * n_read + ((16 * coeffs.m + 8) * off_index.size if eps else 0)
    block = _samples_per_block(coeffs.blocks, sample_bytes,
                               r_xi.size if er_mode == "multiplier" else 0)
    for lo in range(0, n_samples, block):
        blk = slice(lo, lo + block)
        u = band[blk, :, seg]
        q = np.repeat(q0[None], len(u), axis=0)
        q[:, index] = squared_moduli(u)
        if eps:
            q[:, off_index] = squared_moduli(_off_band(problem.g, eps, times[blk], off_index))
        weight = gevrey_weight(xi, big_t - a * times[blk, None], rho, ell)
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
            v_band = np.ascontiguousarray((u * weight[:, None, index]).transpose(0, 2, 1))
            rv = np.einsum("bnij,bnj->bni", r_band, v_band)
            rv *= mult[index, None]
            e_r_arr[blk] = np.einsum("bi,bi->b", v_band.reshape(len(u), -1).view(float),
                                     rv.reshape(len(u), -1).view(float)) + sums[:, -1]
        if energies and problem.gevrey_s is not None:
            gevrey_c[blk] = gevrey_radius_fit(np.sqrt(q) if gen.paired else fold_amplitudes(q),
                                              problem.gevrey_s)[0]

    return EnergyTrace(times=times, e_r_raw=e_r_arr, norms=norms, gevrey_c=gevrey_c,
                       er_mode=er_mode, sigmas=sigmas)


# ---------------------------------------------------------------------------
# Studies


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

    Each h's constants are the maxima over time of its
    :attr:`EnergyTrace.estimate_curves`.  Besides them, the whole first
    curve ``t -> LHS(t) / RHS(0)`` is compared across h so that
    h-dependence hiding below the maximum is still caught.
    """
    # one solve evolves every h; they share the grid and the sample times, so
    # the curves stack as they are.  Each h's weighted norms alone are read
    res = solve_cauchy(problem, params, h_list, dt=dt)
    curves = np.stack([_energy_trace(res, i, False).estimate_curves
                       for i in range(len(h_list))])  # (n_h, n_samples, 2)
    cs1, cs2 = ([float(c) for c in col] for col in curves.max(axis=1).T)
    curve_spread = float(np.max(np.ptp(curves[..., 0], axis=0)) / np.max(curves[..., 0]))
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
    passed: bool


def _l2(u) -> np.ndarray:
    """Plain l2 norms (...) of a stack (..., m, n_x) of states."""
    return np.sqrt(np.sum(squared_moduli(u), axis=-1))


def parabolic_study(
    problem: CauchyProblem,
    params: ParameterSet,
    eps_list,
    dt: float | None = None,
    h: float | None = None,
) -> ParabolicStudyResult:
    """Self-convergence in the parabolic regularization strength.

    One solve evolves the 2n cases (h, eps) and (h, eps/2) over the n values
    of ``eps_list`` on one grid, the finest that any of them needs.  Reports
    ``||u_eps - u_{eps/2}||`` at the final time, the fitted convergence rate,
    and the spread of the sup-in-time plain norms of the eps cases
    (uniform-in-eps energy boundedness).  It passes when the rate lies in
    ``_RATE_WINDOW`` and the spread is at most ``_SPREAD_TOL``.  It holds one
    pair's final lattice states, or one block of a case's
    (:meth:`SolveResult.lattice_blocks`), at a time.
    """
    if h is None:
        h = 1.0 / float(params.ell)
    # case i is eps_list[i] and case n + i its half
    n = len(eps_list)
    res = solve_cauchy(problem, params, (h,) * (2 * n),
                       eps_par=[*eps_list, *(eps / 2.0 for eps in eps_list)], dt=dt)
    final = slice(-1, None)
    diffs = [float(_l2(res.lattice_states(i, final) - res.lattice_states(n + i, final))[0])
             for i in range(n)]
    sups = [max(np.max(_l2(states)) for states in res.lattice_blocks(i)) for i in range(n)]
    rate = float(line_fit(np.log(eps_list), np.log(np.maximum(diffs, 1e-300)))[0])
    spread = (max(sups) - min(sups)) / min(sups)
    return ParabolicStudyResult(
        eps_values=list(eps_list), self_differences=diffs, rate=rate,
        sup_norms=[float(s) for s in sups], energy_spread=float(spread),
        passed=bool(_RATE_WINDOW[0] <= rate <= _RATE_WINDOW[1] and spread <= _SPREAD_TOL))
