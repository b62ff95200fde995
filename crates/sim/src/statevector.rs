//! Dense statevector with the operations the trajectory engine needs:
//! 1q/2q unitaries, fast diagonal Z/ZZ rotations, Pauli expectations
//! over precomputed bit-masks, projective measurement, and
//! single-qubit Kraus-channel sampling for amplitude damping.
//!
//! The trajectory engine's workhorse is [`State::flush`]: a lazy bank
//! flush gathers a qubit's pending diagonal operators — coherent Z/ZZ
//! phases, the no-jump amplitude-damping branch with its
//! renormalisation, a dephasing kick — into one [`DiagTable`] and
//! applies it in a single pass, folded into the gate that follows.
//! Every kernel walks its amplitude pairs or quads by stride, with no
//! per-amplitude branch on the target bits.

use ca_circuit::c64::{C64, ONE, ZERO};
use ca_circuit::matrix::{Mat2, Mat4};
use ca_circuit::pauli::{Pauli, PauliString};
use rand::RngExt;

/// A pure state of `n` qubits: `2^n` complex amplitudes, qubit `q` is
/// bit `q` of the basis index (little-endian, matching `ca-circuit`'s
/// matrix convention).
#[derive(Clone, Debug)]
pub struct State {
    /// Number of qubits.
    pub n: usize,
    /// Amplitudes, length `2^n`.
    pub amps: Vec<C64>,
}

impl State {
    /// |0…0⟩.
    pub fn zero(n: usize) -> Self {
        assert!(
            n <= crate::engine::DENSE_MAX_QUBITS,
            "statevector limited to {} qubits",
            crate::engine::DENSE_MAX_QUBITS
        );
        let mut amps = vec![ZERO; 1 << n];
        amps[0] = ONE;
        Self { n, amps }
    }

    /// A computational basis state.
    pub fn basis(n: usize, index: usize) -> Self {
        let mut amps = vec![ZERO; 1 << n];
        amps[index] = ONE;
        Self { n, amps }
    }

    /// Squared norm (should stay ≈1 between explicit renormalisations).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Rescales to unit norm.
    pub fn renormalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            let inv = 1.0 / n;
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
    }

    /// Applies a 2×2 unitary to qubit `q`.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        let (m00, m01, m10, m11) = (m.0[0][0], m.0[0][1], m.0[1][0], m.0[1][1]);
        for_pairs(&mut self.amps, q, |a0, a1| {
            let (v0, v1) = (*a0, *a1);
            *a0 = m00 * v0 + m01 * v1;
            *a1 = m10 * v0 + m11 * v1;
        });
    }

    /// Applies a 4×4 unitary to qubits `(a, b)` where `a` is the
    /// low-order index bit of the matrix (first listed operand).
    pub fn apply_2q(&mut self, m: &Mat4, a: usize, b: usize) {
        assert_ne!(a, b);
        let (ba, bb) = (1usize << a, 1usize << b);
        let amps = &mut self.amps;
        for i in Coset::new(amps.len(), ba | bb) {
            let idx = [i, i | ba, i | bb, i | ba | bb];
            let x = idx.map(|k| amps[k]);
            for (&out, row) in idx.iter().zip(m.0.iter()) {
                amps[out] = row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3];
            }
        }
    }

    /// Fast diagonal: `Rz(θ)` on `q`.
    pub fn apply_rz(&mut self, theta: f64, q: usize) {
        self.apply_diag1(q, C64::cis(-theta / 2.0), C64::cis(theta / 2.0));
    }

    /// Fast diagonal: `Rzz(θ)` on `(a, b)`.
    pub fn apply_rzz(&mut self, theta: f64, a: usize, b: usize) {
        assert_ne!(a, b);
        let even = C64::cis(-theta / 2.0);
        let odd = C64::cis(theta / 2.0);
        let (ba, bb) = (1usize << a, 1usize << b);
        let amps = &mut self.amps;
        for i in Coset::new(amps.len(), ba | bb) {
            amps[i] *= even;
            amps[i | ba] *= odd;
            amps[i | bb] *= odd;
            amps[i | ba | bb] *= even;
        }
    }

    /// Applies a single-qubit Pauli to `q` without a gate matrix.
    pub fn apply_pauli(&mut self, p: Pauli, q: usize) {
        match p {
            Pauli::I => {}
            Pauli::X => self.apply_x(q),
            // Y|0⟩ = i|1⟩, Y|1⟩ = −i|0⟩.
            Pauli::Y => for_pairs(&mut self.amps, q, |a0, a1| {
                let (v0, v1) = (*a0, *a1);
                *a0 = C64::new(v1.im, -v1.re);
                *a1 = C64::new(-v0.im, v0.re);
            }),
            Pauli::Z => for_pairs(&mut self.amps, q, |_, a1| *a1 = -*a1),
        }
    }

    /// `(P(q = 0), P(q = 1))` in one read pass; the pair sums to
    /// [`Self::norm_sqr`].
    pub fn prob_pair(&self, q: usize) -> (f64, f64) {
        let bit = 1usize << q;
        let (mut p0, mut p1) = (0.0, 0.0);
        for chunk in self.amps.chunks_exact(2 * bit) {
            let (lo, hi) = chunk.split_at(bit);
            p0 += lo.iter().map(|a| a.norm_sqr()).sum::<f64>();
            p1 += hi.iter().map(|a| a.norm_sqr()).sum::<f64>();
        }
        (p0, p1)
    }

    /// Multiplies `q`'s `|0⟩` amplitudes by `s0` and its `|1⟩`
    /// amplitudes by `s1`.
    fn apply_diag1(&mut self, q: usize, s0: C64, s1: C64) {
        for_pairs(&mut self.amps, q, |a0, a1| {
            *a0 *= s0;
            *a1 *= s1;
        });
    }

    /// Applies a diagonal table in one pass.
    fn apply_diag(&mut self, t: &DiagTable) {
        let amps = &mut self.amps;
        let ba = 1usize << t.qubits[0];
        if t.targets == 1 {
            for (e, coset) in t.cosets(amps.len()) {
                for i in coset {
                    amps[i] *= e[0];
                    amps[i | ba] *= e[1];
                }
            }
        } else {
            let bb = 1usize << t.qubits[1];
            for (e, coset) in t.cosets(amps.len()) {
                for i in coset {
                    amps[i] *= e[0];
                    amps[i | ba] *= e[1];
                    amps[i | bb] *= e[2];
                    amps[i | ba | bb] *= e[3];
                }
            }
        }
    }

    /// Applies a one-target diagonal table and then a 2×2 gate on its
    /// target in one pairwise pass. Both amplitudes of a pair share
    /// every neighbour bit, so per neighbour configuration the table
    /// folds exactly into the gate's columns.
    fn apply_diag_1q(&mut self, t: &DiagTable, m: &Mat2) {
        let amps = &mut self.amps;
        let ba = 1usize << t.qubits[0];
        for (e, coset) in t.cosets(amps.len()) {
            let [[m00, m01], [m10, m11]] = m.0;
            let (m00, m10, m01, m11) = (m00 * e[0], m10 * e[0], m01 * e[1], m11 * e[1]);
            for i in coset {
                let j = i | ba;
                let (v0, v1) = (amps[i], amps[j]);
                amps[i] = m00 * v0 + m01 * v1;
                amps[j] = m10 * v0 + m11 * v1;
            }
        }
    }

    /// Applies a two-target diagonal table and then a 4×4 gate on its
    /// targets `(a, b)` (`a` the low-order matrix bit) in one quad
    /// pass, folded per neighbour configuration as in
    /// [`Self::apply_diag_1q`].
    fn apply_diag_2q(&mut self, t: &DiagTable, m: &Mat4) {
        let amps = &mut self.amps;
        let (ba, bb) = (1usize << t.qubits[0], 1usize << t.qubits[1]);
        assert_ne!(ba, bb);
        for (e, coset) in t.cosets(amps.len()) {
            let mut g = m.0;
            for row in &mut g {
                for (v, &ec) in row.iter_mut().zip(e) {
                    *v *= ec;
                }
            }
            for i in coset {
                let idx = [i, i | ba, i | bb, i | ba | bb];
                let x = idx.map(|k| amps[k]);
                for (&out, row) in idx.iter().zip(g.iter()) {
                    amps[out] = row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3];
                }
            }
        }
    }

    /// One lazy flush of the table's target qubits, in physical order
    /// per target: the banked diagonal phases folded into `t`, then an
    /// amplitude-damping step (`decay[j].damping = Some((γ, r))`, the
    /// branch selected by the uniform `r` with Born weights), then a
    /// dephasing `Z` kick; and finally `gate` on the targets.
    ///
    /// When every damping step takes the no-jump branch — the common
    /// case — `K0` and its renormalisation fold into the table, so the
    /// whole flush costs one read pass for the branch weights plus one
    /// write pass shared with the gate. A jump `K1` is applied through
    /// explicit passes.
    pub fn flush(&mut self, t: &mut DiagTable, decay: &[Decay], gate: FlushGate<'_>) {
        debug_assert_eq!(decay.len(), t.targets);
        let mut probs = [0.0; 4];
        if decay.iter().any(|d| d.damping.is_some()) {
            probs = self.target_probs(t);
        }
        for (j, d) in decay.iter().enumerate() {
            let q = t.qubits[j];
            if let Some((gamma, r)) = d.damping {
                let g = gamma.clamp(0.0, 1.0);
                let keep = |x: usize| if x >> j & 1 == 1 { 1.0 - g } else { 1.0 };
                let w0: f64 = probs.iter().enumerate().map(|(x, p)| keep(x) * p).sum();
                if r < w0 {
                    for (x, p) in probs.iter_mut().enumerate() {
                        *p *= keep(x) / w0;
                    }
                    let s = 1.0 / w0.sqrt();
                    t.scale(q, C64::real(s), C64::real((1.0 - g).sqrt() * s));
                } else {
                    self.apply_diag(t);
                    self.damping_jump(g, q);
                    if d.kick {
                        self.apply_rz(std::f64::consts::PI, q);
                    }
                    self.flush_explicit(&t.qubits[j + 1..t.targets], &decay[j + 1..]);
                    self.apply_gate(&t.qubits[..t.targets], gate);
                    return;
                }
            }
            if d.kick {
                t.scale(
                    q,
                    C64::cis(-std::f64::consts::FRAC_PI_2),
                    C64::cis(std::f64::consts::FRAC_PI_2),
                );
            }
        }
        match gate {
            _ if t.identity => self.apply_gate(&t.qubits[..t.targets], gate),
            FlushGate::None => self.apply_diag(t),
            FlushGate::One(m) => self.apply_diag_1q(t, m),
            FlushGate::Two(m) => self.apply_diag_2q(t, m),
        }
    }

    /// The damping steps and kicks of `decay` on `qs`, one explicit
    /// pass each: the path after a damping jump.
    fn flush_explicit(&mut self, qs: &[usize], decay: &[Decay]) {
        for (&q, d) in qs.iter().zip(decay) {
            if let Some((gamma, r)) = d.damping {
                let g = gamma.clamp(0.0, 1.0);
                let (p0, p1) = self.prob_pair(q);
                let w0 = p0 + (1.0 - g) * p1;
                if r < w0 {
                    let s = 1.0 / w0.sqrt();
                    self.apply_diag1(q, C64::real(s), C64::real((1.0 - g).sqrt() * s));
                } else {
                    self.damping_jump(g, q);
                }
            }
            if d.kick {
                self.apply_rz(std::f64::consts::PI, q);
            }
        }
    }

    /// Applies a flush's gate on its targets without a table.
    fn apply_gate(&mut self, qs: &[usize], gate: FlushGate<'_>) {
        match (gate, qs) {
            (FlushGate::One(m), &[q, ..]) => self.apply_1q(m, q),
            (FlushGate::Two(m), &[a, b, ..]) => self.apply_2q(m, a, b),
            _ => {}
        }
    }

    /// Joint probabilities of the table's targets: entry `x` has
    /// target `j`'s bit at bit `j` (one target leaves entries 2, 3 at
    /// zero). One read pass.
    fn target_probs(&self, t: &DiagTable) -> [f64; 4] {
        if t.targets == 1 {
            let (p0, p1) = self.prob_pair(t.qubits[0]);
            return [p0, p1, 0.0, 0.0];
        }
        let (ba, bb) = (1usize << t.qubits[0], 1usize << t.qubits[1]);
        let mut p = [0.0; 4];
        for i in Coset::new(self.amps.len(), ba | bb) {
            p[0] += self.amps[i].norm_sqr();
            p[1] += self.amps[i | ba].norm_sqr();
            p[2] += self.amps[i | bb].norm_sqr();
            p[3] += self.amps[i | ba | bb].norm_sqr();
        }
        p
    }

    /// The amplitude-damping jump `K1 = √γ·|0⟩⟨1|` on `q`, renormalised.
    fn damping_jump(&mut self, gamma: f64, q: usize) {
        let s = gamma.sqrt();
        for_pairs(&mut self.amps, q, |a0, a1| {
            *a0 = a1.scale(s);
            *a1 = ZERO;
        });
        self.renormalize();
    }

    /// Probability that qubit `q` reads 1.
    pub fn prob_one(&self, q: usize) -> f64 {
        self.prob_pair(q).1
    }

    /// Projective Z measurement of `q`: collapses, renormalises, and
    /// returns the outcome.
    pub fn measure(&mut self, q: usize, rng: &mut impl RngExt) -> bool {
        let p1 = self.prob_one(q);
        let outcome = rng.random::<f64>() < p1;
        self.project(q, outcome);
        outcome
    }

    /// Forces qubit `q` into the given outcome (collapse + renormalise).
    pub fn project(&mut self, q: usize, outcome: bool) {
        for_pairs(&mut self.amps, q, |a0, a1| {
            *(if outcome { a0 } else { a1 }) = ZERO;
        });
        self.renormalize();
    }

    /// Resets qubit `q` to |0⟩ (measure, then classical flip if 1).
    pub fn reset(&mut self, q: usize, rng: &mut impl RngExt) {
        let outcome = self.measure(q, rng);
        if outcome {
            self.apply_x(q);
        }
    }

    /// Pauli-X on qubit `q`: swaps the paired amplitudes directly, so
    /// the classical flip in [`Self::reset`] needs no gate matrix.
    pub fn apply_x(&mut self, q: usize) {
        for_pairs(&mut self.amps, q, std::mem::swap);
    }

    /// Expectation value of a signed Pauli string (real by Hermiticity).
    pub fn expect_pauli(&self, p: &PauliString) -> f64 {
        self.expect_masked(&PauliMask::new(p))
    }

    /// [`Self::expect_pauli`] over a prebuilt [`PauliMask`], so a shot
    /// loop builds each observable's masks once.
    pub fn expect_masked(&self, m: &PauliMask) -> f64 {
        assert_eq!(m.n, self.n);
        // ⟨ψ|P|ψ⟩ = Σ_i conj(ψ_{i⊕x})·phase_i·ψ_i with
        // phase_i = i^{#Y}·s_i, s_i = (−1)^{|i ∧ z|}.
        let sign = |i: usize| if odd_parity(i & m.z) { -1.0 } else { 1.0 };
        let sum = if m.x == 0 {
            let terms = self.amps.iter().enumerate();
            terms.map(|(i, a)| a.norm_sqr() * sign(i)).sum::<f64>()
        } else {
            // Pair each i whose top X bit is clear with j = i ⊕ x: as P
            // is Hermitian, s_j = (−1)^{#Y}·s_i, so the two terms add
            // to 2·s_i·Re(w) for even #Y and 2i·s_i·Im(w) for odd,
            // with w = conj(ψ_j)·ψ_i.
            let half = 1usize << (usize::BITS - 1 - m.x.leading_zeros());
            let x_low = m.x ^ half;
            let odd_y = m.y_count % 2 == 1;
            let mut acc = 0.0;
            for (c, chunk) in self.amps.chunks_exact(2 * half).enumerate() {
                let (lo, hi) = chunk.split_at(half);
                let base = c * 2 * half;
                for (k, ai) in lo.iter().enumerate() {
                    let aj = hi[k ^ x_low];
                    let w = if odd_y {
                        aj.re * ai.im - aj.im * ai.re
                    } else {
                        aj.re * ai.re + aj.im * ai.im
                    };
                    acc += w * sign(base + k);
                }
            }
            2.0 * acc
        };
        // Re(i^{#Y}·sum) for the real (even) or imaginary (odd) sum.
        let phase = match m.y_count % 4 {
            0 | 3 => 1.0,
            _ => -1.0,
        };
        sum * phase * m.sign
    }

    /// Samples a full computational-basis bitstring without collapsing
    /// (returns the basis index).
    pub fn sample_index(&self, rng: &mut impl RngExt) -> usize {
        let r: f64 = rng.random::<f64>() * self.norm_sqr();
        let mut acc = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                return i;
            }
        }
        self.amps.len() - 1
    }

    /// Fidelity |⟨other|self⟩|².
    pub fn fidelity(&self, other: &State) -> f64 {
        let ip: C64 = self
            .amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| b.conj() * *a)
            .sum();
        ip.norm_sqr()
    }
}

/// Runs `f(a0, a1)` over every amplitude pair that differs only in
/// bit `q` (`a0` the `q = 0` member): the strided, branch-free walk
/// behind the single-qubit kernels.
#[inline(always)]
fn for_pairs(amps: &mut [C64], q: usize, mut f: impl FnMut(&mut C64, &mut C64)) {
    let bit = 1usize << q;
    for chunk in amps.chunks_exact_mut(2 * bit) {
        let (lo, hi) = chunk.split_at_mut(bit);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            f(a0, a1);
        }
    }
}

/// Parity of the set bits of `v < 2³²` (branch-free fold; the
/// baseline x86-64 target has no `popcnt`).
#[inline(always)]
fn odd_parity(v: usize) -> bool {
    let mut v = v;
    v ^= v >> 16;
    v ^= v >> 8;
    v ^= v >> 4;
    (0x6996u32 >> (v & 0xF)) & 1 == 1
}

/// The decoherence one flush target accrued, resolved by the caller's
/// draws.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Decay {
    /// Amplitude-damping probability `γ` and the uniform draw that
    /// picks the Kraus branch (`None`: no damping step).
    pub damping: Option<(f64, f64)>,
    /// Whether a dephasing `Z` kick fires.
    pub kick: bool,
}

/// The gate a flush folds into its write pass, acting on the table's
/// targets.
#[derive(Clone, Copy, Debug)]
pub enum FlushGate<'a> {
    /// No gate: the flush is a diagonal pass.
    None,
    /// A 2×2 gate on a one-target table.
    One(&'a Mat2),
    /// A 4×4 gate on a two-target table `(a, b)`, `a` the low-order
    /// matrix bit.
    Two(&'a Mat4),
}

/// A diagonal operator on one or two *target* qubits and up to
/// [`DiagTable::MAX_QUBITS`] qubits in all, stored as one entry per
/// basis configuration of its qubits: entry-index bit `j` is the
/// `j`-th qubit's bit, targets first. A lazy flush collects its
/// targets' banked `Rz`, every incident banked `Rzz`, the no-jump
/// damping branches and the dephasing kicks into one table and applies
/// it in a single pass ([`State::flush`]).
#[derive(Clone, Debug)]
pub struct DiagTable {
    qubits: Vec<usize>,
    targets: usize,
    entries: Vec<C64>,
    /// True while nothing has been folded in since the last reset.
    identity: bool,
}

impl Default for DiagTable {
    fn default() -> Self {
        Self::new(&[0])
    }
}

impl DiagTable {
    /// Qubit cap: the table holds at most `2^MAX_QUBITS` entries.
    /// Callers apply `Rzz` phases beyond it as separate passes.
    pub const MAX_QUBITS: usize = 8;

    /// The identity on `targets` (one or two distinct qubits).
    pub fn new(targets: &[usize]) -> Self {
        let mut t = Self {
            qubits: Vec::with_capacity(Self::MAX_QUBITS),
            targets: 0,
            entries: Vec::with_capacity(1 << Self::MAX_QUBITS),
            identity: true,
        };
        t.reset(targets);
        t
    }

    /// Resets to the identity on `targets`, keeping the allocations.
    pub fn reset(&mut self, targets: &[usize]) {
        debug_assert!(matches!(targets.len(), 1 | 2));
        self.qubits.clear();
        self.qubits.extend_from_slice(targets);
        self.targets = targets.len();
        self.entries.clear();
        self.entries.resize(1 << targets.len(), ONE);
        self.identity = true;
    }

    /// The entry-index bit of `q`, adding `q` as a neighbour when it
    /// is new (`None` when the table is full).
    fn slot(&mut self, q: usize) -> Option<usize> {
        if let Some(j) = self.qubits.iter().position(|&x| x == q) {
            return Some(j);
        }
        if self.qubits.len() == Self::MAX_QUBITS {
            return None;
        }
        self.entries.extend_from_within(..);
        self.qubits.push(q);
        Some(self.qubits.len() - 1)
    }

    /// Multiplies the entries with `q` at 0 by `s0` and at 1 by `s1`.
    /// `q` must already be one of the table's qubits (a target).
    pub fn scale(&mut self, q: usize, s0: C64, s1: C64) {
        let Some(j) = self.qubits.iter().position(|&x| x == q) else {
            debug_assert!(false, "scale on qubit {q} outside the table");
            return;
        };
        for (k, e) in self.entries.iter_mut().enumerate() {
            *e *= if k >> j & 1 == 0 { s0 } else { s1 };
        }
        self.identity = false;
    }

    /// Folds in `Rz(θ)` on `q`, which must be one of the table's
    /// qubits.
    pub fn rz(&mut self, q: usize, theta: f64) {
        self.scale(q, C64::cis(-theta / 2.0), C64::cis(theta / 2.0));
    }

    /// Folds in `Rzz(θ)` on `(a, b)`, adding either as a neighbour as
    /// needed. Returns `false`, leaving the table unchanged, when that
    /// would exceed [`Self::MAX_QUBITS`].
    pub fn rzz(&mut self, a: usize, b: usize, theta: f64) -> bool {
        let len = self.qubits.len();
        let (Some(ja), Some(jb)) = (self.slot(a), self.slot(b)) else {
            self.qubits.truncate(len);
            self.entries.truncate(1 << len);
            return false;
        };
        let even = C64::cis(-theta / 2.0);
        let odd = C64::cis(theta / 2.0);
        for (k, e) in self.entries.iter_mut().enumerate() {
            *e *= if (k >> ja ^ k >> jb) & 1 == 0 {
                even
            } else {
                odd
            };
        }
        self.identity = false;
        true
    }

    /// The table's neighbour configurations: for each, its entries
    /// (one per target configuration) and the basis indices that
    /// carry it with every target bit clear.
    fn cosets(&self, len: usize) -> impl Iterator<Item = (&[C64], Coset)> + '_ {
        let fixed = self.qubits.iter().fold(0usize, |m, &q| m | 1 << q);
        let nbrs = &self.qubits[self.targets..];
        let width = 1usize << self.targets;
        self.entries
            .chunks_exact(width)
            .enumerate()
            .map(move |(c, e)| {
                let base = nbrs
                    .iter()
                    .enumerate()
                    .fold(0usize, |acc, (j, &q)| acc | (c >> j & 1) << q);
                (
                    e,
                    Coset {
                        base,
                        ..Coset::new(len, fixed)
                    },
                )
            })
    }
}

/// The basis indices `base | free` for every `free < len` that is
/// clear on the `fixed` bits, ascending: the masked-increment walk
/// over one neighbour configuration of a [`DiagTable`].
struct Coset {
    base: usize,
    free: usize,
    fixed: usize,
    len: usize,
}

impl Coset {
    /// The indices below `len` that are clear on the `fixed` bits.
    fn new(len: usize, fixed: usize) -> Self {
        Self {
            base: 0,
            free: 0,
            fixed,
            len,
        }
    }
}

impl Iterator for Coset {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        (self.free < self.len).then(|| {
            let i = self.base | self.free;
            self.free = ((self.free | self.fixed) + 1) & !self.fixed;
            i
        })
    }
}

/// A signed Pauli string as basis-index bit-masks: `P|i⟩ =
/// i^{#Y}·(−1)^{|i ∧ z|}·|i ⊕ x⟩` (up to the sign). Built once per
/// observable so shot loops skip the per-qubit Pauli walk.
#[derive(Clone, Copy, Debug)]
pub struct PauliMask {
    /// Number of qubits the string spans.
    n: usize,
    /// Qubits carrying X or Y.
    x: usize,
    /// Qubits carrying Z or Y.
    z: usize,
    /// Number of Y factors.
    y_count: u32,
    /// Overall sign (±1).
    sign: f64,
}

impl PauliMask {
    /// The masks of a Pauli string.
    pub fn new(p: &PauliString) -> Self {
        let (mut x, mut z, mut y_count) = (0usize, 0usize, 0u32);
        for (q, pq) in p.paulis.iter().enumerate() {
            let bit = 1usize << q;
            match pq {
                Pauli::I => {}
                Pauli::X => x |= bit,
                Pauli::Y => {
                    x |= bit;
                    z |= bit;
                    y_count += 1;
                }
                Pauli::Z => z |= bit,
            }
        }
        Self {
            n: p.paulis.len(),
            x,
            z,
            y_count,
            sign: p.sign as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_circuit::c64::I as IM;
    use ca_circuit::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-10;

    #[test]
    fn hadamard_makes_plus_state() {
        let mut s = State::zero(1);
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        assert!((s.amps[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        assert!((s.amps[1].re - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        assert!((s.expect_pauli(&PauliString::parse("X").unwrap()) - 1.0).abs() < TOL);
    }

    #[test]
    fn bell_state_via_cx() {
        let mut s = State::zero(2);
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        s.apply_2q(&Gate::Cx.matrix2().unwrap(), 0, 1);
        assert!((s.expect_pauli(&PauliString::parse("ZZ").unwrap()) - 1.0).abs() < TOL);
        assert!((s.expect_pauli(&PauliString::parse("XX").unwrap()) - 1.0).abs() < TOL);
        assert!(s.expect_pauli(&PauliString::parse("ZI").unwrap()).abs() < TOL);
    }

    #[test]
    fn apply_2q_respects_qubit_order() {
        // CX with control 1, target 0 on |01⟩ (qubit1=0, qubit0=1):
        // index 1 → control clear → unchanged.
        let mut s = State::basis(2, 1);
        s.apply_2q(&Gate::Cx.matrix2().unwrap(), 1, 0);
        assert!(s.amps[1].approx_eq(ONE, TOL));
        // |10⟩ (index 2, qubit1=1): flips qubit 0 → |11⟩ (index 3).
        let mut s = State::basis(2, 2);
        s.apply_2q(&Gate::Cx.matrix2().unwrap(), 1, 0);
        assert!(s.amps[3].approx_eq(ONE, TOL));
    }

    #[test]
    fn rz_diag_matches_dense() {
        let mut a = State::zero(2);
        a.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        a.apply_1q(&Gate::H.matrix1().unwrap(), 1);
        let mut b = a.clone();
        a.apply_rz(0.37, 1);
        b.apply_1q(&Gate::Rz(0.37).matrix1().unwrap(), 1);
        for (x, y) in a.amps.iter().zip(b.amps.iter()) {
            assert!(x.approx_eq(*y, TOL));
        }
    }

    #[test]
    fn rzz_diag_matches_dense() {
        let mut a = State::zero(2);
        a.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        a.apply_1q(&Gate::H.matrix1().unwrap(), 1);
        let mut b = a.clone();
        a.apply_rzz(0.81, 0, 1);
        b.apply_2q(&Gate::Rzz(0.81).matrix2().unwrap(), 0, 1);
        for (x, y) in a.amps.iter().zip(b.amps.iter()) {
            assert!(x.approx_eq(*y, TOL));
        }
    }

    #[test]
    fn measurement_statistics() {
        let mut ones = 0;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            let mut s = State::zero(1);
            s.apply_1q(&Gate::Ry(1.0).matrix1().unwrap(), 0);
            if s.measure(0, &mut rng) {
                ones += 1;
            }
        }
        let expect = (0.5f64).sin().powi(2); // sin²(θ/2), θ=1.
        let freq = ones as f64 / 2000.0;
        assert!((freq - expect).abs() < 0.04, "freq {freq} vs {expect}");
    }

    #[test]
    fn projection_collapses() {
        let mut s = State::zero(2);
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        s.apply_2q(&Gate::Cx.matrix2().unwrap(), 0, 1);
        s.project(0, true);
        assert!((s.prob_one(1) - 1.0).abs() < TOL);
        assert!((s.norm_sqr() - 1.0).abs() < TOL);
    }

    /// A damping-only flush of qubit 0 over `γ`, its branch drawn
    /// from `rng`.
    fn damp(s: &mut State, gamma: f64, rng: &mut StdRng) {
        let d = Decay {
            damping: Some((gamma, rng.random())),
            kick: false,
        };
        s.flush(&mut DiagTable::new(&[0]), &[d], FlushGate::None);
    }

    #[test]
    fn amplitude_damping_relaxes_excited_state() {
        // γ = 1: the excited state must fully decay to |0⟩.
        let mut s = State::basis(1, 1);
        damp(&mut s, 1.0, &mut StdRng::seed_from_u64(1));
        assert!((s.prob_one(0)).abs() < TOL);
    }

    #[test]
    fn kraus_statistics_partial_damping() {
        let g = 0.3f64;
        let mut rng = StdRng::seed_from_u64(7);
        let mut decayed = 0;
        for _ in 0..3000 {
            let mut s = State::basis(1, 1);
            damp(&mut s, g, &mut rng);
            if s.prob_one(0) < 0.5 {
                decayed += 1;
            }
        }
        let freq = decayed as f64 / 3000.0;
        assert!((freq - g).abs() < 0.03, "freq {freq} vs {g}");
    }

    #[test]
    fn expect_pauli_y() {
        let mut s = State::zero(1);
        // S·H|0⟩ = |+i⟩, the +1 eigenstate of Y.
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        s.apply_1q(&Gate::S.matrix1().unwrap(), 0);
        assert!((s.expect_pauli(&PauliString::parse("Y").unwrap()) - 1.0).abs() < TOL);
        // Signed string flips the expectation.
        assert!((s.expect_pauli(&PauliString::parse("-Y").unwrap()) + 1.0).abs() < TOL);
    }

    #[test]
    fn sample_index_distribution() {
        let mut s = State::zero(1);
        s.apply_1q(&Gate::H.matrix1().unwrap(), 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ones = 0;
        for _ in 0..2000 {
            ones += s.sample_index(&mut rng);
        }
        assert!((ones as f64 / 2000.0 - 0.5).abs() < 0.04);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = State::basis(1, 0);
        let b = State::basis(1, 1);
        assert!(a.fidelity(&b).abs() < TOL);
        assert!((a.fidelity(&a) - 1.0).abs() < TOL);
    }

    /// A normalised pseudo-random state.
    fn random_state(n: usize, seed: u64) -> State {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = State::zero(n);
        for a in &mut s.amps {
            *a = C64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5);
        }
        s.renormalize();
        s
    }

    fn assert_close(a: &State, b: &State, tol: f64, what: &str) {
        for (i, (x, y)) in a.amps.iter().zip(&b.amps).enumerate() {
            assert!(
                x.approx_eq(*y, tol),
                "{what}: amplitude {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// One target's decoherence as separate passes: the Kraus branch
    /// picked by `r` against the explicit `K0` weight, applied, and
    /// renormalised; then the dephasing kick.
    fn decay_sequential(s: &mut State, q: usize, d: Decay) {
        if let Some((g, r)) = d.damping {
            let [k0, k1] = crate::noise::amplitude_damping_kraus(g);
            let mut kept = s.clone();
            kept.apply_1q(&k0, q);
            if r < kept.norm_sqr() {
                *s = kept;
            } else {
                s.apply_1q(&k1, q);
            }
            s.renormalize();
        }
        if d.kick {
            s.apply_rz(std::f64::consts::PI, q);
        }
    }

    /// Every decay a flush target can see: no damping, the no-jump
    /// branch (`r = 0`), the jump branch (`r` above any `K0` weight
    /// at γ = 0.35), each with and without a kick.
    fn decays() -> Vec<Decay> {
        let mut out = Vec::new();
        for damping in [None, Some((0.35, 0.0)), Some((0.35, 0.999_999))] {
            for kick in [false, true] {
                out.push(Decay { damping, kick });
            }
        }
        out
    }

    #[test]
    fn fused_flush_matches_sequential_passes_one_target() {
        let n = DiagTable::MAX_QUBITS + 1;
        let q = 3;
        let nbrs: Vec<usize> = (0..n).filter(|&x| x != q).collect();
        let gate = Gate::U {
            theta: 0.7,
            phi: -0.4,
            lam: 1.9,
        }
        .matrix1()
        .unwrap();
        for k in 0..DiagTable::MAX_QUBITS {
            for (case, d) in decays().into_iter().enumerate() {
                for with_gate in [false, true] {
                    let start = random_state(n, 100 + k as u64);
                    let mut reference = start.clone();
                    reference.apply_rz(0.3, q);
                    let mut table = DiagTable::new(&[q]);
                    table.rz(q, 0.3);
                    for (j, &b) in nbrs.iter().take(k).enumerate() {
                        let theta = 0.2 + 0.37 * j as f64;
                        reference.apply_rzz(theta, q, b);
                        assert!(table.rzz(q, b, theta));
                    }
                    decay_sequential(&mut reference, q, d);
                    let fold = if with_gate {
                        reference.apply_1q(&gate, q);
                        FlushGate::One(&gate)
                    } else {
                        FlushGate::None
                    };
                    let mut fused = start;
                    fused.flush(&mut table, &[d], fold);
                    let what = format!("k={k} case={case} gate={with_gate}");
                    assert_close(&fused, &reference, 1e-12, &what);
                }
            }
        }
        // A full table refuses one more neighbour and stays unchanged.
        let mut table = DiagTable::new(&[q]);
        for &b in nbrs.iter().take(DiagTable::MAX_QUBITS - 1) {
            assert!(table.rzz(q, b, 0.1));
        }
        let before = table.entries.clone();
        assert!(!table.rzz(q, nbrs[DiagTable::MAX_QUBITS - 1], 0.1));
        assert_eq!(table.entries, before);
    }

    #[test]
    fn fused_flush_matches_sequential_passes_two_targets() {
        let n = 7;
        // Targets out of index order exercise the operand convention.
        let (a, b) = (5, 2);
        let gate = Gate::Ecr.matrix2().unwrap();
        let edges_a = [(a, b, 0.41), (a, 0, 0.23), (a, 6, -0.6)];
        let edges_b = [(b, 1, 0.9), (b, 6, 0.15)];
        for (ca, &da) in decays().iter().enumerate() {
            for (cb, &db) in decays().iter().enumerate() {
                let start = random_state(n, 7 + (6 * ca + cb) as u64);
                let mut table = DiagTable::new(&[a, b]);
                let mut reference = start.clone();
                for (q, rz, edges, d) in [(a, 0.3, &edges_a[..], da), (b, -1.1, &edges_b[..], db)] {
                    reference.apply_rz(rz, q);
                    table.rz(q, rz);
                    for &(x, y, theta) in edges {
                        reference.apply_rzz(theta, x, y);
                        assert!(table.rzz(x, y, theta));
                    }
                    decay_sequential(&mut reference, q, d);
                }
                reference.apply_2q(&gate, a, b);
                let mut fused = start;
                fused.flush(&mut table, &[da, db], FlushGate::Two(&gate));
                assert_close(&fused, &reference, 1e-12, &format!("cases {ca}/{cb}"));
            }
        }
    }

    /// The per-qubit Pauli walk `expect_masked` replaced: a test-only
    /// reference.
    fn expect_pauli_naive(s: &State, p: &PauliString) -> f64 {
        let mut acc = 0.0;
        for (i, a) in s.amps.iter().enumerate() {
            let (mut j, mut phase) = (i, C64::real(1.0));
            for (q, pq) in p.paulis.iter().enumerate() {
                let bit = 1usize << q;
                let one = i & bit != 0;
                match pq {
                    Pauli::I => {}
                    Pauli::X => j ^= bit,
                    Pauli::Y => {
                        j ^= bit;
                        phase *= if one { -IM } else { IM };
                    }
                    Pauli::Z => {
                        if one {
                            phase = -phase;
                        }
                    }
                }
            }
            acc += (s.amps[j].conj() * phase * *a).re;
        }
        acc * p.sign as f64
    }

    #[test]
    fn masked_expectation_matches_naive_reference() {
        let s = random_state(3, 21);
        let ps = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];
        for code in 0..64 {
            for sign in [1i8, -1] {
                let p = PauliString {
                    paulis: (0..3).map(|q| ps[code >> (2 * q) & 3]).collect(),
                    sign,
                };
                let (got, want) = (s.expect_pauli(&p), expect_pauli_naive(&s, &p));
                assert!((got - want).abs() < 1e-12, "{p:?}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn prob_pair_sums_to_norm() {
        let mut s = random_state(5, 3);
        for a in &mut s.amps {
            *a = a.scale(1.3);
        }
        for q in 0..5 {
            let (p0, p1) = s.prob_pair(q);
            assert!((p0 + p1 - s.norm_sqr()).abs() < 1e-12);
            let naive: f64 = (0..32)
                .filter(|i| i >> q & 1 == 1)
                .map(|i| s.amps[i].norm_sqr())
                .sum();
            assert!((p1 - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_pauli_matches_gate_matrices() {
        for (p, g) in [
            (Pauli::I, Gate::I),
            (Pauli::X, Gate::X),
            (Pauli::Y, Gate::Y),
            (Pauli::Z, Gate::Z),
        ] {
            for q in 0..3 {
                let mut a = random_state(3, 5);
                let mut b = a.clone();
                a.apply_pauli(p, q);
                b.apply_1q(&g.matrix1().unwrap(), q);
                assert_close(&a, &b, 0.0, &format!("{p:?} on {q}"));
            }
        }
    }
}
