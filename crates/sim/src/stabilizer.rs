//! CHP-style stabilizer tableau with bit-packed rows.
//!
//! The tableau tracks `2n` signed Pauli rows (n destabilizers, then n
//! stabilizers) over bit-packed X/Z columns, in the *Hermitian letter*
//! convention: a row is `i^k · P₀⊗P₁⊗…` with literal Pauli letters
//! (the `(x,z) = (1,1)` pattern *is* Y, not XZ) and a 2-bit phase
//! exponent `k`. Stabilizer rows always carry `k ∈ {0, 2}` (±1);
//! destabilizer rows may hold odd `k`, which is irrelevant — only
//! their anticommutation pattern matters.
//!
//! Gates are applied through the numerically derived conjugation
//! tables of [`ca_circuit::clifford`] — any Clifford in the gate set
//! works, with no hand-coded update rules to get wrong. Cost is
//! O(n) per gate, O(n²) per measurement, independent of 2ⁿ: this is
//! what unlocks 100+ qubit heavy-hex devices.

use ca_circuit::clifford::Table2Q;
use ca_circuit::pauli::{Pauli, PauliString};
use rand::RngExt;

/// A stabilizer tableau over `n` qubits.
#[derive(Clone, Debug)]
pub struct Tableau {
    n: usize,
    /// Words per row: `ceil(n / 64)`.
    words: usize,
    /// X bits, row-major (`2n` rows).
    xs: Vec<u64>,
    /// Z bits, row-major (`2n` rows).
    zs: Vec<u64>,
    /// Per-row phase exponent `k` of `i^k`, mod 4.
    phases: Vec<u8>,
}

#[inline]
fn bit(v: &[u64], q: usize) -> bool {
    v[q / 64] >> (q % 64) & 1 == 1
}

/// The `(x, z)` bit pattern of a Pauli letter in the Hermitian-letter
/// symplectic convention used throughout the sim crate: `(1, 1)` *is*
/// the literal `Y` (not the `XZ` product). The single source of truth
/// for both the tableau and the frame sampler.
#[inline]
pub fn pauli_to_bits(p: Pauli) -> (bool, bool) {
    match p {
        Pauli::I => (false, false),
        Pauli::X => (true, false),
        Pauli::Y => (true, true),
        Pauli::Z => (false, true),
    }
}

/// Phase contribution (mod 4) of multiplying 64 Pauli letter pairs at
/// once: `src` letters `(x2, z2)` left-multiplied onto `dst` letters
/// `(x1, z1)`. Each non-trivial unequal pair contributes `i^±1`; the
/// six cases split into a `+1` mask (X·Y, Y·Z, Z·X) and a `−1` mask
/// (X·Z, Y·X, Z·Y), so the total is a pair of popcounts. Matches
/// `Pauli::mul` bit-for-bit by construction.
#[inline]
fn mul_phase_word(x2: u64, z2: u64, x1: u64, z1: u64) -> u32 {
    let plus = (x2 & !z2 & x1 & z1) | (x2 & z2 & !x1 & z1) | (!x2 & z2 & x1 & !z1);
    let minus = (x2 & !z2 & !x1 & z1) | (x2 & z2 & x1 & !z1) | (!x2 & z2 & x1 & z1);
    plus.count_ones() + 3 * minus.count_ones()
}

/// Inverse of [`pauli_to_bits`].
#[inline]
pub fn pauli_from_bits(x: bool, z: bool) -> Pauli {
    match (x, z) {
        (false, false) => Pauli::I,
        (true, false) => Pauli::X,
        (true, true) => Pauli::Y,
        (false, true) => Pauli::Z,
    }
}

/// Packs a Pauli string's letters into X/Z word masks.
pub fn pack_pauli(p: &PauliString) -> (Vec<u64>, Vec<u64>) {
    let words = p.paulis.len().div_ceil(64).max(1);
    let mut px = vec![0u64; words];
    let mut pz = vec![0u64; words];
    for (q, &pl) in p.paulis.iter().enumerate() {
        let (x, z) = pauli_to_bits(pl);
        if x {
            px[q / 64] |= 1 << (q % 64);
        }
        if z {
            pz[q / 64] |= 1 << (q % 64);
        }
    }
    (px, pz)
}

impl Tableau {
    /// The |0…0⟩ tableau: destabilizer `i` = `Xᵢ`, stabilizer `i` = `Zᵢ`.
    pub fn zero(n: usize) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let words = n.div_ceil(64);
        let mut t = Self {
            n,
            words,
            xs: vec![0; 2 * n * words],
            zs: vec![0; 2 * n * words],
            phases: vec![0; 2 * n],
        };
        for i in 0..n {
            t.xs[i * words + i / 64] |= 1 << (i % 64);
            t.zs[(n + i) * words + i / 64] |= 1 << (i % 64);
        }
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    fn row(&self, r: usize) -> (&[u64], &[u64]) {
        let s = r * self.words;
        (&self.xs[s..s + self.words], &self.zs[s..s + self.words])
    }

    #[inline]
    fn get(&self, r: usize, q: usize) -> Pauli {
        let s = r * self.words;
        pauli_from_bits(bit(&self.xs[s..], q), bit(&self.zs[s..], q))
    }

    #[inline]
    fn set(&mut self, r: usize, q: usize, p: Pauli) {
        let idx = r * self.words + q / 64;
        let mask = 1u64 << (q % 64);
        let (x, z) = pauli_to_bits(p);
        if x {
            self.xs[idx] |= mask;
        } else {
            self.xs[idx] &= !mask;
        }
        if z {
            self.zs[idx] |= mask;
        } else {
            self.zs[idx] &= !mask;
        }
    }

    /// Applies a single-qubit Clifford on `q` via its conjugation
    /// table (see [`ca_circuit::clifford::conjugation_table_1q`]).
    pub fn apply_1q(&mut self, table: &[(i8, Pauli); 4], q: usize) {
        for r in 0..2 * self.n {
            let p0 = self.get(r, q);
            // U I U† = I with sign +1: rows acting trivially on `q`
            // (the vast majority in shallow circuits) are unchanged.
            if p0 == Pauli::I {
                continue;
            }
            let (s, p) = table[p0.index()];
            self.set(r, q, p);
            if s < 0 {
                self.phases[r] = (self.phases[r] + 2) % 4;
            }
        }
    }

    /// Applies a two-qubit Clifford on `(a, b)` via its conjugation
    /// table, with `a` the first listed operand.
    pub fn apply_2q(&mut self, table: &Table2Q, a: usize, b: usize) {
        assert_ne!(a, b);
        for r in 0..2 * self.n {
            let idx = self.get(r, a).index() + 4 * self.get(r, b).index();
            // U (I⊗I) U† = I⊗I with sign +1: rows acting trivially on
            // the pair (outside the circuit's light cone) are
            // unchanged.
            if idx == 0 {
                continue;
            }
            let (s, (pa, pb)) = table[idx];
            self.set(r, a, pa);
            self.set(r, b, pb);
            if s < 0 {
                self.phases[r] = (self.phases[r] + 2) % 4;
            }
        }
    }

    /// Conjugates every row by the packed Pauli `(px, pz)`: letters
    /// are unchanged and rows anticommuting with the Pauli flip sign.
    /// This folds a deferred Pauli frame into the tableau in one
    /// O(n²/64) sweep instead of one O(n) row pass per deferred gate.
    pub(crate) fn conjugate_by_pauli(&mut self, px: &[u64], pz: &[u64]) {
        for r in 0..2 * self.n {
            if self.row_anticommutes(r, px, pz) {
                self.phases[r] = (self.phases[r] + 2) % 4;
            }
        }
    }

    /// True when row `r` anticommutes with the packed Pauli
    /// `(px, pz)` masks.
    fn row_anticommutes(&self, r: usize, px: &[u64], pz: &[u64]) -> bool {
        let (rx, rz) = self.row(r);
        let mut acc = 0u64;
        for w in 0..self.words {
            acc ^= (rx[w] & pz[w]) ^ (rz[w] & px[w]);
        }
        acc.count_ones() % 2 == 1
    }

    /// Left-multiplies row `dst` by row `src`: `row_dst ← row_src · row_dst`.
    ///
    /// Word-parallel: letters XOR in the symplectic picture, and the
    /// `i^k` letter-product phases reduce to popcounts of two masks
    /// (see [`mul_phase_word`]) — the same arithmetic as the scalar
    /// `Pauli::mul` loop, 64 qubits at a time.
    fn row_mul(&mut self, dst: usize, src: usize) {
        let (ds, ss) = (dst * self.words, src * self.words);
        let mut k = (self.phases[src] + self.phases[dst]) as u32;
        for w in 0..self.words {
            let x2 = self.xs[ss + w];
            let z2 = self.zs[ss + w];
            let x1 = self.xs[ds + w];
            let z1 = self.zs[ds + w];
            k += mul_phase_word(x2, z2, x1, z1);
            self.xs[ds + w] = x1 ^ x2;
            self.zs[ds + w] = z1 ^ z2;
        }
        self.phases[dst] = (k % 4) as u8;
    }

    fn copy_row(&mut self, dst: usize, src: usize) {
        let (ds, ss) = (dst * self.words, src * self.words);
        for w in 0..self.words {
            self.xs[ds + w] = self.xs[ss + w];
            self.zs[ds + w] = self.zs[ss + w];
        }
        self.phases[dst] = self.phases[src];
    }

    fn clear_row(&mut self, r: usize) {
        let s = r * self.words;
        for w in 0..self.words {
            self.xs[s + w] = 0;
            self.zs[s + w] = 0;
        }
        self.phases[r] = 0;
    }

    /// Measures qubit `q` in the Z basis (collapsing); returns the
    /// outcome. Random outcomes are drawn from `rng`.
    pub fn measure(&mut self, q: usize, rng: &mut impl RngExt) -> bool {
        let n = self.n;
        let qw = q / 64;
        let qm = 1u64 << (q % 64);
        let p = (n..2 * n).find(|&r| self.xs[r * self.words + qw] & qm != 0);
        if let Some(p) = p {
            // Random outcome: Z_q anticommutes with stabilizer row p.
            let outcome = rng.random::<bool>();
            for r in 0..2 * n {
                if r != p && self.xs[r * self.words + qw] & qm != 0 {
                    self.row_mul(r, p);
                }
            }
            self.copy_row(p - n, p);
            self.clear_row(p);
            self.set(p, q, Pauli::Z);
            self.phases[p] = if outcome { 2 } else { 0 };
            outcome
        } else {
            // Deterministic: ±Z_q is in the stabilizer group. Multiply
            // the stabilizers indexed by destabilizers hitting q,
            // word-parallel (same arithmetic as `row_mul`).
            let mut k: u32 = 0;
            let mut accx = vec![0u64; self.words];
            let mut accz = vec![0u64; self.words];
            for i in 0..n {
                if self.xs[i * self.words + qw] & qm != 0 {
                    k += self.phases[n + i] as u32;
                    let s = (n + i) * self.words;
                    for w in 0..self.words {
                        let x2 = self.xs[s + w];
                        let z2 = self.zs[s + w];
                        k += mul_phase_word(x2, z2, accx[w], accz[w]);
                        accx[w] ^= x2;
                        accz[w] ^= z2;
                    }
                }
            }
            debug_assert!(
                accx.iter().all(|&w| w == 0)
                    && accz
                        .iter()
                        .enumerate()
                        .all(|(w, &v)| v == if w == qw { qm } else { 0 }),
                "deterministic measurement row must be ±Z_q"
            );
            debug_assert!(
                (k % 4).is_multiple_of(2),
                "stabilizer element with imaginary phase"
            );
            k % 4 == 2
        }
    }

    /// Resets qubit `q` to |0⟩ (measure, classical flip if 1).
    pub fn reset(&mut self, q: usize, rng: &mut impl RngExt, x_table: &[(i8, Pauli); 4]) {
        if self.measure(q, rng) {
            self.apply_1q(x_table, q);
        }
    }

    /// Expectation of a signed Pauli string on the stabilizer state:
    /// exactly −1, 0, or +1.
    pub fn expect(&self, p: &PauliString) -> i32 {
        assert_eq!(p.paulis.len(), self.n);
        if p.is_identity() {
            return p.sign as i32;
        }
        let (px, pz) = pack_pauli(p);
        // Anticommuting with any stabilizer → expectation 0.
        for r in self.n..2 * self.n {
            if self.row_anticommutes(r, &px, &pz) {
                return 0;
            }
        }
        // Otherwise P = ±(product of the stabilizers indexed by the
        // destabilizers it anticommutes with); recover the sign,
        // word-parallel (same arithmetic as `row_mul`).
        let mut k: u32 = 0;
        let mut accx = vec![0u64; self.words];
        let mut accz = vec![0u64; self.words];
        for i in 0..self.n {
            if self.row_anticommutes(i, &px, &pz) {
                k += self.phases[self.n + i] as u32;
                let s = (self.n + i) * self.words;
                for w in 0..self.words {
                    let x2 = self.xs[s + w];
                    let z2 = self.zs[s + w];
                    k += mul_phase_word(x2, z2, accx[w], accz[w]);
                    accx[w] ^= x2;
                    accz[w] ^= z2;
                }
            }
        }
        debug_assert!(
            accx == px && accz == pz,
            "commuting Pauli must match its stabilizer decomposition"
        );
        debug_assert!((k % 4).is_multiple_of(2));
        let group_sign = if k % 4 == 2 { -1 } else { 1 };
        p.sign as i32 * group_sign
    }

    /// The `i`-th stabilizer generator as a signed Pauli string
    /// (diagnostics and tests).
    ///
    /// A stabilizer row can never hold an odd (imaginary) phase
    /// exponent on a well-formed tableau, so the conversion below
    /// treats `k ∈ {0, 2}` as exhaustive and only debug-asserts it:
    ///
    /// * rows start Hermitian (`±Zᵢ`, `k ∈ {0, 2}`);
    /// * gate application goes through the numerically derived
    ///   conjugation tables, whose signs are ±1 by construction
    ///   (`U·P·U†` of a Hermitian Pauli letter is a *signed Hermitian
    ///   letter* — conjugation preserves Hermiticity), so `k` only
    ///   ever moves by 2;
    /// * measurement updates multiply a stabilizer row only by
    ///   another *commuting* row (`row_mul` inside
    ///   [`Self::measure`] pairs rows that both anticommute with
    ///   `Z_q`), and the product of two commuting Hermitian Paulis is
    ///   Hermitian: the `i^k` letter-product phases cancel mod 2.
    ///
    /// Destabilizer rows *may* carry odd `k` (only their
    /// anticommutation pattern matters); this accessor never reads
    /// them. The invariant is exercised by the randomized
    /// `stabilizer_phases_stay_real` test below.
    pub fn stabilizer(&self, i: usize) -> PauliString {
        assert!(i < self.n);
        let r = self.n + i;
        let paulis = (0..self.n).map(|q| self.get(r, q)).collect();
        let k = self.phases[r];
        debug_assert!(
            k.is_multiple_of(2),
            "stabilizer row {i} with imaginary phase i^{k}: stabilizer rows stay \
             Hermitian under table conjugation and commuting-row products"
        );
        let sign = if k == 2 { -1 } else { 1 };
        PauliString { paulis, sign }
    }

    /// Debug/test hook: the phase exponents of all stabilizer rows.
    pub fn stabilizer_phases(&self) -> &[u8] {
        &self.phases[self.n..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::State;
    use ca_circuit::clifford::{conjugation_table_1q, conjugation_table_2q};
    use ca_circuit::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t1(g: Gate) -> [(i8, Pauli); 4] {
        conjugation_table_1q(g)
    }

    #[test]
    fn zero_state_stabilizers() {
        let t = Tableau::zero(3);
        assert_eq!(t.stabilizer(0).to_string(), "ZII");
        assert_eq!(t.stabilizer(2).to_string(), "IIZ");
        assert_eq!(t.expect(&PauliString::parse("ZZZ").unwrap()), 1);
        assert_eq!(t.expect(&PauliString::parse("XII").unwrap()), 0);
    }

    #[test]
    fn hadamard_then_measure_is_random_but_consistent() {
        let mut ones = 0;
        for seed in 0..200 {
            let mut t = Tableau::zero(1);
            t.apply_1q(&t1(Gate::H), 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let m1 = t.measure(0, &mut rng);
            // Remeasuring must reproduce the collapsed outcome.
            let m2 = t.measure(0, &mut rng);
            assert_eq!(m1, m2);
            ones += m1 as usize;
        }
        assert!(ones > 60 && ones < 140, "roughly fair: {ones}/200");
    }

    #[test]
    fn bell_pair_correlations() {
        let mut t = Tableau::zero(2);
        t.apply_1q(&t1(Gate::H), 0);
        t.apply_2q(&conjugation_table_2q(Gate::Cx), 0, 1);
        assert_eq!(t.expect(&PauliString::parse("ZZ").unwrap()), 1);
        assert_eq!(t.expect(&PauliString::parse("XX").unwrap()), 1);
        assert_eq!(t.expect(&PauliString::parse("YY").unwrap()), -1);
        assert_eq!(t.expect(&PauliString::parse("ZI").unwrap()), 0);
        // Measurements agree across the pair.
        for seed in 0..50 {
            let mut tt = t.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let a = tt.measure(0, &mut rng);
            let b = tt.measure(1, &mut rng);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ecr_matches_statevector_expectations() {
        // Drive the same circuit through the tableau and the dense
        // engine; stabilizer expectations must match exactly.
        let gates: [(Gate, usize, usize); 6] = [
            (Gate::H, 0, usize::MAX),
            (Gate::Sx, 1, usize::MAX),
            (Gate::Ecr, 0, 1),
            (Gate::S, 2, usize::MAX),
            (Gate::Ecr, 1, 2),
            (Gate::H, 2, usize::MAX),
        ];
        let mut t = Tableau::zero(3);
        let mut sv = State::zero(3);
        for &(g, a, b) in &gates {
            if b == usize::MAX {
                t.apply_1q(&t1(g), a);
                sv.apply_1q(&g.matrix1().unwrap(), a);
            } else {
                t.apply_2q(&conjugation_table_2q(g), a, b);
                sv.apply_2q(&g.matrix2().unwrap(), a, b);
            }
        }
        for s in ["XII", "IZY", "ZZI", "XYZ", "-IIZ", "YYY", "IXI"] {
            let p = PauliString::parse(s).unwrap();
            let dense = sv.expect_pauli(&p);
            let tab = t.expect(&p) as f64;
            assert!(
                (dense - tab).abs() < 1e-9,
                "{s}: dense {dense} vs tableau {tab}"
            );
        }
    }

    #[test]
    fn reset_collapses_to_zero() {
        let mut t = Tableau::zero(2);
        t.apply_1q(&t1(Gate::H), 0);
        t.apply_2q(&conjugation_table_2q(Gate::Cx), 0, 1);
        let mut rng = StdRng::seed_from_u64(9);
        t.reset(0, &mut rng, &t1(Gate::X));
        assert_eq!(t.expect(&PauliString::parse("ZI").unwrap()), 1);
    }

    #[test]
    fn deterministic_measurement_sign() {
        let mut t = Tableau::zero(1);
        t.apply_1q(&t1(Gate::X), 0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(t.measure(0, &mut rng), "|1⟩ must read 1");
        let mut t = Tableau::zero(1);
        assert!(!t.measure(0, &mut rng), "|0⟩ must read 0");
    }

    #[test]
    fn stabilizer_phases_stay_real() {
        // Randomized invariant check backing the debug assertion in
        // `stabilizer()`: under random Clifford circuits with
        // interleaved measurements/resets, every stabilizer row keeps
        // a real sign (k ∈ {0, 2}) and the generators stay mutually
        // commuting and independent (expectation of each generator on
        // its own state is +1 by definition of stabilizing).
        let one_q = [Gate::H, Gate::S, Gate::Sdg, Gate::Sx, Gate::X, Gate::Y];
        let two_q = [
            conjugation_table_2q(Gate::Cx),
            conjugation_table_2q(Gate::Cz),
            conjugation_table_2q(Gate::Ecr),
        ];
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let n = 2 + (seed as usize % 5);
            let mut t = Tableau::zero(n);
            for _ in 0..60 {
                match rng.random_range(0..10usize) {
                    0..=4 => {
                        let g = one_q[rng.random_range(0..one_q.len())];
                        t.apply_1q(&t1(g), rng.random_range(0..n));
                    }
                    5..=7 => {
                        if n >= 2 {
                            let a = rng.random_range(0..n);
                            let mut b = rng.random_range(0..n);
                            while b == a {
                                b = rng.random_range(0..n);
                            }
                            t.apply_2q(&two_q[rng.random_range(0..two_q.len())], a, b);
                        }
                    }
                    8 => {
                        t.measure(rng.random_range(0..n), &mut rng);
                    }
                    _ => {
                        t.reset(rng.random_range(0..n), &mut rng, &t1(Gate::X));
                    }
                }
                for &k in t.stabilizer_phases() {
                    assert!(k % 2 == 0, "imaginary stabilizer phase i^{k} (seed {seed})");
                }
            }
            for i in 0..n {
                let s = t.stabilizer(i);
                assert_eq!(t.expect(&s), 1, "generator {i} stabilizes its state");
                for j in 0..n {
                    assert!(
                        s.commutes_with(&t.stabilizer(j)),
                        "generators {i},{j} must commute"
                    );
                }
            }
        }
    }

    #[test]
    fn large_tableau_ghz_is_cheap() {
        // 127-qubit GHZ: far beyond any dense engine.
        let n = 127;
        let mut t = Tableau::zero(n);
        t.apply_1q(&t1(Gate::H), 0);
        let cx = conjugation_table_2q(Gate::Cx);
        for q in 1..n {
            t.apply_2q(&cx, q - 1, q);
        }
        let mut all_z = PauliString::identity(n);
        for q in 0..n {
            all_z.paulis[q] = Pauli::Z;
        }
        // Odd-size all-Z is a stabilizer product? For GHZ, Z_i Z_{i+1}
        // are stabilizers; all-Z = product of alternating pairs only
        // for even weight. Check the pairwise correlator instead plus
        // the X-string stabilizer.
        let zz01 = PauliString::parse(&format!("ZZ{}", "I".repeat(n - 2))).unwrap();
        assert_eq!(t.expect(&zz01), 1);
        let mut all_x = PauliString::identity(n);
        for q in 0..n {
            all_x.paulis[q] = Pauli::X;
        }
        assert_eq!(t.expect(&all_x), 1);
        let mut rng = StdRng::seed_from_u64(3);
        let first = t.measure(0, &mut rng);
        for q in 1..n {
            assert_eq!(t.measure(q, &mut rng), first, "GHZ correlation at {q}");
        }
    }
}
