//! Run results: classical-bit counts and derived statistics.

use std::collections::BTreeMap;

/// Counts of classical-register outcomes over a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Total shots.
    pub shots: usize,
    /// Number of classical bits in the register.
    pub num_clbits: usize,
    /// Outcome → count; keys pack bits little-endian (bit `i` of the
    /// key is classical bit `i`).
    pub counts: BTreeMap<u64, usize>,
}

/// Per-observable means from per-chunk partial sums: the single
/// aggregation point for every engine's expectations, the counterpart
/// of [`RunResult::from_parts`]. Parts are summed in the order given
/// (chunk or strip order), so the f64 result does not depend on the
/// worker count.
pub(crate) fn mean_from_parts(
    shots: usize,
    observables: usize,
    parts: impl IntoIterator<Item = Vec<f64>>,
) -> Vec<f64> {
    let mut out = vec![0.0; observables];
    for part in parts {
        for (o, p) in out.iter_mut().zip(part.iter()) {
            *o += p;
        }
    }
    for o in &mut out {
        *o /= shots as f64;
    }
    out
}

impl RunResult {
    /// Builds a result by merging partial count maps — the single
    /// aggregation point for every engine's shot fan-out (per-worker
    /// maps from the serial samplers, per-64-shot-word maps from the
    /// batch engine). Integer merges are order-independent, so the
    /// result is identical for any partitioning of the same shots.
    pub fn from_parts(
        shots: usize,
        num_clbits: usize,
        parts: impl IntoIterator<Item = BTreeMap<u64, usize>>,
    ) -> Self {
        let mut counts = BTreeMap::new();
        let mut merged = 0usize;
        for part in parts {
            for (k, v) in part {
                merged += v;
                *counts.entry(k).or_insert(0) += v;
            }
        }
        debug_assert_eq!(merged, shots, "partial counts must cover every shot");
        Self {
            shots,
            num_clbits,
            counts,
        }
    }

    /// Probability of an exact outcome pattern.
    pub fn probability(&self, pattern: u64) -> f64 {
        *self.counts.get(&pattern).unwrap_or(&0) as f64 / self.shots as f64
    }

    /// Marginal probability that classical bit `c` reads 1.
    pub fn marginal_one(&self, c: usize) -> f64 {
        let bit = 1u64 << c;
        let ones: usize = self
            .counts
            .iter()
            .filter(|(k, _)| *k & bit != 0)
            .map(|(_, v)| v)
            .sum();
        ones as f64 / self.shots as f64
    }

    /// ⟨Z⟩-style expectation of the parity of the given classical bits:
    /// `Σ (−1)^{popcount(outcome & mask)} p(outcome)`.
    pub fn parity_expectation(&self, clbits: &[usize]) -> f64 {
        let mask: u64 = clbits.iter().fold(0, |m, &c| m | (1 << c));
        let mut acc = 0.0;
        for (&k, &v) in &self.counts {
            let parity = (k & mask).count_ones() % 2;
            let sign = if parity == 0 { 1.0 } else { -1.0 };
            acc += sign * v as f64;
        }
        acc / self.shots as f64
    }

    /// Standard error of the parity expectation (binomial).
    pub fn parity_stderr(&self, clbits: &[usize]) -> f64 {
        let e = self.parity_expectation(clbits);
        ((1.0 - e * e).max(0.0) / self.shots as f64).sqrt()
    }

    /// Merges another result into this one (same register layout).
    pub fn merge(&mut self, other: &RunResult) {
        assert_eq!(self.num_clbits, other.num_clbits);
        self.shots += other.shots;
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }
}

/// Per-shot Pauli-expectation outcomes from the frame engines: for
/// each observable, the reference-tableau expectation and a bitvector
/// over shots marking which shots' frames flip its sign. This is the
/// raw material for sign-weighted estimators (probabilistic error
/// cancellation needs each shot's ±1 outcome, not just the mean), and
/// both frame engines produce it bit-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PauliFlips {
    /// Total shots.
    pub shots: usize,
    /// Reference (noiseless) expectation per observable: −1, 0, or +1.
    pub refs: Vec<i32>,
    /// `flips[obs]` is a bitvector of `ceil(shots/64)` words; bit `i`
    /// set means shot `i`'s frame anticommutes with the observable.
    pub flips: Vec<Vec<u64>>,
}

impl PauliFlips {
    /// Shot `shot`'s ±1 outcome for observable `obs` (0.0 when the
    /// reference expectation vanishes — the observable is not a
    /// stabilizer of the prepared state, so single shots carry no
    /// signal).
    pub fn value(&self, obs: usize, shot: usize) -> f64 {
        let flip = self.flips[obs][shot / 64] >> (shot % 64) & 1 == 1;
        let r = self.refs[obs] as f64;
        if flip {
            -r
        } else {
            r
        }
    }

    /// Mean outcome of observable `obs` over all shots — equals the
    /// engines' `expect_paulis` result for the same run.
    pub fn mean(&self, obs: usize) -> f64 {
        if self.refs[obs] == 0 || self.shots == 0 {
            return 0.0;
        }
        let mut flipped = 0u32;
        for (w, word) in self.flips[obs].iter().enumerate() {
            let bits_here = (self.shots - w * 64).min(64);
            let mask = if bits_here == 64 {
                u64::MAX
            } else {
                (1u64 << bits_here) - 1
            };
            flipped += (word & mask).count_ones();
        }
        let sum = self.refs[obs] as i64 * (self.shots as i64 - 2 * flipped as i64);
        sum as f64 / self.shots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(entries: &[(u64, usize)]) -> RunResult {
        let counts: BTreeMap<u64, usize> = entries.iter().copied().collect();
        let shots = counts.values().sum();
        RunResult {
            shots,
            num_clbits: 2,
            counts,
        }
    }

    #[test]
    fn probability_and_marginals() {
        let r = result(&[(0b00, 50), (0b01, 25), (0b11, 25)]);
        assert!((r.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((r.marginal_one(0) - 0.5).abs() < 1e-12);
        assert!((r.marginal_one(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn parity_expectation_signs() {
        let r = result(&[(0b00, 50), (0b11, 50)]);
        // Even parity both outcomes → ⟨ZZ⟩ = 1.
        assert!((r.parity_expectation(&[0, 1]) - 1.0).abs() < 1e-12);
        // Single-bit parity: half 0, half 1 → 0.
        assert!(r.parity_expectation(&[0]).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = result(&[(0b00, 10)]);
        let b = result(&[(0b00, 5), (0b01, 5)]);
        a.merge(&b);
        assert_eq!(a.shots, 20);
        assert_eq!(a.counts[&0b00], 15);
    }

    #[test]
    fn from_parts_merges_partition_independently() {
        let a: BTreeMap<u64, usize> = [(0b00u64, 3), (0b01, 2)].into_iter().collect();
        let b: BTreeMap<u64, usize> = [(0b01u64, 1), (0b11, 4)].into_iter().collect();
        let fwd = RunResult::from_parts(10, 2, [a.clone(), b.clone()]);
        let rev = RunResult::from_parts(10, 2, [b, a]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.counts[&0b01], 3);
        assert_eq!(fwd.shots, 10);
    }

    #[test]
    fn stderr_shrinks_with_shots() {
        let small = result(&[(0b00, 10), (0b01, 10)]);
        let big = result(&[(0b00, 1000), (0b01, 1000)]);
        assert!(big.parity_stderr(&[0]) < small.parity_stderr(&[0]));
    }

    #[test]
    fn pauli_flips_values_and_mean() {
        // 70 shots, one observable with ref +1: shots 0 and 65 flip.
        let flips = vec![vec![1u64, 1u64 << 1]];
        let pf = PauliFlips {
            shots: 70,
            refs: vec![1],
            flips,
        };
        assert_eq!(pf.value(0, 0), -1.0);
        assert_eq!(pf.value(0, 1), 1.0);
        assert_eq!(pf.value(0, 65), -1.0);
        let expect = (70.0 - 2.0 * 2.0) / 70.0;
        assert!((pf.mean(0) - expect).abs() < 1e-12);
    }

    #[test]
    fn pauli_flips_mean_masks_tail_lanes() {
        // Garbage beyond the shot count must not affect the mean.
        let pf = PauliFlips {
            shots: 3,
            refs: vec![-1],
            flips: vec![vec![u64::MAX]],
        };
        assert!((pf.mean(0) - 1.0).abs() < 1e-12);
    }
}
