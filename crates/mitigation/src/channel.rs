//! Sparse Pauli channels over the disjoint partitions of a layer.
//!
//! A learned layer channel is modelled as a tensor product of small
//! Pauli channels, one per partition (a gate pair, an adjacent idle
//! pair, or an idle single — the same disjoint cover the
//! layer-fidelity protocol measures). Each partition channel is a
//! probability distribution over the `4^k` Paulis on its `k ≤ 2`
//! qubits, indexed base-4 (qubit `j` of the partition contributes
//! `pauli.index() · 4^j`).
//!
//! The two natural bases are connected by a signed Walsh–Hadamard
//! transform: the channel's *Pauli fidelities* are
//! `f_b = Σ_a (−1)^{⟨a,b⟩} p_a` with `⟨a,b⟩` the symplectic product
//! (1 when the Paulis anticommute), and the transform is its own
//! inverse up to `4^{−k}`. Cycle benchmarking measures `f`, PEC needs
//! `p` (and `1/f` — see [`crate::invert()`]); everything in this module
//! is exact arithmetic on those vectors.

use ca_circuit::Pauli;

/// Per-qubit Pauli factors of a base-4 partition Pauli index.
pub fn index_paulis(index: usize, k: usize) -> Vec<Pauli> {
    (0..k)
        .map(|j| Pauli::from_index(index >> (2 * j) & 3))
        .collect()
}

/// The non-identity Pauli factors of a partition index resolved to
/// the partition's (global) qubits — the form insertions and error
/// descriptions use.
pub fn index_paulis_on(index: usize, qubits: &[usize]) -> Vec<(usize, Pauli)> {
    index_paulis(index, qubits.len())
        .into_iter()
        .zip(qubits.iter())
        .filter(|(p, _)| *p != Pauli::I)
        .map(|(p, &q)| (q, p))
        .collect()
}

/// Symplectic product of two partition Pauli indices: true when the
/// corresponding Pauli strings anticommute.
pub fn anticommutes(a: usize, b: usize, k: usize) -> bool {
    let mut parity = false;
    for j in 0..k {
        let pa = Pauli::from_index(a >> (2 * j) & 3);
        let pb = Pauli::from_index(b >> (2 * j) & 3);
        if !pa.commutes_with(pb) {
            parity = !parity;
        }
    }
    parity
}

/// Pauli-string product of two partition indices, signs dropped
/// (distributions don't carry phases): per-qubit symplectic XOR.
pub fn product_index(a: usize, b: usize, k: usize) -> usize {
    let mut out = 0usize;
    for j in 0..k {
        let pa = Pauli::from_index(a >> (2 * j) & 3);
        let pb = Pauli::from_index(b >> (2 * j) & 3);
        let (_, p) = pa.mul(pb);
        out |= p.index() << (2 * j);
    }
    out
}

/// Pauli fidelities of a probability vector: `f_b = Σ_a ±p_a`.
pub fn probs_to_fidelities(probs: &[f64]) -> Vec<f64> {
    let _s = ca_obs::span("channel", "wht").with_arg("len", probs.len() as f64);
    let k = partition_width(probs.len());
    (0..probs.len())
        .map(|b| {
            probs
                .iter()
                .enumerate()
                .map(|(a, &p)| if anticommutes(a, b, k) { -p } else { p })
                .sum()
        })
        .collect()
}

/// Inverse transform: `p_a = 4^{−k} Σ_b ±f_b`. Exact when the
/// fidelities came from a genuine distribution; fitted fidelities may
/// produce small negatives (see [`PartitionChannel::from_fidelities`]).
pub fn fidelities_to_probs(fidelities: &[f64]) -> Vec<f64> {
    let _s = ca_obs::span("channel", "wht").with_arg("len", fidelities.len() as f64);
    let k = partition_width(fidelities.len());
    let norm = 1.0 / fidelities.len() as f64;
    (0..fidelities.len())
        .map(|a| {
            norm * fidelities
                .iter()
                .enumerate()
                .map(|(b, &f)| if anticommutes(a, b, k) { -f } else { f })
                .sum::<f64>()
        })
        .collect()
}

/// Number of qubits `k` with `4^k == len` (panics on non-powers —
/// internal vectors are always built with valid lengths).
fn partition_width(len: usize) -> usize {
    let mut k = 0;
    let mut size = 1;
    while size < len {
        size *= 4;
        k += 1;
    }
    assert_eq!(size, len, "partition vector length must be a power of 4");
    k
}

/// A Pauli channel on one partition's qubits: a probability
/// distribution over the `4^k` partition Paulis.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionChannel {
    /// The partition's qubits (global indices), base-4 digit order.
    pub qubits: Vec<usize>,
    /// `probs[a]` = probability of Pauli error `a`; sums to 1.
    pub probs: Vec<f64>,
}

impl PartitionChannel {
    /// The identity channel (no error) on the given qubits.
    pub fn identity(qubits: Vec<usize>) -> Self {
        let mut probs = vec![0.0; 1 << (2 * qubits.len())];
        probs[0] = 1.0;
        Self { qubits, probs }
    }

    /// Builds the channel from fitted Pauli fidelities (`f_0` is
    /// forced to 1). Statistical noise in the fits can push the
    /// transformed probabilities slightly negative; those are clamped
    /// to zero and the vector renormalized, so the result is always a
    /// valid distribution — the projection step every sparse-model
    /// noise learner performs.
    pub fn from_fidelities(qubits: Vec<usize>, fidelities: &[f64]) -> Self {
        assert_eq!(fidelities.len(), 1 << (2 * qubits.len()));
        let mut f = fidelities.to_vec();
        f[0] = 1.0;
        let mut probs = fidelities_to_probs(&f);
        for p in &mut probs {
            if *p < 0.0 || !p.is_finite() {
                *p = 0.0;
            }
        }
        let total: f64 = probs.iter().sum();
        if total <= 0.0 {
            // Pathological fit (all mass clamped away): fall back to
            // the identity channel rather than divide by zero.
            return Self::identity(qubits);
        }
        for p in &mut probs {
            *p /= total;
        }
        Self { qubits, probs }
    }

    /// Number of qubits in the partition.
    pub fn width(&self) -> usize {
        self.qubits.len()
    }

    /// The channel's (cleaned) Pauli fidelities.
    pub fn fidelities(&self) -> Vec<f64> {
        probs_to_fidelities(&self.probs)
    }

    /// Mean Pauli fidelity over the non-identity Paulis — the
    /// per-partition λ the layer-fidelity protocol's decay average
    /// estimates.
    pub fn mean_nonidentity_fidelity(&self) -> f64 {
        let f = self.fidelities();
        f.iter().skip(1).sum::<f64>() / (f.len() - 1) as f64
    }

    /// The Pauli factors of error index `a` on the partition's
    /// (global) qubits, identities skipped.
    pub fn error_paulis(&self, a: usize) -> Vec<(usize, Pauli)> {
        index_paulis_on(a, &self.qubits)
    }

    /// Composes `self` after `other` (order irrelevant for Pauli
    /// channels): the XOR-convolution of the two distributions.
    pub fn compose(&self, other: &PartitionChannel) -> PartitionChannel {
        assert_eq!(self.qubits, other.qubits);
        let k = self.width();
        let mut probs = vec![0.0; self.probs.len()];
        for (a, &pa) in self.probs.iter().enumerate() {
            for (b, &pb) in other.probs.iter().enumerate() {
                probs[product_index(a, b, k)] += pa * pb;
            }
        }
        PartitionChannel {
            qubits: self.qubits.clone(),
            probs,
        }
    }
}

/// The learned noise channel of one layer: a tensor product of
/// independent partition channels covering every qubit.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerChannel {
    /// Per-partition channels (disjoint supports).
    pub partitions: Vec<PartitionChannel>,
}

impl LayerChannel {
    /// The layer-fidelity estimate implied by the learned channel:
    /// the product over partitions of the mean non-identity Pauli
    /// fidelity — the quantity the Fig. 8 protocol's per-partition
    /// decay averages multiply into LF.
    pub fn layer_fidelity(&self) -> f64 {
        self.partitions
            .iter()
            .map(PartitionChannel::mean_nonidentity_fidelity)
            .product()
    }

    /// Total error probability per layer application:
    /// `1 − Π p_I` over partitions.
    pub fn error_probability(&self) -> f64 {
        1.0 - self.partitions.iter().map(|p| p.probs[0]).product::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anticommutation_matches_pauli_algebra() {
        // 1q: X vs Z anticommute, X vs X commute, I commutes with all.
        assert!(anticommutes(1, 3, 1));
        assert!(!anticommutes(1, 1, 1));
        assert!(!anticommutes(0, 2, 1));
        // 2q: XX vs ZZ — two anticommuting factors — commutes overall.
        let xx = 0b0101; // X on both qubits
        let zz = 0b1111; // Z on both qubits
        assert!(!anticommutes(xx, zz, 2));
        // XI vs ZI anticommutes.
        assert!(anticommutes(1, 3, 2));
    }

    #[test]
    fn transform_round_trips() {
        for k in [1usize, 2] {
            let len = 1 << (2 * k);
            // A deterministic, normalized pseudo-random distribution.
            let mut probs: Vec<f64> = (0..len).map(|i| 1.0 + ((i as f64 * 2.399) % 1.0)).collect();
            let total: f64 = probs.iter().sum();
            for p in &mut probs {
                *p /= total;
            }
            let f = probs_to_fidelities(&probs);
            assert!((f[0] - 1.0).abs() < 1e-12, "f_I is the total mass");
            let back = fidelities_to_probs(&f);
            for (a, b) in probs.iter().zip(back.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn known_single_qubit_channel_fidelities() {
        // Z-flip with probability p: f_X = f_Y = 1−2p, f_Z = 1.
        let p = 0.07;
        let ch = PartitionChannel {
            qubits: vec![0],
            probs: vec![1.0 - p, 0.0, 0.0, p],
        };
        let f = ch.fidelities();
        assert!((f[1] - (1.0 - 2.0 * p)).abs() < 1e-12);
        assert!((f[2] - (1.0 - 2.0 * p)).abs() < 1e-12);
        assert!((f[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_fidelities_projects_to_a_distribution() {
        // Inconsistent (noisy) fidelities would give a negative
        // probability; the constructor must clamp and renormalize.
        let f = [1.0, 0.9, 0.99, 0.99];
        let ch = PartitionChannel::from_fidelities(vec![2], &f);
        let total: f64 = ch.probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(ch.probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn compose_with_identity_is_identity_op() {
        let ch = PartitionChannel {
            qubits: vec![0, 1],
            probs: {
                let mut p = vec![0.0; 16];
                p[0] = 0.9;
                p[5] = 0.06; // XX
                p[15] = 0.04; // ZZ
                p
            },
        };
        let id = PartitionChannel::identity(vec![0, 1]);
        assert_eq!(ch.compose(&id), ch);
        // Composing with itself doubles the error to first order and
        // the XX·XX products return mass to identity.
        let twice = ch.compose(&ch);
        assert!(twice.probs[0] < ch.probs[0]);
        assert!((twice.probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn layer_fidelity_multiplies_partitions() {
        let a = PartitionChannel {
            qubits: vec![0],
            probs: vec![0.95, 0.0, 0.0, 0.05],
        };
        let b = PartitionChannel::identity(vec![1]);
        let layer = LayerChannel {
            partitions: vec![a.clone(), b],
        };
        assert!((layer.layer_fidelity() - a.mean_nonidentity_fidelity()).abs() < 1e-12);
        assert!((layer.error_probability() - 0.05).abs() < 1e-12);
    }
}
