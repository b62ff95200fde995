#![forbid(unsafe_code)]
//! # ca-mitigation
//!
//! Noise learning and probabilistic error cancellation (PEC) — the
//! mitigation consequence of the paper's Fig. 8 (Secs. V-B/C): once a
//! layer's residual twirled noise is learned as a sparse Pauli
//! channel, the channel can be *inverted* as a quasi-probability
//! distribution and cancelled by sampling signed Pauli insertions,
//! at a sampling cost governed by γ — which is exactly what
//! context-aware compiling shrinks (γ 2.38 → 1.81 → 1.48 → 1.29 from
//! bare → DD → CA-DD → CA-EC).
//!
//! The pipeline, one module per stage:
//!
//! * [`channel`] — sparse per-partition Pauli channels and the
//!   Walsh–Hadamard transform between error probabilities and Pauli
//!   fidelities;
//! * [`learn`] — the cycle-benchmarking-style learner: prepares Pauli
//!   eigenstates on the disjoint partitions of a layer, tracks them
//!   through `d` twirled layer applications, and fits the
//!   exponential decay of every Pauli fidelity with
//!   [`ca_metrics::fit_decay`];
//! * [`mod@invert`] — the quasi-probability inverter with exact γ
//!   accounting (`γ = Σ|q|`, always ≥ 1, multiplicative over
//!   partitions and layer applications);
//! * [`pec`] — the PEC executor: draws inverse-channel Pauli
//!   insertions per shot, runs **one** compiled plan for all sampled
//!   instances via the session's plan cache
//!   ([`ca_sim::Session::compiled`] → [`ca_sim::CompiledCircuit`]),
//!   and returns the sign-weighted mitigated expectation with its
//!   γ-amplified standard error.
//!
//! Everything is deterministic for a fixed seed, and the execution
//! path inherits the frame engines' bit-identity guarantee: PEC
//! counts are identical between the serial stabilizer engine and the
//! bit-parallel batch engine for any seed, shot count, and worker
//! count.

#![warn(missing_docs)]

pub mod channel;
pub mod error;
pub mod invert;
pub mod learn;
pub mod pec;

pub use channel::{LayerChannel, PartitionChannel};
pub use error::MitigationError;
pub use invert::{invert, invert_clamped, QuasiChannel, QuasiPartition, MIN_INVERTIBLE_FIDELITY};
pub use learn::{
    layer_circuit, learn_layer_channel, propagate_through_layers, LearnConfig, LearnedLayer,
};
pub use pec::{layer_anchor_items, mitigate_pauli, PecConfig, PecRun};
