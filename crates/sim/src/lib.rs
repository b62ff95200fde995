#![forbid(unsafe_code)]
//! # ca-sim
//!
//! Physics-faithful noisy simulator for scheduled circuits on
//! fixed-frequency superconducting devices — the hardware substitute
//! for the paper's IBM backends (see DESIGN.md §2).
//!
//! Three engines share one noise timeline and one execution path:
//! [`Simulator::compile`] resolves the engine ([`engine`]), builds the
//! timeline plan and precompiles the engine's program into a
//! [`CompiledCircuit`], which then runs any number of times. The
//! one-shot [`Simulator::run_counts`] / [`Simulator::expect_paulis`]
//! compile and run once.
//!
//! * **statevector** — a dense state evolved trajectory-by-trajectory:
//!   exact for all gates and for the coherent context-dependent
//!   crosstalk (always-on ZZ of Eq. 1, gate spectator Z, AC Stark, NNN
//!   collision terms) accumulated along a segmented timeline that
//!   knows the internal echo structure of each ECR gate. Exponential
//!   in qubits (≤ 24).
//! * **stabilizer** — a CHP tableau plus per-shot Pauli frames for
//!   Clifford circuits with diagonal rotations and classical
//!   feed-forward (conditional Paulis exact, conditional diagonal
//!   rotations bank-rewritten — see [`pauli_frame`]): the same
//!   pending-bank timeline, with coherent phases converted to
//!   Pauli-twirled stochastic channels at layer boundaries. Linear
//!   scaling to full-device sizes (127+ qubits).
//! * **frame-batch** — the same frame model propagated **64 shots per
//!   machine word** ([`frame_batch`]): bit-identical seeded counts to
//!   the serial stabilizer engine, tens of times faster, and the
//!   engine `Auto` picks for large Clifford and dynamic workloads.
//!
//! Stochastic processes (charge parity, quasi-static 1/f detuning,
//! T1/T2, depolarizing gate error, readout error) are sampled per
//! shot in every engine. The frame engines draw each decision as a
//! counter-based hash of `(seed, shot, site)` ([`plan::shot_key`],
//! [`plan::site_draw`]); the dense engine draws from fixed-size shot
//! chunks with their own seeded streams ([`plan::map_shots`]). Either
//! way results are independent of thread count and batching. Dynamical decoupling, twirling, and error
//! compensation then work — or fail — for exactly the physical reasons
//! laid out in the paper. [`Engine::Auto`] (the default) picks the
//! backend per circuit; see [`engine`] for the rules. Dispatch and
//! execution are panic-free: unsupported circuits yield a structured
//! [`SimError`].
//!
//! The frame engines additionally support **per-shot Pauli
//! insertions** ([`insert`]). A [`CompiledCircuit`] (scheduled
//! circuit + timeline plan + engine program, `Send + Sync`) is an
//! owned, reusable artifact ([`session`]), and a [`Session`] adds an
//! LRU plan cache and a parallel job API on top — compile once, run
//! millions of shots many times, with results bit-identical for any
//! cache state and worker count.

#![warn(missing_docs)]

pub mod cancel;
pub mod engine;
pub mod error;
pub mod executor;
pub mod frame_batch;
pub mod insert;
pub mod noise;
pub(crate) mod obs_util;
pub mod pauli_frame;
pub mod plan;
pub mod result;
pub mod session;
pub(crate) mod shard;
pub mod stabilizer;
pub mod statevector;
pub mod timeline;

pub use cancel::CancelToken;
pub use engine::{check_gate_arities, Engine, AUTO_DENSE_MAX_QUBITS, DENSE_MAX_QUBITS};
pub use error::SimError;
pub use executor::{pack_bits, Simulator};
pub use frame_batch::{BatchPlan, LANES};
pub use insert::{InsertionSet, PauliInsertion};
pub use noise::{NoiseConfig, ShotNoise};
pub use pauli_frame::{
    clifford_supports, stabilizer_check, stabilizer_supports, FramePlan, COND_CLBIT_MAX,
};
pub use plan::ExecutionPlan;
pub use result::{PauliFlips, RunResult};
pub use session::{
    CacheKey, CacheStats, CompiledCircuit, Job, JobOutput, JobRequest, Session,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use stabilizer::Tableau;
pub use statevector::State;
pub use timeline::{build_segments, Activity, SegmentOp};
