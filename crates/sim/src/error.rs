//! Structured simulation errors.
//!
//! Engine dispatch and execution never panic on malformed-but-
//! constructible inputs (wrong gate arity, circuits no engine can
//! represent); they return a [`SimError`] carrying enough structure
//! for callers to branch on and a human-readable message naming every
//! violated constraint.

use std::fmt;

/// Why a circuit could not be simulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// An instruction's qubit operand list does not match its gate's
    /// arity (e.g. a single-qubit gate appended to three qubits).
    /// No engine can execute such an instruction.
    UnsupportedGateArity {
        /// Gate mnemonic.
        gate: &'static str,
        /// Arity the gate defines.
        expected: usize,
        /// Number of qubit operands the instruction carries.
        got: usize,
    },
    /// The circuit exceeds the dense statevector engine's hard qubit
    /// cap (2ⁿ amplitudes).
    DenseCapExceeded {
        /// Circuit width.
        qubits: usize,
        /// The dense engine's cap ([`crate::engine::DENSE_MAX_QUBITS`]).
        max: usize,
    },
    /// The stabilizer/frame engines require every unconditional gate
    /// to be Clifford or a diagonal rotation (bank-folded); this
    /// circuit carries a gate that is neither.
    NotClifford {
        /// Mnemonic of the first offending gate.
        gate: &'static str,
    },
    /// A per-shot Pauli insertion does not fit the circuit it was
    /// built against: its anchor item is out of range or not a
    /// unitary gate, or it names a qubit outside the circuit.
    InvalidInsertion {
        /// Shot index of the offending insertion.
        shot: usize,
        /// Anchor item index of the offending insertion.
        item: usize,
        /// Which constraint the insertion violates.
        reason: &'static str,
    },
    /// A feed-forward condition wraps a gate the frame engines cannot
    /// represent conditionally. Frames track a shot's deviation from
    /// one shared reference run as a Pauli operator, so a conditional
    /// gate must either *be* a Pauli (exact classical feed-forward) or
    /// be a virtual diagonal rotation (folded into the coherent phase
    /// banks); anything else — a conditional `H`, `Sx`, `Rx(θ)`, or
    /// any two-qubit conditional — leaves a non-Pauli deviation on the
    /// shots whose condition bit disagrees with the reference's.
    UnsupportedConditional {
        /// Mnemonic of the conditionally wrapped gate.
        gate: &'static str,
    },
    /// A feed-forward condition reads a classical bit at or beyond the
    /// frame engines' 64-bit classical register window (the batch
    /// engine evaluates conditions against a packed 64-bit key per
    /// shot-lane, and counts keys are 64-bit everywhere).
    ConditionalClbitOutOfRange {
        /// The classical bit the condition reads.
        clbit: usize,
        /// First unsupported bit index (always 64).
        max: usize,
    },
    /// `Engine::Auto` found no engine able to run the circuit: it is
    /// both too wide for the dense engine and not Clifford, so the
    /// stabilizer engines cannot represent it either.
    NoSupportingEngine {
        /// Circuit width.
        qubits: usize,
        /// The dense engine's qubit cap.
        dense_max: usize,
        /// Mnemonic of the first non-Clifford gate (or
        /// `"feed-forward"`).
        blocking_gate: &'static str,
    },
    /// A scheduled item carries a non-finite start time or duration
    /// (a `Delay(NaN)`/`Delay(inf)` reaches the planner through
    /// scheduling); the noise timeline cannot be ordered around it.
    NonFiniteTime {
        /// Index of the offending scheduled item.
        item: usize,
        /// Mnemonic of the offending gate.
        gate: &'static str,
    },
    /// A twirl-dressing substitution does not fit the compiled
    /// artifact it was applied to: the target item is out of range,
    /// is not a merged single-qubit Pauli slot, or the backend does
    /// not support re-dressing (dense plans replay exact unitaries,
    /// so a dressed instance must compile independently).
    InvalidDressing {
        /// Target item index.
        item: usize,
        /// Which constraint the substitution violates.
        reason: &'static str,
    },
    /// The requested operation is not available on the engine this
    /// compiled artifact resolved to (e.g. per-shot Pauli insertions
    /// or sign-resolved flips on the dense statevector engine).
    UnsupportedOnEngine {
        /// Resolved engine name.
        engine: &'static str,
        /// The unavailable operation.
        operation: &'static str,
    },
    /// A run asked for zero shots: counts, expectations and flips
    /// are all averages over shots, so there is nothing to return
    /// (an expectation would be `0/0 = NaN`).
    ZeroShots,
    /// The job's [`CancelToken`](crate::cancel::CancelToken) was
    /// cancelled while the job was queued or running. Execution
    /// stopped cooperatively at the next shot-chunk / batch-strip
    /// boundary; no partial result is returned.
    Cancelled,
    /// The job's deadline expired while it was queued or running.
    /// Like [`SimError::Cancelled`], execution stopped at the next
    /// chunk boundary without producing a partial result.
    DeadlineExceeded,
    /// The job panicked while executing. The panic was caught at the
    /// job boundary so the rest of the submitted batch completes
    /// normally; the payload's message (when it was a string) is
    /// preserved here.
    JobPanicked {
        /// The panic payload rendered as text, or
        /// `"non-string panic payload"`.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimError::UnsupportedGateArity {
                gate,
                expected,
                got,
            } => write!(
                f,
                "unsupported gate arity: `{gate}` expects {expected} qubit operand(s) \
                 but the instruction lists {got}"
            ),
            SimError::DenseCapExceeded { qubits, max } => write!(
                f,
                "circuit has {qubits} qubits; the dense statevector engine is limited \
                 to {max} (2^n amplitudes)"
            ),
            SimError::NotClifford { gate } => write!(
                f,
                "circuit is not frame-representable (first blocker: {gate}); the \
                 stabilizer and frame-batch engines require every unconditional gate \
                 to be Clifford or a diagonal rotation"
            ),
            SimError::UnsupportedConditional { gate } => write!(
                f,
                "classical feed-forward on `{gate}` is outside the frame engines' \
                 conditional gate set (Pauli gates are applied exactly; virtual diagonal \
                 rotations fold into the coherent phase banks; other conditionals need \
                 the dense statevector engine)"
            ),
            SimError::ConditionalClbitOutOfRange { clbit, max } => write!(
                f,
                "feed-forward condition reads classical bit {clbit}; the frame engines \
                 evaluate conditions against a packed {max}-bit classical register"
            ),
            SimError::InvalidInsertion { shot, item, reason } => write!(
                f,
                "invalid Pauli insertion at shot {shot}, anchor item {item}: {reason}"
            ),
            SimError::NoSupportingEngine {
                qubits,
                dense_max,
                blocking_gate,
            } => write!(
                f,
                "no engine supports this circuit: {qubits} qubits exceeds the dense \
                 statevector cap of {dense_max}, and the stabilizer/frame-batch engines \
                 require a Clifford circuit (first blocker: {blocking_gate})"
            ),
            SimError::NonFiniteTime { item, gate } => write!(
                f,
                "scheduled item {item} (`{gate}`) has a non-finite start time or \
                 duration; the noise timeline cannot be ordered around it"
            ),
            SimError::InvalidDressing { item, reason } => write!(
                f,
                "invalid twirl dressing at scheduled item {item}: {reason}"
            ),
            SimError::UnsupportedOnEngine { engine, operation } => write!(
                f,
                "operation `{operation}` is not available on the `{engine}` engine"
            ),
            SimError::ZeroShots => write!(
                f,
                "a run needs at least one shot; zero shots have no counts or \
                 expectation values"
            ),
            SimError::Cancelled => write!(
                f,
                "job cancelled before completion (cooperative stop at a \
                 shot-chunk boundary; no partial result)"
            ),
            SimError::DeadlineExceeded => write!(
                f,
                "job deadline expired before completion (cooperative stop at a \
                 shot-chunk boundary; no partial result)"
            ),
            SimError::JobPanicked { ref message } => {
                write!(f, "job panicked during execution: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_constraints() {
        let e = SimError::NoSupportingEngine {
            qubits: 40,
            dense_max: 24,
            blocking_gate: "rz",
        };
        let msg = e.to_string();
        assert!(msg.contains("40 qubits"), "{msg}");
        assert!(msg.contains("24"), "{msg}");
        assert!(msg.contains("Clifford"), "{msg}");
        assert!(msg.contains("rz"), "{msg}");
    }

    #[test]
    fn arity_message_is_specific() {
        let e = SimError::UnsupportedGateArity {
            gate: "x",
            expected: 1,
            got: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains("x"), "{msg}");
    }
}
