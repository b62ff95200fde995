//! Per-shot Pauli insertions — the execution hook probabilistic error
//! cancellation is built on.
//!
//! PEC samples, for every shot, a set of Pauli operators from the
//! quasi-probability inverse of a learned noise channel and inserts
//! them at layer boundaries. Naively that means compiling thousands of
//! distinct circuits. In the Pauli-frame picture an inserted Pauli is
//! just an XOR into the shot's frame at the right point of the op
//! stream, so **one** compiled plan serves every sampled instance: the
//! caller describes the insertions as data ([`PauliInsertion`]), the
//! engines apply them frame-side, and — because applying them draws no
//! randomness — the serial stabilizer path and the bit-parallel batch
//! path stay bit-identical for any seed, shot count, and worker count.
//!
//! ## Anchoring semantics
//!
//! An insertion is anchored to a scheduled *item* (an index into
//! `ScheduledCircuit::items`) and applied immediately after that
//! item's unitary — after the item's own depolarizing-error draw, so
//! an insertion can never change a noise draw. The anchor item must
//! be a unitary gate (not a barrier, delay, measurement, or reset);
//! the inserted Pauli may act on **any** qubit, which is what lets a
//! single per-layer anchor carry the insertions of every partition of
//! that layer, including partitions of idle qubits.
//!
//! Within an inter-layer window this choice is exact, not an
//! approximation: frames ignore signs, so reordering a Pauli insertion
//! past the window's other single-qubit Paulis (DD pulses, twirl
//! gates) or past a stochastic flush changes nothing observable.
//!
//! Two insertions of the same Pauli at the same `(shot, item, qubit)`
//! multiply — i.e. cancel — exactly as the operators would.

use crate::error::SimError;
use ca_circuit::pauli::Pauli;
use ca_circuit::ScheduledCircuit;

/// One Pauli inserted into one shot's frame immediately after a
/// scheduled item's unitary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PauliInsertion {
    /// Global shot index the insertion applies to.
    pub shot: usize,
    /// Anchor: index into `ScheduledCircuit::items` of a unitary gate
    /// item; the Pauli is applied right after it.
    pub item: usize,
    /// Qubit the Pauli acts on (need not be an operand of the anchor).
    pub qubit: usize,
    /// The inserted Pauli (`I` is allowed and is a no-op).
    pub pauli: Pauli,
}

/// A validated, item-indexed batch of per-shot Pauli insertions,
/// shared by the serial and bit-parallel frame engines.
#[derive(Clone, Debug, Default)]
pub struct InsertionSet {
    /// `by_item[item]` = insertions anchored there, sorted by shot.
    by_item: Vec<Vec<(usize, usize, Pauli)>>,
    len: usize,
}

impl InsertionSet {
    /// The empty set: every run method treats it as "no insertions".
    pub fn empty() -> Self {
        Self::default()
    }

    /// Validates and indexes `insertions` against the circuit they
    /// will run on. Fails with [`SimError::InvalidInsertion`] when an
    /// anchor is out of range, anchors a non-unitary item, or names a
    /// qubit outside the circuit.
    pub fn build(sc: &ScheduledCircuit, insertions: &[PauliInsertion]) -> Result<Self, SimError> {
        let mut by_item: Vec<Vec<(usize, usize, Pauli)>> = vec![Vec::new(); sc.items.len()];
        for ins in insertions {
            let Some(si) = sc.items.get(ins.item) else {
                return Err(SimError::InvalidInsertion {
                    shot: ins.shot,
                    item: ins.item,
                    reason: "anchor item index out of range",
                });
            };
            // `is_unitary` excludes Barrier, Delay, Measure, Reset —
            // exactly the items the engines' Apply arms never visit.
            if !si.instruction.gate.is_unitary() {
                return Err(SimError::InvalidInsertion {
                    shot: ins.shot,
                    item: ins.item,
                    reason: "anchor item is not a unitary gate",
                });
            }
            if ins.qubit >= sc.num_qubits {
                return Err(SimError::InvalidInsertion {
                    shot: ins.shot,
                    item: ins.item,
                    reason: "inserted qubit outside the circuit",
                });
            }
            by_item[ins.item].push((ins.shot, ins.qubit, ins.pauli));
        }
        for list in &mut by_item {
            list.sort_by_key(|&(shot, qubit, _)| (shot, qubit));
        }
        Ok(Self {
            by_item,
            len: insertions.len(),
        })
    }

    /// Number of insertions in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set carries no insertions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insertions anchored at `item` for shots in `[base, end)`,
    /// sorted by shot. Items beyond the indexed range (possible only
    /// for the empty set) have none.
    pub(crate) fn in_shot_range(
        &self,
        item: usize,
        base: usize,
        end: usize,
    ) -> &[(usize, usize, Pauli)] {
        let Some(list) = self.by_item.get(item) else {
            return &[];
        };
        let lo = list.partition_point(|&(s, _, _)| s < base);
        let hi = list.partition_point(|&(s, _, _)| s < end);
        &list[lo..hi]
    }

    /// Insertions anchored at `item` for exactly `shot`.
    pub(crate) fn for_shot(&self, item: usize, shot: usize) -> &[(usize, usize, Pauli)] {
        self.in_shot_range(item, shot, shot + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_circuit::{schedule_asap, Circuit, Gate, GateDurations};

    fn sched() -> ScheduledCircuit {
        let mut qc = Circuit::new(2, 1);
        qc.h(0).cx(0, 1).delay(500.0, 0).measure(0, 0);
        schedule_asap(&qc, GateDurations::default())
    }

    fn item_of(sc: &ScheduledCircuit, gate: Gate) -> usize {
        sc.items
            .iter()
            .position(|si| si.instruction.gate == gate)
            .unwrap()
    }

    #[test]
    fn builds_and_indexes_sorted_by_shot() {
        let sc = sched();
        let h = item_of(&sc, Gate::H);
        let ins = [
            PauliInsertion {
                shot: 5,
                item: h,
                qubit: 1,
                pauli: Pauli::X,
            },
            PauliInsertion {
                shot: 2,
                item: h,
                qubit: 0,
                pauli: Pauli::Z,
            },
        ];
        let set = InsertionSet::build(&sc, &ins).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.for_shot(h, 2), &[(2, 0, Pauli::Z)]);
        assert_eq!(set.for_shot(h, 5), &[(5, 1, Pauli::X)]);
        assert_eq!(set.in_shot_range(h, 0, 10).len(), 2);
        assert!(set.for_shot(h, 3).is_empty());
    }

    #[test]
    fn rejects_bad_anchors_and_qubits() {
        let sc = sched();
        let mk = |item, qubit| PauliInsertion {
            shot: 0,
            item,
            qubit,
            pauli: Pauli::Y,
        };
        let err = InsertionSet::build(&sc, &[mk(sc.items.len(), 0)]).unwrap_err();
        assert!(matches!(err, SimError::InvalidInsertion { .. }));
        let measure = item_of(&sc, Gate::Measure);
        let err = InsertionSet::build(&sc, &[mk(measure, 0)]).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidInsertion {
                reason: "anchor item is not a unitary gate",
                ..
            }
        ));
        let h = item_of(&sc, Gate::H);
        let err = InsertionSet::build(&sc, &[mk(h, 7)]).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidInsertion {
                reason: "inserted qubit outside the circuit",
                ..
            }
        ));
    }

    #[test]
    fn empty_set_serves_any_item() {
        let set = InsertionSet::empty();
        assert!(set.is_empty());
        assert!(set.in_shot_range(99, 0, 1000).is_empty());
    }
}
