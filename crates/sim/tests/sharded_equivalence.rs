//! Bit-identity of the qubit-sharded strip sampler at Osprey scale.
//!
//! The strip runner fans its sampling pass out across contiguous
//! qubit shards when a run has more worker threads than strips (see
//! `ca_sim`'s shard module). Sharding is a wall-clock knob only: the
//! per-shard buffers merged in op order must reproduce the unsharded
//! buffer word for word, so counts must be bit-identical across
//! every worker count — and equal to the serial engine — including
//! odd shot counts with partial tail lanes.
//! At 433 qubits the worker-count sweep actually crosses the
//! sharded/unsharded dispatch boundary (narrow devices never shard),
//! which is exactly the boundary these tests pin.

use ca_circuit::{schedule_asap, Circuit, GateDurations, ScheduledCircuit};
use ca_device::{presets, Device};
use ca_sim::{Engine, InsertionSet, NoiseConfig, RunResult, Simulator};
use proptest::prelude::*;

/// A sparse layer-fidelity-style workload on a wide heavy-hex device:
/// eigenstate prep and a few ECR rounds on a small driven sublattice,
/// the rest of the lattice idle, then a measured register. The driven
/// and measured qubits span several shard boundaries at every shard
/// count the dispatch policy can pick.
fn sparse_workload(device: &Device, measured: usize) -> ScheduledCircuit {
    let n = device.num_qubits();
    let mut qc = Circuit::new(n, measured);
    let actives: Vec<usize> = (0..8).map(|i| i * n / 8).collect();
    for &q in &actives {
        qc.h(q);
    }
    qc.barrier(Vec::<usize>::new());
    for _ in 0..2 {
        for &q in &actives {
            if let Some(&(a, b)) = device
                .topology
                .edges
                .iter()
                .find(|&&(a, b)| a == q || b == q)
            {
                qc.ecr(a, b);
            }
        }
        qc.barrier(Vec::<usize>::new());
    }
    for (c, &q) in actives.iter().take(measured).enumerate() {
        qc.measure(q, c);
    }
    schedule_asap(&qc, GateDurations::default())
}

/// Counts of `sc` compiled on one frame engine at `seed`:
/// `Engine::Stabilizer` is the serial reference, `Engine::FrameBatch`
/// the batch engine run at the given worker count.
fn counts(
    sim: &Simulator,
    engine: Engine,
    sc: &ScheduledCircuit,
    shots: usize,
    seed: u64,
    workers: Option<usize>,
) -> RunResult {
    Simulator::with_engine(sim.device.clone(), sim.config, engine)
        .compile(sc, seed)
        .unwrap()
        .run_counts(shots, &InsertionSet::empty(), workers)
        .unwrap()
}

fn sim_433() -> Simulator {
    let noise = NoiseConfig {
        readout_error: false,
        ..NoiseConfig::default()
    };
    Simulator::with_config(presets::osprey_like(7), noise)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    // Worker counts 1/2/8 cross the shard dispatch boundary at 433
    // qubits (1 worker → unsharded, 8 workers with ≤ 2 strips → up to
    // 8 shards); all must agree bit-for-bit with each other and with
    // the serial engine. Shot counts weight the
    // strip boundaries: one partial strip, exactly one strip, a tail
    // strip with partial lanes.
    #[test]
    fn sharded_counts_are_worker_invariant_at_433q(
        shots in prop_oneof![
            Just(5usize), Just(64), Just(255), Just(256), Just(257), Just(300),
        ],
        seed in 0..u64::MAX,
    ) {
        let sim = sim_433();
        let sc = sparse_workload(&sim.device, 6);
        let serial = counts(&sim, Engine::Stabilizer, &sc, shots, seed, None);
        let one = counts(&sim, Engine::FrameBatch, &sc, shots, seed, Some(1));
        prop_assert_eq!(
            &serial, &one,
            "serial vs batch diverge at 433q: shots {} seed {}", shots, seed
        );
        for workers in [2usize, 8] {
            let got = counts(&sim, Engine::FrameBatch, &sc, shots, seed, Some(workers));
            prop_assert_eq!(
                &one, &got,
                "worker/shard-count dependence at 433q: shots {} workers {}",
                shots, workers
            );
        }
    }
}

// A narrow circuit on a wide device: crosstalk edges and Stark terms
// reach past the circuit's registers at 433 and 1121 qubits and must
// be dropped, not indexed — the engine-level mirror of the timeline
// `build_segments` regression. Counts must also stay worker-invariant
// in this shape (the plan is narrow while the device is wide).
#[test]
fn narrow_circuit_on_wide_devices_runs_and_stays_invariant() {
    for device in [presets::osprey_like(3), presets::condor_like(3)] {
        let n = device.num_qubits();
        let mut qc = Circuit::new(5, 2);
        qc.h(0).ecr(0, 1).delay(500.0, 3);
        qc.measure(0, 0).measure(1, 1);
        let sc = schedule_asap(&qc, GateDurations::default());
        let sim = Simulator::with_config(device, NoiseConfig::default());
        let one = counts(&sim, Engine::FrameBatch, &sc, 130, 9, Some(1));
        let eight = counts(&sim, Engine::FrameBatch, &sc, 130, 9, Some(8));
        assert_eq!(one, eight, "worker dependence on {n}-qubit device");
        assert_eq!(one.shots, 130);
    }
}
