//! Property tests for the frame engines' counter-based noise stream.
//!
//! Two layers of guarantees:
//!
//! * **Engine equivalence** — the serial stabilizer engine and the
//!   bit-parallel batch engine produce bit-identical counts at every
//!   shot count (full words, partial tail lanes, single shots) and
//!   every worker count.
//! * **Primitive soundness** — the per-(shot, site) hash has no
//!   collisions over a large structured grid and avalanches on
//!   single-bit input flips; the bit-plane threshold ladders
//!   ([`lt_lane`], [`lt_masks`]) agree lane-for-lane with the
//!   reference word ladder [`lt_mask`].

use ca_circuit::{schedule_asap, Circuit, GateDurations, ScheduledCircuit};
use ca_device::{uniform_device, Device, Topology};
use ca_sim::plan::{lt_lane, lt_mask, lt_masks, shot_site_seed};
use ca_sim::{BatchedFrameEngine, NoiseConfig, Simulator, StabilizerEngine};
use proptest::prelude::*;

/// A noisy line device with every stochastic channel switched on.
fn noisy_device(n: usize) -> Device {
    let mut dev = uniform_device(Topology::line(n), 60.0);
    for q in 0..n {
        dev.calibration.qubits[q].quasistatic_khz = 30.0;
        dev.calibration.qubits[q].charge_parity_khz = 3.0;
        dev.calibration.qubits[q].t1_us = 80.0;
        dev.calibration.qubits[q].t2_us = 90.0;
        dev.calibration.qubits[q].readout_err = 0.03;
        dev.calibration.qubits[q].gate_err_1q = 0.002;
    }
    dev
}

/// A brickwork Clifford layer with a measurement round: H row, two
/// staggered ECR rows, measure all.
fn layer_circuit(n: usize) -> ScheduledCircuit {
    let mut qc = Circuit::new(n, n);
    for q in 0..n {
        qc.h(q);
    }
    for q in (0..n - 1).step_by(2) {
        qc.ecr(q, q + 1);
    }
    for q in (1..n - 1).step_by(2) {
        qc.ecr(q, q + 1);
    }
    for q in 0..n {
        qc.measure(q, q);
    }
    schedule_asap(&qc, GateDurations::default())
}

fn sim_with(n: usize) -> Simulator {
    Simulator::with_config(noisy_device(n), NoiseConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Serial and batch must agree bit-for-bit. Shot counts weight the
    // word-boundary cases (partial tail lanes, exactly one word, one
    // shot) that the bit-plane sampler has to mask correctly.
    #[test]
    fn serial_and_batch_bit_identical_across_shot_and_worker_counts(
        shots in prop_oneof![
            Just(1usize), Just(63), Just(64), Just(65), Just(127), Just(129),
            1..300usize,
        ],
        seed in 0..u64::MAX,
    ) {
        let sim = sim_with(6);
        let sc = layer_circuit(6);
        let serial = StabilizerEngine::new(&sim).run_counts(&sc, shots, seed).unwrap();
        let batch = BatchedFrameEngine::new(&sim);
        let one = batch.run_counts_with_workers(&sc, shots, seed, Some(1)).unwrap();
        prop_assert_eq!(
            &serial, &one,
            "serial vs batch diverge: shots {} seed {}", shots, seed
        );
        for workers in [2usize, 8] {
            let got = batch.run_counts_with_workers(&sc, shots, seed, Some(workers)).unwrap();
            prop_assert_eq!(
                &one, &got,
                "worker-count dependence: shots {} workers {}", shots, workers
            );
        }
    }

    // The reference word ladder and its two decompositions: a single
    // lane of `lt_mask` is `lt_lane`, and `lt_masks` over shared
    // planes matches the standalone ladder entry-for-entry.
    #[test]
    fn ladder_decompositions_match_reference(
        base in 0..u64::MAX,
        t0 in prop_oneof![Just(0u64), Just(u64::MAX), Just(1u64 << 63), 0..u64::MAX],
        t1 in prop_oneof![Just(0u64), Just(u64::MAX), Just(1u64), 0..u64::MAX],
        t2 in 0..u64::MAX,
    ) {
        let reference = lt_mask(base, t0);
        for lane in 0..64u32 {
            prop_assert_eq!(
                lt_lane(base, lane, t0),
                reference >> lane & 1 == 1,
                "lane {} base {:#x} t {:#x}", lane, base, t0
            );
        }
        let joint = lt_masks(base, [t0, t1, t2]);
        for (i, &t) in [t0, t1, t2].iter().enumerate() {
            prop_assert_eq!(
                joint[i], lt_mask(base, t),
                "entry {} base {:#x} t {:#x}", i, base, t
            );
        }
        prop_assert_eq!(lt_masks(base, [t1])[0], lt_mask(base, t1));
    }
}

// 100k structured (shot, site) points — the densest region the
// engines actually use — must map to 100k distinct draw seeds.
#[test]
fn shot_site_seed_has_no_collisions_on_structured_grid() {
    let mut seeds: Vec<u64> = Vec::with_capacity(100_000);
    for shot in 0..1000u64 {
        for site in 0..100u64 {
            seeds.push(shot_site_seed(11, shot, site));
        }
    }
    seeds.sort_unstable();
    let before = seeds.len();
    seeds.dedup();
    assert_eq!(seeds.len(), before, "shot_site_seed collided on the grid");
}

// Single-bit flips of either coordinate must flip about half the
// output bits: the per-(shot, site) draws sit adjacent in shot and
// site space, so weak diffusion would correlate neighbouring lanes.
#[test]
fn shot_site_seed_avalanches_on_single_bit_flips() {
    let mut total = 0u64;
    let mut flips = 0u64;
    for i in 0..64u64 {
        let (shot, site) = (i.wrapping_mul(977), i.wrapping_mul(1213) ^ 5);
        let h = shot_site_seed(7, shot, site);
        for b in 0..64 {
            total += 2;
            flips += (h ^ shot_site_seed(7, shot ^ (1 << b), site)).count_ones() as u64;
            flips += (h ^ shot_site_seed(7, shot, site ^ (1 << b))).count_ones() as u64;
        }
    }
    let mean = flips as f64 / total as f64;
    assert!(
        (28.0..=36.0).contains(&mean),
        "avalanche mean {mean:.2} bits, expected ~32"
    );
}
