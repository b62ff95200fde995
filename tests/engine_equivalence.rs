//! Cross-backend equivalence: random Clifford circuits on ≤ 8 qubits
//! must give statistically matching outcome distributions on the
//! stabilizer and statevector engines — noiseless, and with
//! Pauli-twirled (depolarizing + readout) noise, where both engines
//! implement the *same* stochastic channels and should agree up to
//! shot noise.
//!
//! The batched frame engine is held to a much stronger standard: for
//! any seed, shot count, and worker-thread count its counts must be
//! **bit-identical** to the serial stabilizer engine's (both paths
//! seed shot `i`'s RNG from the seed and `i` alone and make the same
//! draws in the same order).
//!
//! Coherent noise terms are intentionally excluded from the
//! dense-vs-stabilizer statistical checks: the dense engine treats
//! them exactly while the stabilizer engine applies their Pauli
//! twirl, so they agree in distribution only after twirl averaging
//! (covered by the targeted tests in `ca-sim`). The batch-vs-serial
//! checks run with *every* channel enabled — the two frame paths
//! implement the identical model.

use context_aware_compiling::prelude::*;
use proptest::prelude::*;
// Explicit import so `Strategy` means proptest's trait (the compile
// Strategy enum is referenced by path below).
use ca_sim::{CompiledCircuit, InsertionSet, PauliInsertion};
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn arb_clifford_1q() -> impl Strategy<Value = Gate> {
    prop_oneof![
        Just(Gate::X),
        Just(Gate::Y),
        Just(Gate::Z),
        Just(Gate::H),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::Sx),
        (1..4usize).prop_map(|k| Gate::Rz(k as f64 * std::f64::consts::FRAC_PI_2)),
    ]
}

/// A random Clifford circuit on `n` qubits: 1q Cliffords, ECR/CX/CZ
/// on neighbouring pairs, delays, and a full measurement round.
fn arb_clifford_circuit(n: usize) -> impl Strategy<Value = Circuit> {
    let instr = prop_oneof![
        (arb_clifford_1q(), 0..n).prop_map(|(g, q)| (g, q, usize::MAX)),
        (0..n - 1).prop_map(|q| (Gate::Ecr, q, q + 1)),
        (0..n - 1).prop_map(|q| (Gate::Cx, q, q + 1)),
        (0..n - 1).prop_map(|q| (Gate::Cz, q, q + 1)),
        ((300.0f64..1500.0), 0..n).prop_map(|(d, q)| (Gate::Delay(d), q, usize::MAX)),
    ];
    proptest::collection::vec(instr, 4..28).prop_map(move |items| {
        let mut qc = Circuit::new(n, n);
        for (g, a, b) in items {
            if b == usize::MAX {
                qc.append(g, [a]);
            } else {
                qc.append(g, [a, b]);
            }
        }
        for q in 0..n {
            qc.measure(q, q);
        }
        qc
    })
}

/// Total variation distance between two outcome distributions.
fn tvd(a: &RunResult, b: &RunResult) -> f64 {
    let keys: std::collections::BTreeSet<u64> =
        a.counts.keys().chain(b.counts.keys()).copied().collect();
    keys.iter()
        .map(|k| (a.probability(*k) - b.probability(*k)).abs())
        .sum::<f64>()
        / 2.0
}

fn run_both(qc: &Circuit, noise: NoiseConfig, shots: usize, seed: u64) -> (RunResult, RunResult) {
    let device = uniform_device(Topology::line(qc.num_qubits), 0.0);
    let sc = schedule_asap(qc, GateDurations::default());
    let dense = Simulator::with_engine(device.clone(), noise, Engine::Statevector);
    let stab = Simulator::with_engine(device, noise, Engine::Stabilizer);
    (
        dense.run_counts(&sc, shots, seed).unwrap(),
        stab.run_counts(&sc, shots, seed + 1).unwrap(),
    )
}

/// A noisy simulator with every stochastic channel lit up, for the
/// bit-identity checks between the two frame engines.
fn noisy_frame_sim(n: usize) -> Simulator {
    let mut dev = uniform_device(Topology::line(n), 55.0);
    for q in 0..n {
        dev.calibration.qubits[q].quasistatic_khz = 25.0;
        dev.calibration.qubits[q].charge_parity_khz = 4.0;
        dev.calibration.qubits[q].t1_us = 70.0;
        dev.calibration.qubits[q].t2_us = 80.0;
        dev.calibration.qubits[q].readout_err = 0.02;
        dev.calibration.qubits[q].gate_err_1q = 0.003;
    }
    Simulator::with_config(dev, NoiseConfig::default())
}

/// `sc` compiled on one frame engine: `Engine::Stabilizer` is the
/// serial reference, `Engine::FrameBatch` the batch engine held to
/// bit-identity with it.
fn frame(sim: &Simulator, engine: Engine, sc: &ScheduledCircuit, seed: u64) -> CompiledCircuit {
    Simulator::with_engine(sim.device.clone(), sim.config, engine)
        .compile(sc, seed)
        .unwrap()
}

/// Expected TVD between two empirical distributions of `shots`
/// samples each is bounded by ~√(K/shots); this threshold gives wide
/// margin while still catching real disagreements.
fn tvd_threshold(shots: usize, outcomes: usize) -> f64 {
    2.5 * ((outcomes.max(2) as f64) / shots as f64).sqrt() + 0.02
}

/// A deterministic pseudo-random PEC-style insertion set: Paulis on
/// arbitrary qubits anchored at arbitrary unitary items, spread over
/// the shot range.
fn random_insertions(sc: &ScheduledCircuit, shots: usize, count: usize, seed: u64) -> InsertionSet {
    let unitary_items: Vec<usize> = sc
        .items
        .iter()
        .enumerate()
        .filter(|(_, si)| si.instruction.gate.is_unitary())
        .map(|(i, _)| i)
        .collect();
    assert!(!unitary_items.is_empty(), "workload has unitary gates");
    let mut rng = StdRng::seed_from_u64(seed);
    let list: Vec<PauliInsertion> = (0..count)
        .map(|_| PauliInsertion {
            shot: rng.random_range(0..shots),
            item: unitary_items[rng.random_range(0..unitary_items.len())],
            qubit: rng.random_range(0..sc.num_qubits),
            pauli: ca_circuit::Pauli::from_index(rng.random_range(1..4usize)),
        })
        .collect();
    InsertionSet::build(sc, &list).expect("valid insertions")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn noiseless_distributions_match(qc in arb_clifford_circuit(5), case_seed in 0u64..1000) {
        let shots = 1200;
        let (d, s) = run_both(&qc, NoiseConfig::ideal(), shots, 31 + case_seed);
        let outcomes = d.counts.len().max(s.counts.len());
        let t = tvd(&d, &s);
        prop_assert!(
            t < tvd_threshold(shots, outcomes),
            "noiseless TVD {t:.4} (outcomes {outcomes}) for {qc:?}"
        );
    }

    #[test]
    fn pauli_noise_distributions_match(qc in arb_clifford_circuit(4), case_seed in 0u64..1000) {
        // Depolarizing gate error + readout error: both engines
        // implement identical stochastic channels.
        let noise = NoiseConfig {
            gate_error: true,
            readout_error: true,
            ..NoiseConfig::ideal()
        };
        let shots = 1500;
        let (d, s) = run_both(&qc, noise, shots, 7 + case_seed);
        let outcomes = d.counts.len().max(s.counts.len());
        let t = tvd(&d, &s);
        prop_assert!(
            t < tvd_threshold(shots, outcomes),
            "noisy TVD {t:.4} (outcomes {outcomes}) for {qc:?}"
        );
    }

    #[test]
    fn pec_insertions_stay_bit_identical_on_random_circuits(
        qc in arb_clifford_circuit(5),
        // Odd shot counts on purpose: partial tail words must apply
        // each insertion to the right lane.
        shots in 1usize..150,
        seed in 0u64..1000,
    ) {
        let sim = noisy_frame_sim(qc.num_qubits);
        let sc = schedule_asap(&qc, GateDurations::default());
        let ins = random_insertions(&sc, shots, 1 + shots / 2, seed ^ 0xABCD);
        let a = frame(&sim, Engine::Stabilizer, &sc, seed).run_counts(shots, &ins, None).unwrap();
        let b = frame(&sim, Engine::FrameBatch, &sc, seed).run_counts(shots, &ins, None).unwrap();
        prop_assert_eq!(a, b, "shots {} seed {} for {:?}", shots, seed, qc);
    }

    #[test]
    fn batch_matches_serial_on_random_circuits_and_tail_shot_counts(
        qc in arb_clifford_circuit(5),
        // Deliberately not a multiple of 64 most of the time: the
        // final batch word runs a partial set of lanes and the unused
        // high lanes must never leak into counts (tail masking).
        shots in 1usize..200,
        seed in 0u64..1000,
    ) {
        let sim = noisy_frame_sim(qc.num_qubits);
        let sc = schedule_asap(&qc, GateDurations::default());
        let none = InsertionSet::empty();
        let a = frame(&sim, Engine::Stabilizer, &sc, seed).run_counts(shots, &none, None).unwrap();
        let b = frame(&sim, Engine::FrameBatch, &sc, seed).run_counts(shots, &none, None).unwrap();
        prop_assert_eq!(a, b, "shots {} seed {} for {:?}", shots, seed, qc);
    }
}

#[test]
fn batch_and_serial_counts_are_bit_identical_with_full_noise() {
    // The acceptance-criterion check, at a shot count spanning
    // several batch words plus a partial tail word.
    let sim = noisy_frame_sim(6);
    let mut qc = Circuit::new(6, 6);
    for q in 0..6 {
        qc.h(q);
    }
    qc.ecr(0, 1).ecr(2, 3).ecr(4, 5);
    qc.x(1).delay(900.0, 0);
    qc.cx(1, 2).cz(3, 4);
    qc.reset(5);
    qc.h(5);
    for q in 0..6 {
        qc.measure(q, q);
    }
    let sc = schedule_asap(&qc, GateDurations::default());
    let none = InsertionSet::empty();
    for seed in [1u64, 42, 977] {
        let a = frame(&sim, Engine::Stabilizer, &sc, seed)
            .run_counts(1000, &none, None)
            .unwrap();
        let b = frame(&sim, Engine::FrameBatch, &sc, seed)
            .run_counts(1000, &none, None)
            .unwrap();
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(a.shots, 1000);
    }
}

#[test]
fn batch_counts_and_expectations_identical_across_worker_counts() {
    let sim = noisy_frame_sim(5);
    let mut qc = Circuit::new(5, 5);
    for q in 0..5 {
        qc.h(q);
    }
    qc.ecr(0, 1).ecr(2, 3);
    qc.x(4).delay(600.0, 4).x(4);
    qc.ecr(1, 2).ecr(3, 4);
    for q in 0..5 {
        qc.measure(q, q);
    }
    let sc = schedule_asap(&qc, GateDurations::default());
    let none = InsertionSet::empty();
    let batch = frame(&sim, Engine::FrameBatch, &sc, 5);
    let counts1 = batch.run_counts(777, &none, Some(1)).unwrap();
    for workers in [2usize, 8] {
        let got = batch.run_counts(777, &none, Some(workers)).unwrap();
        assert_eq!(counts1, got, "counts differ at {workers} workers");
    }

    let mut open = qc.clone();
    open.instructions.retain(|i| i.gate != Gate::Measure);
    let sco = schedule_asap(&open, GateDurations::default());
    let obs = [
        PauliString::parse("ZZIII").unwrap(),
        PauliString::parse("IIXXI").unwrap(),
        PauliString::parse("IIIIZ").unwrap(),
    ];
    let batch = frame(&sim, Engine::FrameBatch, &sco, 5);
    let e1 = batch.expect_paulis(&obs, 777, &none, Some(1)).unwrap();
    for workers in [2usize, 8] {
        let got = batch
            .expect_paulis(&obs, 777, &none, Some(workers))
            .unwrap();
        assert_eq!(e1, got, "expectations differ at {workers} workers");
    }
}

#[test]
fn pec_sampled_counts_identical_across_engines_and_worker_counts() {
    // The PEC execution path end to end: a noisy workload with a
    // dense per-shot insertion schedule must produce bit-identical
    // counts on the serial stabilizer engine and on the batch engine
    // at 1, 2, and 8 workers — including an odd shot count spanning
    // several partial batch words.
    let sim = noisy_frame_sim(6);
    let mut qc = Circuit::new(6, 6);
    for q in 0..6 {
        qc.h(q);
    }
    qc.ecr(0, 1).ecr(2, 3).ecr(4, 5);
    qc.x(1).delay(700.0, 0);
    qc.cx(1, 2).cz(3, 4);
    for q in 0..6 {
        qc.measure(q, q);
    }
    let sc = schedule_asap(&qc, GateDurations::default());
    for (shots, seed) in [(333usize, 3u64), (1001, 41)] {
        let ins = random_insertions(&sc, shots, 2 * shots, seed);
        let serial = frame(&sim, Engine::Stabilizer, &sc, seed);
        let batch = frame(&sim, Engine::FrameBatch, &sc, seed);
        let reference = serial.run_counts(shots, &ins, None).unwrap();
        for workers in [1usize, 2, 8] {
            let got = batch.run_counts(shots, &ins, Some(workers)).unwrap();
            assert_eq!(
                reference, got,
                "shots {shots} seed {seed} workers {workers}"
            );
        }
        // And the insertions really change the sampled distribution.
        let plain = serial
            .run_counts(shots, &InsertionSet::empty(), None)
            .unwrap();
        assert_ne!(reference, plain, "insertions must act");
    }
}

#[test]
fn pec_per_shot_flips_identical_across_engines_and_worker_counts() {
    let sim = noisy_frame_sim(5);
    let mut qc = Circuit::new(5, 0);
    for q in 0..5 {
        qc.h(q);
    }
    qc.ecr(0, 1).ecr(2, 3);
    qc.x(4).delay(500.0, 4).x(4);
    qc.ecr(1, 2).ecr(3, 4);
    let sc = schedule_asap(&qc, GateDurations::default());
    let obs = [
        PauliString::parse("XXIII").unwrap(),
        PauliString::parse("IIZZI").unwrap(),
        PauliString::parse("ZIIIZ").unwrap(),
    ];
    let shots = 200;
    let seed = 17;
    let ins = random_insertions(&sc, shots, shots, seed);
    let batch = frame(&sim, Engine::FrameBatch, &sc, seed);
    let reference = frame(&sim, Engine::Stabilizer, &sc, seed)
        .expect_flips(&obs, shots, &ins, None)
        .unwrap();
    for workers in [1usize, 2, 8] {
        let got = batch
            .expect_flips(&obs, shots, &ins, Some(workers))
            .unwrap();
        assert_eq!(reference, got, "{workers} workers");
    }
    // The per-shot means agree with the aggregate expectation API.
    let means = batch.expect_paulis(&obs, shots, &ins, None).unwrap();
    for (o, m) in means.iter().enumerate() {
        assert_eq!(reference.mean(o), *m, "observable {o}");
    }
}

#[test]
fn expectations_match_on_random_clifford_circuits() {
    // Noiseless expectation values are exact on both engines: the
    // stabilizer result must equal the dense result to numerical
    // precision on every random circuit.
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..25 {
        let n = 2 + (trial % 5);
        let mut qc = Circuit::new(n, 0);
        for _ in 0..18 {
            match rng.random_range(0..3usize) {
                0 => {
                    let g =
                        [Gate::H, Gate::S, Gate::Sx, Gate::X, Gate::Y][rng.random_range(0..5usize)];
                    qc.append(g, [rng.random_range(0..n)]);
                }
                1 => {
                    if n >= 2 {
                        let a = rng.random_range(0..n - 1);
                        qc.ecr(a, a + 1);
                    }
                }
                _ => {
                    let a = rng.random_range(0..n);
                    qc.delay(500.0, a);
                }
            }
        }
        let sc = schedule_asap(&qc, GateDurations::default());
        let device = uniform_device(Topology::line(n), 0.0);
        let dense =
            Simulator::with_engine(device.clone(), NoiseConfig::ideal(), Engine::Statevector);
        let stab = Simulator::with_engine(device.clone(), NoiseConfig::ideal(), Engine::Stabilizer);
        let frames = Simulator::with_engine(device, NoiseConfig::ideal(), Engine::FrameBatch);
        for _ in 0..4 {
            let p = PauliString::new(
                (0..n)
                    .map(|_| ca_circuit::Pauli::from_index(rng.random_range(0..4usize)))
                    .collect(),
            );
            let ed = dense.expect_pauli(&sc, &p, 1, 5).unwrap();
            let es = stab.expect_pauli(&sc, &p, 8, 5).unwrap();
            let eb = frames.expect_pauli(&sc, &p, 8, 5).unwrap();
            assert!(
                (ed - es).abs() < 1e-9,
                "trial {trial}: ⟨{p}⟩ dense {ed} vs stabilizer {es} for {qc:?}"
            );
            assert_eq!(es, eb, "trial {trial}: serial vs batch ⟨{p}⟩");
        }
    }
}

#[test]
fn twirled_compilation_agrees_across_engines() {
    // A twirled, DD-compiled Clifford workload: the full compile
    // pipeline output must stay Clifford and both engines must agree
    // on the ideal-noise distribution.
    let device = uniform_device(Topology::line(5), 40.0);
    let mut qc = Circuit::new(5, 5);
    qc.h(0).ecr(0, 1).ecr(2, 3).sx(4);
    qc.barrier(Vec::<usize>::new());
    qc.ecr(1, 2).ecr(3, 4);
    for q in 0..5 {
        qc.measure(q, q);
    }
    let sc = compile(
        &qc,
        &device,
        &CompileOptions::new(ca_core::Strategy::CaDd, 13),
    )
    .unwrap();
    assert!(
        ca_sim::stabilizer_supports(&sc),
        "compiled circuit stays Clifford"
    );
    let dense = Simulator::with_engine(device.clone(), NoiseConfig::ideal(), Engine::Statevector);
    let stab = Simulator::with_engine(device, NoiseConfig::ideal(), Engine::Stabilizer);
    let shots = 1500;
    let d = dense.run_counts(&sc, shots, 3).unwrap();
    let s = stab.run_counts(&sc, shots, 4).unwrap();
    let outcomes = d.counts.len().max(s.counts.len());
    let t = tvd(&d, &s);
    assert!(
        t < tvd_threshold(shots, outcomes),
        "TVD {t:.4} with {outcomes} outcomes"
    );
}

#[test]
fn unsupported_circuits_error_instead_of_crashing() {
    // Three-qubit operand list: constructible in release builds and
    // through deserialization; every engine must refuse it with a
    // structured error.
    let device = uniform_device(Topology::line(3), 0.0);
    let mut qc = Circuit::new(3, 0);
    qc.push(ca_circuit::Instruction {
        gate: Gate::X,
        qubits: vec![0, 1, 2],
        clbit: None,
        condition: None,
        merged: false,
    });
    let sc = schedule_asap(&qc, GateDurations::default());
    for engine in [
        Engine::Auto,
        Engine::Statevector,
        Engine::Stabilizer,
        Engine::FrameBatch,
    ] {
        let sim = Simulator::with_engine(device.clone(), NoiseConfig::ideal(), engine);
        let err = sim.run_counts(&sc, 4, 1).unwrap_err();
        assert_eq!(
            err,
            ca_sim::SimError::UnsupportedGateArity {
                gate: "x",
                expected: 1,
                got: 3
            },
            "{engine:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Conditional-circuit equivalence: classical feed-forward on the frame
// engines. Dense-vs-stabilizer agreement is statistical (conditional
// Paulis are *exact* in the frame model, so noiseless and
// Pauli-channel distributions must match up to shot noise);
// serial-vs-batch stays bit-identical through measure / gate_if /
// reset interleavings at odd shot counts, tail lanes, and any worker
// count.
// ---------------------------------------------------------------------------

/// One instruction of a random dynamic (feed-forward) circuit.
#[derive(Clone, Debug)]
enum DynInstr {
    Gate1(Gate, usize),
    Gate2(Gate, usize),
    Delay(f64, usize),
    Measure(usize),
    Reset(usize),
    Cond(Gate, usize, usize, bool),
}

fn arb_dynamic_instr(n: usize) -> impl Strategy<Value = DynInstr> {
    prop_oneof![
        (arb_clifford_1q(), 0..n).prop_map(|(g, q)| DynInstr::Gate1(g, q)),
        (
            prop_oneof![Just(Gate::Ecr), Just(Gate::Cx), Just(Gate::Cz)],
            0..n - 1
        )
            .prop_map(|(g, q)| DynInstr::Gate2(g, q)),
        ((300.0f64..1500.0), 0..n).prop_map(|(d, q)| DynInstr::Delay(d, q)),
        (0..n).prop_map(DynInstr::Measure),
        (0..n).prop_map(DynInstr::Reset),
        (
            prop_oneof![Just(Gate::X), Just(Gate::Y), Just(Gate::Z)],
            0..n,
            0..n,
            0..2usize
        )
            .prop_map(|(g, q, c, v)| DynInstr::Cond(g, q, c, v == 1)),
    ]
}

/// A random Clifford circuit with interleaved mid-circuit
/// measurements, resets, and conditional Pauli gates, ending in a
/// full measurement round. Mid-circuit measurements write clbit = q,
/// so conditions read genuinely dynamic bits (or still-unwritten
/// ones — both paths must agree).
fn arb_dynamic_circuit(n: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_dynamic_instr(n), 6..30).prop_map(move |items| {
        let mut qc = Circuit::new(n, n);
        for it in items {
            match it {
                DynInstr::Gate1(g, q) => {
                    qc.append(g, [q]);
                }
                DynInstr::Gate2(g, q) => {
                    qc.append(g, [q, q + 1]);
                }
                DynInstr::Delay(d, q) => {
                    qc.append(Gate::Delay(d), [q]);
                }
                DynInstr::Measure(q) => {
                    qc.measure(q, q);
                }
                DynInstr::Reset(q) => {
                    qc.reset(q);
                }
                DynInstr::Cond(g, q, c, v) => {
                    qc.gate_if(g, [q], c, v);
                }
            }
        }
        for q in 0..n {
            qc.measure(q, q);
        }
        qc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dynamic_noiseless_distributions_match(qc in arb_dynamic_circuit(4), case_seed in 0u64..1000) {
        let shots = 1200;
        let (d, s) = run_both(&qc, NoiseConfig::ideal(), shots, 131 + case_seed);
        let outcomes = d.counts.len().max(s.counts.len());
        let t = tvd(&d, &s);
        prop_assert!(
            t < tvd_threshold(shots, outcomes),
            "noiseless dynamic TVD {t:.4} (outcomes {outcomes}) for {qc:?}"
        );
    }

    #[test]
    fn dynamic_pauli_noise_distributions_match(qc in arb_dynamic_circuit(4), case_seed in 0u64..1000) {
        // Depolarizing + readout: conditional gates read *recorded*
        // bits, so readout flips feed forward identically in both
        // engines' models.
        let noise = NoiseConfig {
            gate_error: true,
            readout_error: true,
            ..NoiseConfig::ideal()
        };
        let shots = 1500;
        let (d, s) = run_both(&qc, noise, shots, 17 + case_seed);
        let outcomes = d.counts.len().max(s.counts.len());
        let t = tvd(&d, &s);
        prop_assert!(
            t < tvd_threshold(shots, outcomes),
            "noisy dynamic TVD {t:.4} (outcomes {outcomes}) for {qc:?}"
        );
    }

    #[test]
    fn dynamic_batch_matches_serial_at_odd_shot_counts(
        qc in arb_dynamic_circuit(5),
        // Deliberately not a multiple of 64 most of the time: the
        // lane-masked conditional update must read exactly the tail
        // lanes' keys.
        shots in 1usize..200,
        seed in 0u64..1000,
    ) {
        let sim = noisy_frame_sim(qc.num_qubits);
        let sc = schedule_asap(&qc, GateDurations::default());
        let none = InsertionSet::empty();
        let a = frame(&sim, Engine::Stabilizer, &sc, seed).run_counts(shots, &none, None).unwrap();
        let b = frame(&sim, Engine::FrameBatch, &sc, seed).run_counts(shots, &none, None).unwrap();
        prop_assert_eq!(a, b, "shots {} seed {} for {:?}", shots, seed, qc);
    }
}

#[test]
fn dynamic_counts_identical_across_worker_counts() {
    // A hand-built feed-forward workload under the full noise model:
    // 1, 2, and 8 workers must produce identical counts, and the
    // serial engine the same again.
    let sim = noisy_frame_sim(5);
    let mut qc = Circuit::new(5, 5);
    qc.h(0).cx(0, 1).cx(2, 3).h(2);
    qc.measure(1, 1).measure(2, 2);
    qc.gate_if(Gate::X, [4], 1, true);
    qc.gate_if(Gate::Z, [0], 2, true);
    qc.gate_if(Gate::Y, [3], 1, false);
    qc.gate_if(Gate::Rz(0.8), [4], 2, true);
    qc.reset(1);
    qc.h(1).ecr(3, 4);
    for q in 0..5 {
        qc.measure(q, q);
    }
    let sc = schedule_asap(&qc, GateDurations::default());
    let none = InsertionSet::empty();
    let batch = frame(&sim, Engine::FrameBatch, &sc, 5);
    let reference = batch.run_counts(901, &none, Some(1)).unwrap();
    for workers in [2usize, 8] {
        let got = batch.run_counts(901, &none, Some(workers)).unwrap();
        assert_eq!(reference, got, "counts differ at {workers} workers");
    }
    assert_eq!(
        reference,
        frame(&sim, Engine::Stabilizer, &sc, 5)
            .run_counts(901, &none, None)
            .unwrap(),
        "serial engine must agree bit-for-bit"
    );
}

#[test]
fn reset_equals_measure_plus_conditional_x() {
    // `Reset` is exactly measure + conditional-X in the frame model;
    // the sampled distributions over the surviving register must
    // agree (distinct RNG consumption, so the check is statistical).
    let masked = |r: &RunResult, mask: u64| -> RunResult {
        let mut counts = std::collections::BTreeMap::new();
        for (&k, &c) in &r.counts {
            *counts.entry(k & mask).or_insert(0) += c;
        }
        RunResult {
            shots: r.shots,
            num_clbits: r.num_clbits,
            counts,
        }
    };
    let device = uniform_device(Topology::line(2), 0.0);
    let sim = Simulator::with_engine(device, NoiseConfig::ideal(), Engine::Stabilizer);
    let shots = 4000;

    let mut native = Circuit::new(2, 3);
    native.h(0).cx(0, 1);
    native.reset(1);
    native.h(1).measure(0, 0).measure(1, 1);
    let sc = schedule_asap(&native, GateDurations::default());
    let a = sim.run_counts(&sc, shots, 3).unwrap();

    let mut expanded = Circuit::new(2, 3);
    expanded.h(0).cx(0, 1);
    expanded.measure(1, 2).gate_if(Gate::X, [1], 2, true);
    expanded.h(1).measure(0, 0).measure(1, 1);
    let sc = schedule_asap(&expanded, GateDurations::default());
    let b = sim.run_counts(&sc, shots, 4).unwrap();

    let t = tvd(&masked(&a, 0b11), &masked(&b, 0b11));
    assert!(
        t < tvd_threshold(shots, 4),
        "reset vs measure+cond-X TVD {t:.4}"
    );
}

/// Session/plan-cache identity: a cached rerun of a job must be
/// bit-identical to the cold compile *and* to the direct engine entry
/// points — counts and per-shot flips, at an odd shot count spanning
/// a partial tail word, for pinned worker counts 1/2/8. Runs with the
/// cache both enabled and disabled in CI via `CA_SIM_PLAN_CACHE`.
#[test]
fn session_cached_runs_are_bit_identical_to_cold_compiles() {
    use ca_sim::{InsertionSet, Job, JobOutput, Session};
    let sim = noisy_frame_sim(5);
    let mut qc = Circuit::new(5, 5);
    for q in 0..5 {
        qc.h(q);
    }
    qc.ecr(0, 1).ecr(2, 3);
    qc.delay(700.0, 4).x(4).delay(700.0, 4);
    qc.cx(1, 2);
    for q in 0..5 {
        qc.measure(q, q);
    }
    let sc = schedule_asap(&qc, GateDurations::default());
    let shots = 201; // three batch words, partial tail
    let seed = 33;

    let sim_batch = Simulator::with_engine(sim.device.clone(), sim.config, Engine::FrameBatch);
    let session = Session::new(sim_batch.clone());
    let batch = frame(&sim, Engine::FrameBatch, &sc, seed);
    let none = InsertionSet::empty();

    let direct_counts = batch.run_counts(shots, &none, None).unwrap();
    let obs = [
        PauliString::parse("ZZIII").unwrap(),
        PauliString::parse("IIZZI").unwrap(),
    ];
    let direct_flips = batch.expect_flips(&obs, shots, &none, None).unwrap();

    for round in 0..2 {
        // Round 0 compiles (cold); round 1 must hit the cache when it
        // is enabled — and be bit-identical either way.
        let counts = match session.run(&Job::counts(sc.clone(), shots, seed)).unwrap() {
            JobOutput::Counts(c) => c,
            other => panic!("counts job returned {other:?}"),
        };
        assert_eq!(counts, direct_counts, "round {round}");
        let flips = match session
            .run(&Job::flips(sc.clone(), obs.to_vec(), shots, seed))
            .unwrap()
        {
            JobOutput::Flips(f) => f,
            other => panic!("flips job returned {other:?}"),
        };
        assert_eq!(flips, direct_flips, "round {round}");
    }

    // Worker-count independence through the compiled artifact.
    let compiled = session.compiled(&sc, seed).unwrap();
    for workers in [1usize, 2, 8] {
        assert_eq!(
            compiled.run_counts(shots, &none, Some(workers)).unwrap(),
            direct_counts,
            "{workers} workers"
        );
        assert_eq!(
            compiled
                .expect_flips(&obs, shots, &none, Some(workers))
                .unwrap(),
            direct_flips,
            "{workers} workers"
        );
    }
}

// ---------------------------------------------------------------------------
// Observability bit-identity: the `ca-obs` instrumentation in the
// compile pipeline, session layer, and both frame engines reads only
// the clock — it never draws from the RNG and never touches
// simulation state — so every result must be bit-identical whether
// tracing is off, at summary level, or at trace level. These checks
// run in CI both with `CA_OBS` unset and with `CA_OBS=summary`.
// ---------------------------------------------------------------------------

/// Serialises tests that toggle the process-global `ca-obs` level so
/// each closure runs entirely under the level it asked for.
static OBS_LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_obs_level<T>(level: ca_obs::Level, f: impl FnOnce() -> T) -> T {
    let _guard = OBS_LEVEL_LOCK.lock().unwrap();
    let prev = ca_obs::level();
    ca_obs::set_level(level);
    let out = f();
    ca_obs::set_level(prev);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn obs_level_never_changes_counts(
        qc in arb_dynamic_circuit(5),
        // Odd shot counts: partial tail words exercise the same lane
        // masking whether or not the phase timers run.
        shots in 1usize..150,
        seed in 0u64..1000,
    ) {
        let sim = noisy_frame_sim(qc.num_qubits);
        let sc = schedule_asap(&qc, GateDurations::default());
        let none = InsertionSet::empty();
        let run = |engine| frame(&sim, engine, &sc, seed).run_counts(shots, &none, None).unwrap();
        let off = with_obs_level(ca_obs::Level::Off, || (
            run(Engine::Stabilizer),
            run(Engine::FrameBatch),
        ));
        let on = with_obs_level(ca_obs::Level::Summary, || (
            run(Engine::Stabilizer),
            run(Engine::FrameBatch),
        ));
        prop_assert_eq!(&off.0, &off.1, "serial vs batch (obs off)");
        prop_assert_eq!(off, on, "obs must be invisible: shots {} seed {}", shots, seed);
    }

    #[test]
    fn obs_level_never_changes_flips_across_worker_counts(
        qc in arb_clifford_circuit(5),
        shots in 1usize..120,
        seed in 0u64..1000,
    ) {
        let sim = noisy_frame_sim(qc.num_qubits);
        let mut open = qc.clone();
        open.instructions.retain(|i| i.gate != Gate::Measure);
        let sc = schedule_asap(&open, GateDurations::default());
        let obs = [
            PauliString::parse("ZZIII").unwrap(),
            PauliString::parse("IXXII").unwrap(),
        ];
        let ins = random_insertions(&sc, shots, 1 + shots / 2, seed ^ 0x5A5A);
        let off = with_obs_level(ca_obs::Level::Off, || {
            frame(&sim, Engine::Stabilizer, &sc, seed).expect_flips(&obs, shots, &ins, None).unwrap()
        });
        for workers in [1usize, 2, 8] {
            let on = with_obs_level(ca_obs::Level::Summary, || {
                frame(&sim, Engine::FrameBatch, &sc, seed)
                    .expect_flips(&obs, shots, &ins, Some(workers))
                    .unwrap()
            });
            prop_assert_eq!(
                &off, &on,
                "obs must be invisible: shots {} seed {} workers {}", shots, seed, workers
            );
        }
    }
}

/// The twirl-ensemble shared-schedule fast path must agree bit for
/// bit with compiling every instance independently through the full
/// pass pipeline — the soundness contract of `CompiledCircuit::redress`.
#[test]
fn twirl_ensemble_fast_path_matches_independent_compilation() {
    use ca_core::{compile, compile_twirl_ensemble, CompileOptions};
    use ca_sim::Session;
    let device = {
        let mut dev = uniform_device(Topology::line(6), 55.0);
        for q in 0..6 {
            dev.calibration.qubits[q].quasistatic_khz = 25.0;
            dev.calibration.qubits[q].charge_parity_khz = 4.0;
            dev.calibration.qubits[q].t1_us = 70.0;
            dev.calibration.qubits[q].t2_us = 80.0;
            dev.calibration.qubits[q].gate_err_1q = 0.003;
        }
        dev
    };
    let mut qc = Circuit::new(6, 0);
    qc.h(4).h(5);
    qc.barrier(Vec::<usize>::new());
    for _ in 0..3 {
        qc.ecr(0, 1).ecr(2, 3);
        qc.barrier(Vec::<usize>::new());
    }
    qc.h(4).h(5);
    let obs = [
        PauliString::parse("IIIIZI").unwrap(),
        PauliString::parse("ZZIIII").unwrap(),
    ];
    let noise = NoiseConfig {
        readout_error: false,
        ..NoiseConfig::default()
    };
    let seeds = [5u64, 6, 7, 8];
    let sim_seeds: Vec<u64> = seeds.iter().map(|s| s ^ 0x77).collect();
    let shots = 129; // partial tail lanes inside each instance
    for strategy in [
        ca_core::Strategy::Bare,
        ca_core::Strategy::StaggeredDd,
        ca_core::Strategy::CaDd,
    ] {
        let options = CompileOptions::new(strategy, seeds[0]);
        let ens = compile_twirl_ensemble(&qc, &device, &options, &seeds).unwrap();
        let session = Session::new(Simulator::with_engine(
            device.clone(),
            noise,
            Engine::FrameBatch,
        ));
        let fast: Vec<Vec<f64>> = session
            .submit_ensemble(&ens.base, &ens.dressings, &obs, shots, &sim_seeds)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let sim = Simulator::with_engine(device.clone(), noise, Engine::FrameBatch);
        for (i, &seed) in seeds.iter().enumerate() {
            let sc = compile(&qc, &device, &CompileOptions { seed, ..options }).unwrap();
            let slow = sim.expect_paulis(&sc, &obs, shots, sim_seeds[i]).unwrap();
            assert_eq!(
                fast[i], slow,
                "{strategy:?} seed {seed}: ensemble must be bit-identical"
            );
            // And the serial engine agrees with the redressed batch
            // artifact too.
            let serial = Simulator::with_engine(device.clone(), noise, Engine::Stabilizer);
            let serial_vals = serial
                .expect_paulis(&sc, &obs, shots, sim_seeds[i])
                .unwrap();
            assert_eq!(fast[i], serial_vals, "{strategy:?} seed {seed}: serial");
        }
    }
}
