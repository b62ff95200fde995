//! Trajectory executor: runs a scheduled circuit shot by shot against
//! the context-aware noise model.
//!
//! Per shot, coherent Z/ZZ phases accumulate in *scalar pending banks*
//! (one per qubit / crosstalk edge) and are flushed into the
//! statevector lazily — immediately before any non-diagonal unitary on
//! an involved qubit, before projections, and at the end. This is
//! exact for diagonal noise and makes dynamical decoupling work with
//! no special casing: the inserted X pulses conjugate earlier flushed
//! phases precisely as on hardware.
//!
//! The circuit's own `Rz`, `Rzz` and diagonal 1q gates bank the same
//! way instead of sweeping the state. A flush is one fused diagonal
//! pass ([`State::flush`]): the banked phases of the qubit and its
//! incident edges, the no-jump amplitude-damping branch with its
//! renormalisation (its weight read in one pass), and the dephasing
//! kick. The pass is folded into the non-diagonal 1q or 2q gate that
//! triggered the flush. A gate-error Pauli with an X or Y part flushes
//! its qubit before it lands, since it does not commute with the
//! banked noise that physically preceded it. Gate matrices, edge
//! banks and error rates are resolved once per call (`dense_ops`),
//! and expectation values use Pauli bit-masks built once per job.

use crate::engine::Engine;
use crate::error::SimError;
use crate::noise::{damping_prob, dephasing_prob, t_phi_us, NoiseConfig, ShotNoise};
use crate::obs_util::{time_engine_phase, PhaseTimer};
use crate::plan::{chunk_seed, map_chunks, ExecutionPlan, PlanOp, ShotParams, CHUNK_SHOTS};
use crate::result::{mean_from_parts, RunResult};
use crate::statevector::{Decay, DiagTable, FlushGate, PauliMask, State};
use ca_circuit::c64::{C64, ONE};
use ca_circuit::matrix::{Mat2, Mat4};
use ca_circuit::pauli::{Pauli, PauliString};
use ca_circuit::{Gate, ScheduledCircuit};
use ca_device::{phase_rad, Device};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The simulator: a device, a noise configuration, and an engine
/// selection policy (see [`crate::engine`]).
#[derive(Clone, Debug)]
pub struct Simulator {
    /// Device under simulation.
    pub device: Device,
    /// Enabled noise processes.
    pub config: NoiseConfig,
    /// Backend selection (defaults to [`Engine::Auto`]).
    pub engine: Engine,
}

impl Simulator {
    /// Creates a simulator with the full noise model.
    pub fn new(device: Device) -> Self {
        Self {
            device,
            config: NoiseConfig::default(),
            engine: Engine::Auto,
        }
    }

    /// Creates a simulator with an explicit noise configuration.
    pub fn with_config(device: Device, config: NoiseConfig) -> Self {
        Self {
            device,
            config,
            engine: Engine::Auto,
        }
    }

    /// Creates a simulator pinned to a specific engine.
    pub fn with_engine(device: Device, config: NoiseConfig, engine: Engine) -> Self {
        Self {
            device,
            config,
            engine,
        }
    }

    /// Resolves every scheduled item into its [`DenseOp`], once per
    /// call: the shot loop then never looks up a gate matrix, an edge
    /// bank or a calibration rate. Gates whose operand count does not
    /// fit their matrix are a structured error.
    pub(crate) fn dense_ops(&self, plan: &ExecutionPlan) -> Result<Vec<DenseOp>, SimError> {
        let cal = &self.device.calibration;
        plan.sc
            .items
            .iter()
            .map(|si| {
                let instr = &si.instruction;
                let gate = instr.gate;
                let qs = &instr.qubits;
                let arity = || SimError::UnsupportedGateArity {
                    gate: gate.name(),
                    expected: gate.num_qubits(),
                    got: qs.len(),
                };
                if !gate.is_unitary() {
                    return Ok(DenseOp::Skip);
                }
                Ok(match qs[..] {
                    [q] => {
                        if let Gate::Rz(theta) = gate {
                            return Ok(DenseOp::BankRz { q, theta });
                        }
                        let p = if self.config.gate_error && !gate.is_virtual() && !instr.merged {
                            cal.qubits[q].gate_err_1q
                        } else {
                            0.0
                        };
                        let m = gate.matrix1().ok_or_else(arity)?;
                        match gate {
                            // Virtual, so error-free too.
                            Gate::I => DenseOp::Skip,
                            _ if gate.is_diagonal() => DenseOp::BankDiag {
                                q,
                                d: [m.0[0][0], m.0[1][1]],
                                p,
                            },
                            _ => DenseOp::Gate1 { q, m, p },
                        }
                    }
                    [a, b] => {
                        let p = if self.config.gate_error {
                            cal.gate_err_2q(a, b) * plan.sc.durations.two_qubit_error_scale(&gate)
                        } else {
                            0.0
                        };
                        match (gate, plan.edge_index.get(&(a.min(b), a.max(b)))) {
                            (Gate::Rzz(theta), Some(&edge)) => DenseOp::BankRzz {
                                a,
                                b,
                                edge,
                                theta,
                                p,
                            },
                            _ => DenseOp::Gate2 {
                                a,
                                b,
                                m: Box::new(gate.matrix2().ok_or_else(arity)?),
                                diagonal: gate.is_diagonal(),
                                p,
                            },
                        }
                    }
                    _ => return Err(arity()),
                })
            })
            .collect()
    }

    /// Flushes the pending banks of `qs` (one qubit, or a 2q gate's
    /// operand pair) into the state: per qubit, its banked `Rz` and
    /// diagonal gates, every incident banked `Rzz`, and the
    /// decoherence accrued since its last flush. They fuse into one
    /// diagonal pass, folded into `gate` when one follows. RNG draws,
    /// per qubit in order: the damping branch, then the dephasing kick.
    fn flush(
        &self,
        plan: &ExecutionPlan,
        qs: &[usize],
        st: &mut State,
        banks: &mut Banks,
        rng: &mut StdRng,
        gate: FlushGate<'_>,
    ) {
        let t = &mut banks.table;
        t.reset(qs);
        let mut decay = [Decay::default(); 2];
        for (&q, d) in qs.iter().zip(decay.iter_mut()) {
            if banks.pend_rz[q].abs() > 1e-15 {
                t.rz(q, banks.pend_rz[q]);
                banks.pend_rz[q] = 0.0;
            }
            if let Some((s0, s1)) = banks.pend_diag[q].take() {
                t.scale(q, s0, s1);
            }
            for &e in &plan.incident[q] {
                let theta = banks.pend_rzz[e];
                if theta.abs() > 1e-15 {
                    banks.pend_rzz[e] = 0.0;
                    let (a, b) = plan.edge_pairs[e];
                    if !t.rzz(a, b, theta) {
                        st.apply_rzz(theta, a, b);
                    }
                }
            }
            if self.config.decoherence && banks.deco_dt[q] > 0.0 {
                let cal = &self.device.calibration.qubits[q];
                let dt = banks.deco_dt[q];
                banks.deco_dt[q] = 0.0;
                let p_damp = damping_prob(dt, cal.t1_us);
                if p_damp > 0.0 {
                    d.damping = Some((p_damp, rng.random::<f64>()));
                }
                let p_z = dephasing_prob(dt, t_phi_us(cal.t1_us, cal.t2_us));
                d.kick = p_z > 0.0 && rng.random::<f64>() < p_z;
            }
        }
        st.flush(t, &decay[..qs.len()], gate);
    }

    /// Samples a gate's depolarizing error: with probability `p`, a
    /// uniformly drawn non-identity Pauli on the gate's one or two
    /// qubits. X and Y components do not commute with a qubit's banked
    /// Z/ZZ noise, which physically preceded the error, so those
    /// qubits are flushed before the Pauli lands.
    fn gate_error(
        &self,
        plan: &ExecutionPlan,
        qs: &[usize],
        p: f64,
        st: &mut State,
        banks: &mut Banks,
        rng: &mut StdRng,
    ) {
        const PAULIS: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];
        let hit = p > 0.0 && rng.random::<f64>() < p;
        if !hit {
            return;
        }
        // Qubit j's Pauli is base-4 digit j of k.
        let k = match qs.len() {
            1 => rng.random_range(0..3usize) + 1,
            _ => rng.random_range(1..16usize),
        };
        let pauli = |j: usize| PAULIS[(k >> (2 * j)) & 3];
        for (j, &q) in qs.iter().enumerate() {
            if matches!(pauli(j), Pauli::X | Pauli::Y) {
                self.flush(plan, &[q], st, banks, rng, FlushGate::None);
            }
        }
        for (j, &q) in qs.iter().enumerate() {
            st.apply_pauli(pauli(j), q);
        }
    }

    /// Runs one trajectory; returns the final state and classical bits.
    /// `ops` is [`Self::dense_ops`] of the same plan.
    ///
    /// Phase attribution: per-shot parameter draws, bank accrual, and
    /// measurement/readout randomness count as *sampling*; statevector
    /// updates (gates, flushed phases, Kraus applications) count as
    /// *propagation* — so the dense rows of the scaling bench report
    /// the same phase columns as the frame engines.
    pub(crate) fn trajectory(
        &self,
        plan: &ExecutionPlan,
        ops: &[DenseOp],
        rng: &mut StdRng,
    ) -> (State, Vec<bool>) {
        let mut phase = PhaseTimer::start();
        let n = plan.sc.num_qubits;
        let shot = ShotNoise::sample(&self.device, &self.config, rng);
        phase.tick_sampling();
        let mut st = State::zero(n);
        let mut bits = vec![false; plan.sc.num_clbits.max(1)];
        let mut banks = Banks {
            pend_rz: vec![0.0; n],
            pend_rzz: vec![0.0; plan.edge_pairs.len()],
            pend_diag: vec![None; n],
            deco_dt: vec![0.0; n],
            table: DiagTable::default(),
        };

        for op in &plan.ops {
            match *op {
                PlanOp::Segment(i) => {
                    let seg = &plan.segments[i];
                    for &(q, th) in &seg.rz_static {
                        banks.pend_rz[q] += th;
                    }
                    for &(e, th) in &plan.seg_edges[i] {
                        banks.pend_rzz[e] += th;
                    }
                    for q in 0..n {
                        let rate = shot.z_rate_khz(&self.device, q);
                        if rate != 0.0 {
                            banks.pend_rz[q] += phase_rad(rate, seg.signed_dt(q));
                        }
                        banks.deco_dt[q] += seg.dt();
                    }
                    phase.tick_sampling();
                }
                PlanOp::Project { item } => {
                    let si = &plan.sc.items[item];
                    let q = si.instruction.qubits[0];
                    self.flush(plan, &[q], &mut st, &mut banks, rng, FlushGate::None);
                    phase.tick_propagation();
                    // The plan lowers only measurements and resets to
                    // projections.
                    if si.instruction.gate == Gate::Reset {
                        st.reset(q, rng);
                    } else {
                        let outcome = st.measure(q, rng);
                        let recorded = if self.config.readout_error {
                            let p = self.device.calibration.qubits[q].readout_err;
                            if rng.random::<f64>() < p {
                                !outcome
                            } else {
                                outcome
                            }
                        } else {
                            outcome
                        };
                        if let Some(c) = si.instruction.clbit {
                            bits[c] = recorded;
                        }
                    }
                    phase.tick_sampling();
                }
                PlanOp::Apply { item } => {
                    if let Some(cond) = plan.sc.items[item].instruction.condition {
                        if bits[cond.clbit] != cond.value {
                            continue;
                        }
                    }
                    match ops[item] {
                        DenseOp::Skip => continue,
                        DenseOp::BankRz { q, theta } => banks.pend_rz[q] += theta,
                        DenseOp::BankDiag { q, d, p } => {
                            let (s0, s1) = banks.pend_diag[q].unwrap_or((ONE, ONE));
                            banks.pend_diag[q] = Some((s0 * d[0], s1 * d[1]));
                            self.gate_error(plan, &[q], p, &mut st, &mut banks, rng);
                        }
                        DenseOp::Gate1 { q, ref m, p } => {
                            let gate = FlushGate::One(m);
                            self.flush(plan, &[q], &mut st, &mut banks, rng, gate);
                            self.gate_error(plan, &[q], p, &mut st, &mut banks, rng);
                        }
                        DenseOp::BankRzz {
                            a,
                            b,
                            edge,
                            theta,
                            p,
                        } => {
                            banks.pend_rzz[edge] += theta;
                            self.gate_error(plan, &[a, b], p, &mut st, &mut banks, rng);
                        }
                        DenseOp::Gate2 {
                            a,
                            b,
                            ref m,
                            diagonal,
                            p,
                        } => {
                            if diagonal {
                                st.apply_2q(m, a, b);
                            } else {
                                let gate = FlushGate::Two(m);
                                self.flush(plan, &[a, b], &mut st, &mut banks, rng, gate);
                            }
                            self.gate_error(plan, &[a, b], p, &mut st, &mut banks, rng);
                        }
                    }
                    phase.tick_propagation();
                }
            }
        }
        // Final flush so the returned state carries all trailing noise.
        for q in 0..n {
            self.flush(plan, &[q], &mut st, &mut banks, rng, FlushGate::None);
        }
        phase.tick_propagation();
        phase.finish();
        (st, bits)
    }

    /// Runs every trajectory of a job in [`CHUNK_SHOTS`]-shot chunks
    /// ([`map_chunks`]), each chunk drawing from its own
    /// [`chunk_seed`] stream into a fresh accumulator. Chunk outputs
    /// come back in chunk order, so every merge is bit-identical
    /// across worker counts.
    fn map_trajectories<Acc: Send>(
        &self,
        plan: &ExecutionPlan,
        params: ShotParams<'_>,
        new_acc: impl Fn() -> Acc + Sync,
        per_shot: impl Fn((State, Vec<bool>), &mut Acc) + Sync,
    ) -> Result<Vec<Acc>, SimError> {
        debug_assert!(plan.sc.num_qubits <= crate::engine::DENSE_MAX_QUBITS);
        let ops = self.dense_ops(plan)?;
        let ShotParams {
            shots,
            seed,
            workers,
            cancel,
        } = params;
        map_chunks(shots, CHUNK_SHOTS, workers, cancel, |start, len| {
            let mut rng = StdRng::seed_from_u64(chunk_seed(seed, start));
            let mut acc = new_acc();
            for _ in 0..len {
                per_shot(self.trajectory(plan, &ops, &mut rng), &mut acc);
            }
            acc
        })
    }

    /// Runs dense trajectories over a prebuilt plan and gathers
    /// classical-bit counts: the statevector backend of
    /// [`crate::CompiledCircuit`], which has already checked arity and
    /// the qubit cap. `cancel` is polled at shot-chunk boundaries.
    pub(crate) fn dense_counts(
        &self,
        plan: &ExecutionPlan,
        params: ShotParams<'_>,
    ) -> Result<RunResult, SimError> {
        let nbits = plan.sc.num_clbits;
        let parts = self.map_trajectories(
            plan,
            params,
            std::collections::BTreeMap::<u64, usize>::new,
            |(_, bits), counts| {
                *counts.entry(pack_bits(&bits, nbits)).or_insert(0) += 1;
            },
        )?;
        Ok(time_engine_phase("reduction", || {
            RunResult::from_parts(params.shots, nbits, parts)
        }))
    }

    /// Trajectory-averaged Pauli expectations over a prebuilt plan (no
    /// sampling noise beyond the stochastic noise processes
    /// themselves). `cancel` is polled at shot-chunk boundaries.
    pub(crate) fn dense_expectations(
        &self,
        plan: &ExecutionPlan,
        paulis: &[PauliString],
        params: ShotParams<'_>,
    ) -> Result<Vec<f64>, SimError> {
        let masks: Vec<PauliMask> = paulis.iter().map(PauliMask::new).collect();
        let parts = self.map_trajectories(
            plan,
            params,
            || vec![0.0; paulis.len()],
            |(st, _), acc| {
                for (a, m) in acc.iter_mut().zip(&masks) {
                    *a += st.expect_masked(m);
                }
            },
        )?;
        Ok(time_engine_phase("reduction", || {
            mean_from_parts(params.shots, paulis.len(), parts)
        }))
    }

    /// Runs a single dense trajectory (deterministic for a given seed)
    /// and returns the final state and classical bits. Test hook;
    /// always uses the statevector engine (a tableau has no `State`).
    pub fn run_single(&self, sc: &ScheduledCircuit, seed: u64) -> (State, Vec<bool>) {
        let planned = ExecutionPlan::build(sc, &self.device, &self.config)
            .and_then(|plan| Ok((self.dense_ops(&plan)?, plan)));
        let (ops, plan) = planned.expect("run_single: malformed or unplannable circuit"); // ca-lint: allow(panic) -- run_single is a fail-loud debug entry; batch paths return Result
        let mut rng = StdRng::seed_from_u64(seed);
        self.trajectory(&plan, &ops, &mut rng)
    }
}

/// One scheduled item resolved for the dense trajectory loop (see
/// [`Simulator::dense_ops`]); `p` is the item's gate-error rate, 0
/// when none applies.
#[derive(Clone, Debug)]
pub(crate) enum DenseOp {
    /// Nothing to apply: barriers, delays, and the measurements and
    /// resets that run as [`PlanOp::Project`].
    Skip,
    /// A circuit `Rz`: banked with the noise phases.
    BankRz { q: usize, theta: f64 },
    /// A circuit `Rzz` on a pair with an edge bank: banked.
    BankRzz {
        a: usize,
        b: usize,
        edge: usize,
        theta: f64,
        p: f64,
    },
    /// Any other diagonal 1q gate `diag(d[0], d[1])`: banked.
    BankDiag { q: usize, d: [C64; 2], p: f64 },
    /// A non-diagonal 1q gate: the qubit's flush folds into it.
    Gate1 { q: usize, m: Mat2, p: f64 },
    /// Any other 2q gate. Non-diagonal ones fold both qubits' flushes
    /// into their pass.
    Gate2 {
        a: usize,
        b: usize,
        m: Box<Mat4>,
        diagonal: bool,
        p: f64,
    },
}

/// A trajectory's pending diagonal operators: the per-qubit `Rz` and
/// per-edge `Rzz` phase banks, the per-qubit product of banked
/// diagonal gates, the decoherence time accrued since each qubit's
/// last flush, and the flush table they fold into.
struct Banks {
    pend_rz: Vec<f64>,
    pend_rzz: Vec<f64>,
    pend_diag: Vec<Option<(C64, C64)>>,
    deco_dt: Vec<f64>,
    table: DiagTable,
}

/// Packs classical bits little-endian into a u64 key.
pub fn pack_bits(bits: &[bool], nbits: usize) -> u64 {
    let mut k = 0u64;
    for (i, &b) in bits.iter().take(nbits.min(64)).enumerate() {
        if b {
            k |= 1 << i;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_circuit::{schedule_asap, Circuit, GateDurations, PauliString};
    use ca_device::{uniform_device, Topology};

    fn ideal_sim(n: usize) -> Simulator {
        Simulator::with_config(uniform_device(Topology::line(n), 0.0), NoiseConfig::ideal())
    }

    fn sched(qc: &Circuit) -> ScheduledCircuit {
        schedule_asap(qc, GateDurations::default())
    }

    #[test]
    fn ideal_bell_counts() {
        let sim = ideal_sim(2);
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 400, 7).unwrap();
        assert_eq!(res.shots, 400);
        let p00 = res.probability(0b00);
        let p11 = res.probability(0b11);
        assert!((p00 + p11 - 1.0).abs() < 1e-12, "only correlated outcomes");
        assert!((p00 - 0.5).abs() < 0.1);
    }

    #[test]
    fn expectation_mode_is_noiseless_for_ideal() {
        let sim = ideal_sim(1);
        let mut qc = Circuit::new(1, 0);
        qc.h(0);
        let x = sim
            .expect_pauli(&sched(&qc), &PauliString::parse("X").unwrap(), 10, 3)
            .unwrap();
        assert!((x - 1.0).abs() < 1e-10);
    }

    #[test]
    fn conditional_gate_fires_on_one() {
        let sim = ideal_sim(2);
        let mut qc = Circuit::new(2, 2);
        // Prepare |1⟩, measure → bit 0 = 1 → X on qubit 1 → measure 1.
        qc.x(0)
            .measure(0, 0)
            .gate_if(Gate::X, [1], 0, true)
            .measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 50, 5).unwrap();
        assert!((res.probability(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_gate_skipped_on_zero() {
        let sim = ideal_sim(2);
        let mut qc = Circuit::new(2, 2);
        qc.measure(0, 0)
            .gate_if(Gate::X, [1], 0, true)
            .measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 50, 5).unwrap();
        assert!((res.probability(0b00) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zz_crosstalk_dephases_idle_plus_state() {
        // Two idle coupled qubits in |++⟩ accrue U11; Ramsey contrast
        // on qubit 0 oscillates with θ = 2πν·τ.
        let dev = uniform_device(Topology::line(2), 100.0);
        let sim = Simulator::with_config(dev, NoiseConfig::coherent_only());
        let mut qc = Circuit::new(2, 0);
        qc.h(0).h(1);
        qc.barrier(Vec::<usize>::new());
        qc.delay(2500.0, 0).delay(2500.0, 1);
        let x = sim
            .expect_pauli(&sched(&qc), &PauliString::parse("XI").unwrap(), 1, 2)
            .unwrap();
        // θ = 2π·100kHz·2.5µs = π/2·... = 1.5708 rad; with the Rz(−θ)
        // local terms, ⟨X⟩ = cos(θ)·cos(θ)... measured against exact:
        let theta = ca_device::phase_rad(100.0, 2500.0);
        // Exact: state (|0⟩+|1⟩)/√2 ⊗ same under U11:
        // ⟨X₀⟩ = cos(θ)·cos(θ_z + ...). Compute numerically instead:
        use crate::statevector::State;
        let mut st = State::zero(2);
        let h = ca_circuit::Gate::H.matrix1().unwrap();
        st.apply_1q(&h, 0);
        st.apply_1q(&h, 1);
        st.apply_rzz(theta, 0, 1);
        st.apply_rz(-theta, 0);
        st.apply_rz(-theta, 1);
        let expect = st.expect_pauli(&PauliString::parse("XI").unwrap());
        assert!((x - expect).abs() < 1e-9, "sim {x} vs exact {expect}");
    }

    #[test]
    fn x2_echo_cancels_single_qubit_z_noise() {
        // Quasi-static detuning alone; an X at the middle of the idle
        // refocuses it exactly.
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].quasistatic_khz = 50.0;
        let cfg = NoiseConfig {
            quasistatic: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        // Without echo: big dephasing.
        let mut bare = Circuit::new(1, 0);
        bare.h(0).delay(4000.0, 0).h(0);
        let z_bare = sim
            .expect_pauli(&sched(&bare), &PauliString::parse("Z").unwrap(), 200, 11)
            .unwrap();
        assert!(z_bare < 0.8, "bare Ramsey dephases: {z_bare}");
        // With echo: X in the middle, phases cancel; end with X to undo.
        let mut echo = Circuit::new(1, 0);
        echo.h(0).delay(2000.0, 0).x(0).delay(2000.0, 0).h(0);
        // After refocusing, state is X·|+⟩-path → H·X·|+⟩… measure Z:
        // H X Rz(0) |+⟩ = H X |+⟩ = H|+⟩ = |0⟩ → ⟨Z⟩ = +1.
        let z_echo = sim
            .expect_pauli(&sched(&echo), &PauliString::parse("Z").unwrap(), 200, 11)
            .unwrap();
        assert!(
            (z_echo - 1.0).abs() < 1e-9,
            "echo refocuses exactly: {z_echo}"
        );
    }

    #[test]
    fn staggered_dd_cancels_zz_but_aligned_does_not() {
        let dev = uniform_device(Topology::line(2), 80.0);
        let sim = Simulator::with_config(dev, NoiseConfig::coherent_only());
        // Zero-width pulses make the DD cancellation algebraically
        // exact; realistic pulse widths are exercised elsewhere.
        let durations = GateDurations {
            one_qubit: 0.0,
            ..GateDurations::default()
        };
        let sched = |qc: &Circuit| schedule_asap(qc, durations);
        let tau = 2000.0;
        // Aligned: X on both qubits at the same midpoint.
        let mut aligned = Circuit::new(2, 0);
        aligned.h(0).h(1);
        aligned.barrier(Vec::<usize>::new());
        aligned.delay(tau, 0).delay(tau, 1);
        aligned.x(0).x(1);
        aligned.delay(tau, 0).delay(tau, 1);
        aligned.x(0).x(1);
        aligned.barrier(Vec::<usize>::new());
        aligned.h(0).h(1);
        // Staggered: qubit 1 echoes at the quarter points instead.
        let mut staggered = Circuit::new(2, 0);
        staggered.h(0).h(1);
        staggered.barrier(Vec::<usize>::new());
        staggered.delay(tau, 0);
        staggered.delay(tau / 2.0, 1).x(1).delay(tau, 1);
        staggered.x(0);
        staggered.delay(tau, 0);
        staggered.x(1).delay(tau / 2.0, 1);
        staggered.x(0);
        staggered.barrier(Vec::<usize>::new());
        staggered.h(0).h(1);
        let z = PauliString::parse("ZI").unwrap();
        let za = sim.expect_pauli(&sched(&aligned), &z, 1, 1).unwrap();
        let zs = sim.expect_pauli(&sched(&staggered), &z, 1, 1).unwrap();
        // Aligned cancels local Z but leaves ZZ: ⟨Z₀⟩ = cos(θ_zz_total).
        let theta = ca_device::phase_rad(80.0, 2.0 * tau);
        assert!((za - theta.cos()).abs() < 1e-9, "aligned leaves ZZ: {za}");
        assert!(
            (zs - 1.0).abs() < 1e-9,
            "staggered cancels everything: {zs}"
        );
    }

    #[test]
    fn t1_decay_statistics() {
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].t1_us = 50.0;
        dev.calibration.qubits[0].t2_us = 100.0;
        let cfg = NoiseConfig {
            decoherence: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        let mut qc = Circuit::new(1, 1);
        qc.x(0).delay(50_000.0, 0).measure(0, 0);
        let res = sim.run_counts(&sched(&qc), 2000, 13).unwrap();
        let p1 = res.probability(1);
        let expect = (-1.0f64).exp(); // decay over exactly T1.
        assert!((p1 - expect).abs() < 0.05, "p1 {p1} vs {expect}");
    }

    #[test]
    fn readout_error_flips_bits() {
        let mut dev = uniform_device(Topology::line(1), 0.0);
        dev.calibration.qubits[0].readout_err = 0.2;
        let cfg = NoiseConfig {
            readout_error: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        let mut qc = Circuit::new(1, 1);
        qc.measure(0, 0);
        let res = sim.run_counts(&sched(&qc), 3000, 17).unwrap();
        let p1 = res.probability(1);
        assert!((p1 - 0.2).abs() < 0.03, "readout flips ~20%: {p1}");
    }

    #[test]
    fn measurement_neighbor_accrues_conditional_phase() {
        // Fig. 9 physics: measuring q0 while q1 idles next to it makes
        // q1 pick up Rz(±θ) conditioned on the outcome.
        let dev = uniform_device(Topology::line(2), 50.0);
        let sim = Simulator::with_config(dev, NoiseConfig::coherent_only());
        let mut qc = Circuit::new(2, 1);
        qc.x(0); // deterministic outcome 1
        qc.h(1);
        qc.measure(0, 0);
        let sc = sched(&qc);
        let (st, bits) = sim.run_single(&sc, 5);
        assert!(bits[0]);
        // q1's Bloch vector rotated by the accumulated phase; its X
        // expectation is cos of the total accrued angle.
        let x1 = st.expect_pauli(&PauliString::parse("IX").unwrap());
        assert!(x1 < 0.999, "phase accrued during readout window: {x1}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use ca_circuit::{schedule_asap, Circuit, GateDurations, PauliString};
    use ca_device::{uniform_device, Topology};

    fn sched(qc: &Circuit) -> ScheduledCircuit {
        schedule_asap(qc, GateDurations::default())
    }

    #[test]
    fn reset_reinitializes_mid_circuit() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(1), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(1, 1);
        qc.x(0).reset(0).measure(0, 0);
        let res = sim.run_counts(&sched(&qc), 50, 3).unwrap();
        assert!((res.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_measurements_of_entangled_pair_agree() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(2), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 300, 9).unwrap();
        // Never anti-correlated.
        assert_eq!(res.probability(0b01), 0.0);
        assert_eq!(res.probability(0b10), 0.0);
    }

    #[test]
    fn gate_error_statistics_scale_with_rate() {
        let mut dev = uniform_device(Topology::line(2), 0.0);
        let keys: Vec<_> = dev.calibration.edges.keys().copied().collect();
        for k in keys {
            dev.calibration.edges.get_mut(&k).unwrap().gate_err_2q = 0.25;
        }
        let cfg = NoiseConfig {
            gate_error: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        // Identity-equivalent pair of ECRs; depolarizing error shows up
        // as a drop in the return probability.
        let mut qc = Circuit::new(2, 2);
        qc.ecr(0, 1).ecr(0, 1).measure(0, 0).measure(1, 1);
        let res = sim.run_counts(&sched(&qc), 2000, 5).unwrap();
        let p00 = res.probability(0b00);
        // Two gates at p=0.25: survival ≈ (1−p)² + small returns.
        assert!(p00 < 0.75, "depolarizing must reduce p00: {p00}");
        assert!(p00 > 0.45, "but not destroy it: {p00}");
    }

    #[test]
    fn virtual_rz_between_halves_shifts_ramsey_phase() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(1), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(1, 0);
        qc.h(0).rz(1.234, 0).h(0);
        let z = sim
            .expect_pauli(&sched(&qc), &PauliString::parse("Z").unwrap(), 1, 1)
            .unwrap();
        assert!((z - 1.234f64.cos()).abs() < 1e-10);
    }

    #[test]
    fn barrier_only_circuit_is_identity() {
        let sim =
            Simulator::with_config(uniform_device(Topology::line(2), 0.0), NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 0);
        qc.barrier(Vec::<usize>::new());
        let (st, _) = sim.run_single(&sched(&qc), 1);
        assert!((st.amps[0].norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gate_error_lands_after_banked_noise_on_diagonal_gates() {
        // Charge-parity Z noise accrues on qubit 0 for τ before and τ
        // after a CZ that always errs. An X or Y error on qubit 0
        // echoes the two equal phases away, so ⟨Z₀⟩ = ±1 after the
        // closing H; an I or Z error leaves cos(2φ) = 0 at φ = π/4.
        // Applying the error before the banked pre-gate phase (the
        // diagonal gate does not flush) collapses every case to 0.
        let mut dev = uniform_device(Topology::line(2), 0.0);
        dev.calibration.qubits[0].charge_parity_khz = 50.0;
        dev.calibration.qubits[1].charge_parity_khz = 0.0;
        for q in &mut dev.calibration.qubits {
            q.quasistatic_khz = 0.0;
            q.gate_err_1q = 0.0;
        }
        let keys: Vec<_> = dev.calibration.edges.keys().copied().collect();
        for k in keys {
            dev.calibration.edges.get_mut(&k).unwrap().gate_err_2q = 1.0;
        }
        let cfg = NoiseConfig {
            charge_parity: true,
            gate_error: true,
            ..NoiseConfig::ideal()
        };
        let sim = Simulator::with_config(dev, cfg);
        let durations = GateDurations {
            one_qubit: 0.0,
            two_qubit: 0.0,
            ..GateDurations::default()
        };
        // φ = 2π·50 kHz·2.5 µs = π/4 per window.
        let tau = 2500.0;
        let mut qc = Circuit::new(2, 0);
        qc.h(0).delay(tau, 0).cz(0, 1).delay(tau, 0).h(0);
        let sc = schedule_asap(&qc, durations);
        let z0 = PauliString::parse("ZI").unwrap();
        let mut echoed = 0;
        for seed in 0..24 {
            let (st, _) = sim.run_single(&sc, seed);
            let z = st.expect_pauli(&z0);
            if (z.abs() - 1.0).abs() < 1e-9 {
                echoed += 1;
            } else {
                assert!(z.abs() < 1e-9, "seed {seed}: ⟨Z0⟩ = {z}");
            }
        }
        // 8 of the 15 error Paulis carry X or Y on qubit 0.
        assert!(
            (6..=20).contains(&echoed),
            "echoed in {echoed}/24 trajectories"
        );
    }

    #[test]
    fn pack_bits_is_little_endian() {
        assert_eq!(pack_bits(&[true, false, true], 3), 0b101);
        assert_eq!(pack_bits(&[false, true], 2), 0b10);
    }
}
