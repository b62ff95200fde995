//! Bit-parallel batched Pauli-frame engine: 64 shots per machine word.
//!
//! The serial sampler in [`crate::pauli_frame`] propagates one frame
//! per shot. This engine packs the frames of 64 shots into one `u64`
//! *bit-plane per qubit* (bit `j` = shot-lane `j`) and conjugates all
//! 64 frames per gate with a handful of word-wide XOR/AND operations —
//! the standard Stim-style batching that turns the per-gate cost from
//! O(shots) into O(shots/64). Shots run in cache-blocked strips of
//! [`STRIP_WORDS`] words, so the per-op walk is paid once per
//! [`STRIP_SHOTS`] shots.
//!
//! ## Why the counts are bit-identical to the serial engine
//!
//! Ignoring signs (frames never need them), conjugation by a Clifford
//! acts **GF(2)-linearly** on a Pauli's symplectic bits: the image of
//! `Y = i·XZ` is the XOR of the images of `X` and `Z`. Each cached
//! conjugation table therefore collapses to a tiny GF(2) matrix
//! (`Symp1`: 2×2, `Symp2`: 4×4) applied word-wise — exactly the
//! same frame update the serial engine performs one shot at a time.
//!
//! Noise needs per-shot randomness, and here the two serial-path
//! invariants pay off:
//!
//! * every draw is a pure hash of `(seed, shot, site)` (see
//!   [`crate::plan::shot_key`] and [`crate::plan::site_draw`]), with
//!   the site naming the draw's structural location, so lane `j` of
//!   word `w` reproduces the serial engine's shot `64·w + j` no matter
//!   in which order — or how many at a time — the draws are made;
//! * the pending Z/ZZ banks are RNG-*independent* (the stochastic
//!   rate multiplies the signed time only at flush), so the entire
//!   bank evolution is precomputed **once per plan** into a linear
//!   `BatchOp` program with per-noise-code threshold tables. At run
//!   time a strip hashes every noise decision into a mask buffer, then
//!   replays the program as straight-line word arithmetic over it.
//!
//! The result: classical counts are bit-for-bit equal to the serial
//! [`crate::Engine::Stabilizer`] for any seed, any shot count (tail
//! strips simply run fewer lanes), and any worker-thread count
//! (strips are independent; expectation sums are reduced in strip
//! order, and each shot contributes an integer ±1, so even the f64
//! accumulations are exact).
//!
//! Classical feed-forward batches too: a conditional gate becomes a
//! lane-masked `BatchOp::CondGate` whose per-lane firing decision
//! is read from the lane's classical-bit plane and XOR-ed against
//! the shared reference run's — the serial engine's exact rule,
//! evaluated 64 shots at a time — while conditional *diagonal*
//! rotations compile away entirely into the precomputed banks.

use crate::error::SimError;
use crate::executor::Simulator;
use crate::insert::InsertionSet;
use crate::noise::{damping_prob, dephasing_prob, t_phi_us};
use crate::pauli_frame::{FramePlan, ItemOp};
use crate::plan::{
    bern_theta, bern_threshold, damping_thresholds, fair_plane, lattice_idx, lattice_value,
    lt_mask, lt_masks, map_batches, map_chunks, pick, plane, shot_key, site, site_draw,
    worker_count, PlanOp, ShotParams, LATTICE_STEPS,
};
use crate::result::{mean_from_parts, PauliFlips, RunResult};
use crate::stabilizer::pauli_to_bits;
use ca_circuit::clifford::Table2Q;
use ca_circuit::pauli::{Pauli, PauliString};
use ca_circuit::Gate;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shot-lanes per batch word.
pub const LANES: usize = 64;

/// Words per cache-blocked strip: the runner walks the program once
/// per `[u64; 4]` strip (256 shot-lanes), quartering the per-op walk
/// overhead relative to single-word batches while the working set
/// (four planes per touched qubit) stays cache-resident.
pub const STRIP_WORDS: usize = 4;

/// Shots per strip.
pub const STRIP_SHOTS: usize = STRIP_WORDS * LANES;

/// The GF(2) symplectic action of a 1q Clifford on one qubit's
/// `(x, z)` frame bits, as lane masks (all-ones or all-zeros).
#[derive(Clone, Copy)]
struct Symp1 {
    /// x-input contribution to the x output.
    xx: u64,
    /// z-input contribution to the x output.
    xz: u64,
    /// x-input contribution to the z output.
    zx: u64,
    /// z-input contribution to the z output.
    zz: u64,
}

impl Symp1 {
    fn from_table(table: &[(i8, Pauli); 4]) -> Self {
        let (x_to_x, x_to_z) = pauli_to_bits(table[Pauli::X.index()].1);
        let (z_to_x, z_to_z) = pauli_to_bits(table[Pauli::Z.index()].1);
        debug_assert_eq!(table[Pauli::I.index()].1, Pauli::I);
        debug_assert_eq!(
            pauli_to_bits(table[Pauli::Y.index()].1),
            (x_to_x ^ z_to_x, x_to_z ^ z_to_z),
            "conjugation must be GF(2)-linear on symplectic bits"
        );
        let m = |b: bool| if b { u64::MAX } else { 0 };
        Self {
            xx: m(x_to_x),
            xz: m(z_to_x),
            zx: m(x_to_z),
            zz: m(z_to_z),
        }
    }

    fn is_identity(&self) -> bool {
        self.xx == u64::MAX && self.xz == 0 && self.zx == 0 && self.zz == u64::MAX
    }

    #[inline]
    fn apply(&self, x: u64, z: u64) -> (u64, u64) {
        ((x & self.xx) ^ (z & self.xz), (x & self.zx) ^ (z & self.zz))
    }
}

/// The GF(2) symplectic action of a 2q Clifford on `(x_a, z_a, x_b,
/// z_b)`: `mat[out][in]` lane masks.
#[derive(Clone, Copy)]
struct Symp2 {
    mat: [[u64; 4]; 4],
}

impl Symp2 {
    fn from_table(table: &Table2Q) -> Self {
        // Images of the four symplectic basis vectors X⊗I, Z⊗I,
        // I⊗X, I⊗Z (table index = first.index() + 4·second.index()).
        let col = |idx: usize| -> [bool; 4] {
            let (_, (pa, pb)) = table[idx];
            let (xa, za) = pauli_to_bits(pa);
            let (xb, zb) = pauli_to_bits(pb);
            [xa, za, xb, zb]
        };
        let cols = [
            col(Pauli::X.index()),
            col(Pauli::Z.index()),
            col(4 * Pauli::X.index()),
            col(4 * Pauli::Z.index()),
        ];
        #[cfg(debug_assertions)]
        for idx in 0..16 {
            let (pa, pb) = (Pauli::from_index(idx % 4), Pauli::from_index(idx / 4));
            let (xa, za) = pauli_to_bits(pa);
            let (xb, zb) = pauli_to_bits(pb);
            let input = [xa, za, xb, zb];
            let mut predicted = [false; 4];
            for (i, &on) in input.iter().enumerate() {
                if on {
                    for o in 0..4 {
                        predicted[o] ^= cols[i][o];
                    }
                }
            }
            let (_, (qa, qb)) = table[idx];
            let (axa, aza) = pauli_to_bits(qa);
            let (axb, azb) = pauli_to_bits(qb);
            debug_assert_eq!(
                predicted,
                [axa, aza, axb, azb],
                "2q conjugation must be GF(2)-linear on symplectic bits"
            );
        }
        let m = |b: bool| if b { u64::MAX } else { 0 };
        let mut mat = [[0u64; 4]; 4];
        for (i, c) in cols.iter().enumerate() {
            for o in 0..4 {
                mat[o][i] = m(c[o]);
            }
        }
        Self { mat }
    }

    /// The identity action: used when an op exists only for its error
    /// draw (bank-folded `Rzz`, whose rotation lives in the banks but
    /// whose pulse still depolarizes).
    fn identity() -> Self {
        let mut mat = [[0u64; 4]; 4];
        for (i, row) in mat.iter_mut().enumerate() {
            row[i] = u64::MAX;
        }
        Self { mat }
    }

    #[inline]
    fn apply(&self, v: [u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (o, slot) in out.iter_mut().enumerate() {
            let row = &self.mat[o];
            *slot = (v[0] & row[0]) ^ (v[1] & row[1]) ^ (v[2] & row[2]) ^ (v[3] & row[3]);
        }
        out
    }
}

/// One crosstalk edge flushing at a [`BatchOp::Flush`] point.
struct FlushEdge {
    a: usize,
    b: usize,
    /// Plan edge index — the site unit (`FLUSH_ZZ` draws are
    /// addressed per edge, not per qubit).
    e: usize,
    /// `bern_theta(θ)` — the ladder threshold of the flip draw.
    t: u64,
}

/// One step of the precompiled batch program. The sequence of ops —
/// and the draws each op makes per lane — mirrors the serial
/// sampler's per-shot control flow exactly. Each op carries its
/// plan-op index `op`, which addresses the counter-based draws by
/// structural site, so the walk order does not matter.
enum BatchOp {
    /// A twirl-flush point for qubit `q`.
    Flush {
        q: usize,
        /// Plan-op index of this flush (site addressing). The final
        /// end-of-circuit flushes use `plan.ops.len()`.
        op: usize,
        /// Bank-flip thresholds by per-lane noise code
        /// (`slot · 33 + lattice index`, see [`bank_table`]); absent
        /// when the deterministic bank phase and signed time are both
        /// exactly zero (no draw on any lane).
        table: Option<Arc<[u64]>>,
        /// Compile-assigned index of this flush's distinct
        /// `(qubit, table)` pair, so the sampling pass caches one
        /// transposed-threshold set per pair per word and every
        /// repeat flush of the same bank hits it.
        tslot: u32,
        /// Crosstalk edges flushing here, in the serial engine's
        /// incident-edge order.
        edges: Vec<FlushEdge>,
        /// `(γ, p_z)` of the decoherence twirl, when enabled and the
        /// qubit accrued idle time.
        deco: Option<(f64, f64)>,
    },
    /// 1q frame conjugation + depolarizing draw (`err_p = 0` ⇒ none).
    Gate1 {
        q: usize,
        op: usize,
        m: Symp1,
        err_p: f64,
    },
    /// 2q frame conjugation + two-qubit depolarizing draw.
    Gate2 {
        a: usize,
        b: usize,
        op: usize,
        m: Symp2,
        err_p: f64,
    },
    /// Measurement against the shared reference outcome.
    Measure {
        q: usize,
        op: usize,
        reference: bool,
        clbit: Option<usize>,
        /// Readout flip probability; `None` when readout error is
        /// disabled (no draw at all, matching the serial path).
        readout: Option<f64>,
    },
    /// Reset to |0⟩: clear X, randomize Z.
    Reset { q: usize, op: usize },
    /// Conditional Pauli gate (classical feed-forward): per lane, the
    /// condition is evaluated against the lane's packed classical key
    /// and the Pauli's plane bits are XOR-ed in exactly when the
    /// lane's firing decision differs from the reference run's — the
    /// serial engine's exact rule, word-wide. A fired lane of a
    /// physical pulse additionally draws its depolarizing error.
    CondGate {
        q: usize,
        op: usize,
        /// Plane bits of the injected Pauli.
        x: bool,
        z: bool,
        clbit: usize,
        value: bool,
        /// Whether the shared reference run fired the gate.
        ref_fired: bool,
        /// 1q depolarizing probability for fired lanes (0 ⇒ no draw).
        err_p: f64,
    },
    /// Per-shot Pauli-insertion anchor for a scheduled item: applies
    /// whatever insertions the run's [`InsertionSet`] carries for the
    /// batch's shot-lanes at this item. RNG-free (a pure plane XOR),
    /// so it exists in every plan at zero cost to plain runs and
    /// keeps insertion runs bit-identical to the serial sampler.
    Anchor { item: usize },
}

impl BatchOp {
    /// The qubit whose sites key every draw this op makes — the
    /// shard owning this qubit samples this op (see [`crate::shard`]).
    /// A 2q gate's hit/selector sites address its first qubit only;
    /// flush edge draws are keyed by plan edge id, and each edge id is
    /// reachable from exactly one flush, so they follow the flush's
    /// qubit. Anchors draw nothing and nominally belong to qubit 0.
    fn owner(&self) -> usize {
        match self {
            BatchOp::Flush { q, .. }
            | BatchOp::Gate1 { q, .. }
            | BatchOp::Measure { q, .. }
            | BatchOp::Reset { q, .. }
            | BatchOp::CondGate { q, .. } => *q,
            BatchOp::Gate2 { a, .. } => *a,
            BatchOp::Anchor { .. } => 0,
        }
    }

    /// Mask-buffer words this op pushes per strip word — its
    /// contribution to [`BatchPlan::noise_stride`], and the unit the
    /// sharded merge copies per op. Must stay in lockstep with both
    /// the sampling pushes and the propagation `next!()` consumption.
    fn words_per_w(&self) -> usize {
        match self {
            BatchOp::Flush {
                table, edges, deco, ..
            } => usize::from(table.is_some()) + edges.len() + 2 * usize::from(deco.is_some()),
            BatchOp::Gate1 { err_p, .. } | BatchOp::CondGate { err_p, .. } => {
                2 * usize::from(*err_p > 0.0)
            }
            BatchOp::Gate2 { err_p, .. } => 4 * usize::from(*err_p > 0.0),
            BatchOp::Measure { readout, .. } => {
                1 + usize::from(matches!(readout, Some(p) if *p > 0.0))
            }
            BatchOp::Reset { .. } => 1,
            BatchOp::Anchor { .. } => 0,
        }
    }
}

/// The batch program plus the shared reference run.
///
/// Owns its data like [`FramePlan`]: a fully compiled, cacheable
/// `Send + Sync` artifact (the session layer stores these behind
/// [`std::sync::Arc`]s and reuses them across runs).
pub struct BatchPlan {
    pub(crate) frame: FramePlan,
    ops: Vec<BatchOp>,
    n: usize,
    /// Whether any flush carries a bank table — only then does the
    /// strip runner hash out per-lane noise codes.
    needs_codes: bool,
    /// Count of distinct `(qubit, table)` flush pairs (see
    /// [`BatchOp::Flush::tslot`]).
    tslot_total: usize,
    /// Mask-buffer words per strip word: the sampling pass pushes
    /// exactly `noise_stride · wc` words, in the order the propagation
    /// pass consumes them.
    noise_stride: usize,
}

/// Bank-flush thresholds for every per-lane noise code: code
/// `slot · LATTICE_STEPS + idx` holds
/// `bern_theta(stat + phase_rad(sign · δ + lattice(idx) · σ, time))`
/// with `sign = [0, +1, −1][slot]` — the exact f64 expression the
/// serial sampler evaluates from [`crate::ShotNoise::sample_v2`] +
/// [`crate::ShotNoise::z_rate_khz`], so both engines compare identical hash
/// words against identical thresholds. `cp`/`qk` are the *gated*
/// per-qubit rates (0.0 when the channel is off), mirroring the
/// sampler's gating bit for bit.
fn bank_table(stat: f64, time: f64, cp: f64, qk: f64) -> Arc<[u64]> {
    // Twirl randomizes `stat` per flush, so memoization rarely hits
    // and the sin cost here is the dominant compile expense. Only the
    // codes the runtime can emit need fresh entries: with parity
    // gated off (`cp == 0`) every lane lands in slot 0, and with
    // quasistatic gated off (`qk == 0`) every lattice index collapses
    // to `det = 0` — the unreachable / collapsed entries are filled
    // by copy, cutting the per-table sin count up to 99×.
    let mut t = Vec::with_capacity(3 * LATTICE_STEPS);
    for sign in [0.0f64, 1.0, -1.0] {
        if sign != 0.0 && cp <= 0.0 {
            t.extend_from_within(0..LATTICE_STEPS);
            continue;
        }
        if qk > 0.0 {
            for idx in 0..LATTICE_STEPS {
                let rate = sign * cp + lattice_value(idx) * qk;
                t.push(bern_theta(stat + ca_device::phase_rad(rate, time)));
            }
        } else {
            let v = bern_theta(stat + ca_device::phase_rad(sign * cp, time));
            t.extend(std::iter::repeat_n(v, LATTICE_STEPS));
        }
    }
    t.into()
}

impl BatchPlan {
    /// Compiles the batch program for an already-built frame plan.
    /// The program replays the instance's own bank toggles (twirl
    /// X/Y pulses flip bank signs), so every twirl instance compiles
    /// its own program over the shared timeline plan.
    pub(crate) fn from_frame(sim: &Simulator, frame: FramePlan) -> Self {
        let _s = ca_obs::span("sim.compile", "batch-program");
        let n = frame.sc.num_qubits;
        let config = &sim.config;
        let plan = &frame.plan;

        let mut ops: Vec<BatchOp> = Vec::new();
        let mut stat = vec![0.0f64; n];
        let mut time = vec![0.0f64; n];
        let mut rzz = vec![0.0f64; plan.edge_pairs.len()];
        let mut deco_dt = vec![0.0f64; n];
        let mut meas_i = 0usize;

        // Only qubits an item can flush or negate mid-stream need
        // their signed time accrued segment by segment; every other
        // qubit's bank is read exactly once (at the final flush), so
        // their accrual collapses to one shared scalar. Idle sign is
        // +1, so the shared accumulator performs the identical f64
        // add sequence the dense per-qubit walk performed — the final
        // bank values are bit-identical (see [`FramePlan::streamed`]).
        let streamed = &frame.streamed;
        let streamed_list = &frame.streamed_list;
        let mut idle_elapsed = 0.0f64;

        // Bank tables are memoized on the exact f64 inputs: a
        // homogeneous brickwork workload produces only a handful of
        // distinct (stat, time, δ, σ) combinations, so the 99-entry
        // sin tables cost next to nothing at compile time.
        type TableKey = (u64, u64, u64, u64);
        let mut tables: BTreeMap<TableKey, Arc<[u64]>> = BTreeMap::new();

        let emit_flush = |q: usize,
                          op_i: usize,
                          stat: &mut [f64],
                          time: &mut [f64],
                          rzz: &mut [f64],
                          deco_dt: &mut [f64],
                          tables: &mut BTreeMap<TableKey, Arc<[u64]>>,
                          ops: &mut Vec<BatchOp>| {
            let cal = &sim.device.calibration.qubits[q];
            let table = (stat[q] != 0.0 || time[q] != 0.0).then(|| {
                let (s, t) = (stat[q], time[q]);
                stat[q] = 0.0;
                time[q] = 0.0;
                let cp = if config.charge_parity && cal.charge_parity_khz > 0.0 {
                    cal.charge_parity_khz
                } else {
                    0.0
                };
                let qk = if config.quasistatic && cal.quasistatic_khz > 0.0 {
                    cal.quasistatic_khz
                } else {
                    0.0
                };
                tables
                    .entry((s.to_bits(), t.to_bits(), cp.to_bits(), qk.to_bits()))
                    .or_insert_with(|| bank_table(s, t, cp, qk))
                    .clone()
            });
            let mut edges = Vec::new();
            for &e in &plan.incident[q] {
                let th = rzz[e];
                if th.abs() > 1e-15 {
                    rzz[e] = 0.0;
                    let (a, b) = plan.edge_pairs[e];
                    edges.push(FlushEdge {
                        a,
                        b,
                        e,
                        t: bern_theta(th),
                    });
                }
            }
            let deco = if config.decoherence && deco_dt[q] > 0.0 {
                let dt = deco_dt[q];
                deco_dt[q] = 0.0;
                Some((
                    damping_prob(dt, cal.t1_us),
                    dephasing_prob(dt, t_phi_us(cal.t1_us, cal.t2_us)),
                ))
            } else {
                None
            };
            if table.is_some() || !edges.is_empty() || deco.is_some() {
                ops.push(BatchOp::Flush {
                    q,
                    op: op_i,
                    table,
                    tslot: 0,
                    edges,
                    deco,
                });
            }
        };

        for (op_i, op) in plan.ops.iter().enumerate() {
            match *op {
                PlanOp::Segment(i) => {
                    let seg = &plan.segments[i];
                    for &(q, th) in &seg.rz_static {
                        stat[q] += th;
                    }
                    for &(e, th) in &plan.seg_edges[i] {
                        rzz[e] += th;
                    }
                    let dt = seg.dt();
                    idle_elapsed += dt;
                    for &q in streamed_list {
                        time[q] += seg.signed_dt(q);
                        deco_dt[q] += dt;
                    }
                }
                PlanOp::Project { item } => {
                    let si = &frame.sc.items[item];
                    let q = si.instruction.qubits[0];
                    emit_flush(
                        q,
                        op_i,
                        &mut stat,
                        &mut time,
                        &mut rzz,
                        &mut deco_dt,
                        &mut tables,
                        &mut ops,
                    );
                    match si.instruction.gate {
                        Gate::Measure => {
                            let reference = frame.ref_outcomes[meas_i];
                            meas_i += 1;
                            ops.push(BatchOp::Measure {
                                q,
                                op: op_i,
                                reference,
                                clbit: si.instruction.clbit,
                                readout: config
                                    .readout_error
                                    .then(|| sim.device.calibration.qubits[q].readout_err),
                            });
                        }
                        Gate::Reset => ops.push(BatchOp::Reset { q, op: op_i }),
                        _ => unreachable!(), // ca-lint: allow(panic) -- plan construction guarantees the op kind at this slot
                    }
                }
                PlanOp::Apply { item } => {
                    let si = &frame.sc.items[item];
                    // ca-lint: allow(panic) -- plan construction guarantees unitary items at Apply ops
                    match frame.items[item].as_ref().expect("unitary item") {
                        ItemOp::CondPauli {
                            q,
                            pauli,
                            clbit,
                            value,
                            ref_fired,
                            physical,
                        } => {
                            let q = *q;
                            if *physical {
                                // Shot-independent bank evolution:
                                // feed-forward pulses flush, exactly
                                // as the serial sampler does.
                                emit_flush(
                                    q,
                                    op_i,
                                    &mut stat,
                                    &mut time,
                                    &mut rzz,
                                    &mut deco_dt,
                                    &mut tables,
                                    &mut ops,
                                );
                            }
                            let (x, z) = pauli_to_bits(*pauli);
                            let err_p = if *physical && config.gate_error {
                                sim.device.calibration.qubits[q].gate_err_1q
                            } else {
                                0.0
                            };
                            ops.push(BatchOp::CondGate {
                                q,
                                op: op_i,
                                x,
                                z,
                                clbit: *clbit,
                                value: *value,
                                ref_fired: *ref_fired,
                                err_p,
                            });
                            ops.push(BatchOp::Anchor { item });
                        }
                        ItemOp::BankRz { q, theta } => {
                            stat[*q] += *theta;
                            ops.push(BatchOp::Anchor { item });
                        }
                        ItemOp::BankRzz { a, b, edge, theta } => {
                            rzz[*edge] += *theta;
                            let err_p = if config.gate_error {
                                let scale = frame
                                    .sc
                                    .durations
                                    .two_qubit_error_scale(&si.instruction.gate);
                                sim.device.calibration.gate_err_2q(*a, *b) * scale
                            } else {
                                0.0
                            };
                            if err_p > 0.0 {
                                ops.push(BatchOp::Gate2 {
                                    a: *a,
                                    b: *b,
                                    op: op_i,
                                    m: Symp2::identity(),
                                    err_p,
                                });
                            }
                            ops.push(BatchOp::Anchor { item });
                        }
                        ItemOp::CondBankRz { q, theta, edge } => {
                            stat[*q] += *theta;
                            if let Some((e, th)) = edge {
                                rzz[*e] += *th;
                            }
                            ops.push(BatchOp::Anchor { item });
                        }
                        ItemOp::One { q, table, z_sign } => {
                            let q = *q;
                            match z_sign {
                                Some(s) => {
                                    if *s < 0 {
                                        stat[q] = -stat[q];
                                        time[q] = -time[q];
                                        for &e in &plan.incident[q] {
                                            rzz[e] = -rzz[e];
                                        }
                                    }
                                }
                                None => emit_flush(
                                    q,
                                    op_i,
                                    &mut stat,
                                    &mut time,
                                    &mut rzz,
                                    &mut deco_dt,
                                    &mut tables,
                                    &mut ops,
                                ),
                            }
                            let m = Symp1::from_table(table);
                            let err_p = if config.gate_error
                                && !si.instruction.gate.is_virtual()
                                && !si.instruction.merged
                            {
                                sim.device.calibration.qubits[q].gate_err_1q
                            } else {
                                0.0
                            };
                            if !m.is_identity() || err_p > 0.0 {
                                ops.push(BatchOp::Gate1 {
                                    q,
                                    op: op_i,
                                    m,
                                    err_p,
                                });
                            }
                            ops.push(BatchOp::Anchor { item });
                        }
                        ItemOp::Two {
                            a,
                            b,
                            table,
                            diagonal,
                        } => {
                            let (a, b) = (*a, *b);
                            if !diagonal {
                                emit_flush(
                                    a,
                                    op_i,
                                    &mut stat,
                                    &mut time,
                                    &mut rzz,
                                    &mut deco_dt,
                                    &mut tables,
                                    &mut ops,
                                );
                                emit_flush(
                                    b,
                                    op_i,
                                    &mut stat,
                                    &mut time,
                                    &mut rzz,
                                    &mut deco_dt,
                                    &mut tables,
                                    &mut ops,
                                );
                            }
                            let err_p = if config.gate_error {
                                let scale = frame
                                    .sc
                                    .durations
                                    .two_qubit_error_scale(&si.instruction.gate);
                                sim.device.calibration.gate_err_2q(a, b) * scale
                            } else {
                                0.0
                            };
                            ops.push(BatchOp::Gate2 {
                                a,
                                b,
                                op: op_i,
                                m: Symp2::from_table(table),
                                err_p,
                            });
                            ops.push(BatchOp::Anchor { item });
                        }
                    }
                }
            }
        }
        let final_op = plan.ops.len();
        for q in 0..n {
            if !streamed[q] {
                // Settle the deferred idle accrual: the shared scalar
                // holds exactly the value the per-qubit walk would
                // have accumulated (idle sign is +1 in every segment).
                time[q] = idle_elapsed;
                deco_dt[q] = idle_elapsed;
            }
            emit_flush(
                q,
                final_op,
                &mut stat,
                &mut time,
                &mut rzz,
                &mut deco_dt,
                &mut tables,
                &mut ops,
            );
        }

        let needs_codes = ops
            .iter()
            .any(|op| matches!(op, BatchOp::Flush { table: Some(_), .. }));
        // Number the distinct (qubit, table) pairs: ~6 flushes per
        // qubit share a handful of memoized bank tables, and the
        // sampling pass keys its transposed-threshold cache on this.
        let mut tslot_total = 0usize;
        {
            let mut seen: Vec<Vec<(*const u64, u32)>> = vec![Vec::new(); n];
            for op in ops.iter_mut() {
                if let BatchOp::Flush {
                    q,
                    table: Some(t),
                    tslot,
                    ..
                } = op
                {
                    let key = Arc::as_ptr(t) as *const u64;
                    let list = &mut seen[*q];
                    *tslot = match list.iter().find(|(p, _)| *p == key) {
                        Some(&(_, i)) => i,
                        None => {
                            let i = tslot_total as u32;
                            list.push((key, i));
                            tslot_total += 1;
                            i
                        }
                    };
                }
            }
        }
        let noise_stride = n + ops.iter().map(BatchOp::words_per_w).sum::<usize>();
        Self {
            frame,
            ops,
            n,
            needs_codes,
            noise_stride,
            tslot_total,
        }
    }

    /// The sampling pass for qubits `q_lo..q_hi`: hashes the
    /// range's initial-Z planes and the noise-mask words of every
    /// program op *owned* by a qubit in the range (see
    /// [`BatchOp::owner`]) into `out`, in program order. Called once
    /// with the full range by the unsharded strip path, or once per
    /// contiguous shard by the sharded path — per-shard buffers merged
    /// in op order reproduce the full-range buffer word for word (see
    /// [`crate::shard`]), because every draw here is a pure function
    /// of the hoisted stream keys and the op's own sites.
    #[allow(clippy::too_many_arguments)]
    fn sample_ops(
        &self,
        sim: &Simulator,
        wkeys: &[u64; STRIP_WORDS],
        inner: &[u64],
        wc: usize,
        q_lo: usize,
        q_hi: usize,
        out: &mut Vec<u64>,
    ) {
        // Per-(qubit, word) noise-code groups: lanes sharing a code
        // (charge-parity slot × detuning lattice index) share every
        // bank threshold, so each flush walks one ladder per *group*
        // over shared planes instead of hashing per lane. The gating
        // mirrors `ShotNoise::sample_v2` exactly.
        let config = &sim.config;
        // Flat group storage: entry list + offsets, so the per-strip
        // precompute performs two allocations instead of one `Vec`
        // per (qubit, word).
        let mut group_data: Vec<(u8, u64)> = Vec::new();
        let mut group_off: Vec<u32> = Vec::new();
        if self.needs_codes {
            group_data.reserve_exact((q_hi - q_lo) * wc * 2);
            group_off.reserve_exact((q_hi - q_lo) * wc + 1);
            group_off.push(0);
            let mut masks = [0u64; 3 * LATTICE_STEPS];
            for q in q_lo..q_hi {
                let cal = &sim.device.calibration.qubits[q];
                let par = config.charge_parity && cal.charge_parity_khz > 0.0;
                let s = site::id(site::NOISE, 0, q);
                for w in 0..wc {
                    // Occupied codes as a 99-bit bitmap: the per-lane
                    // loop stays branch-free, and groups drain in code
                    // order (the flush OR is commutative, so ordering
                    // is free to change).
                    let mut seen = [0u64; 2];
                    for j in 0..LANES {
                        let h = site_draw(inner[w * LANES + j], s);
                        let slot = if par {
                            if h >> 63 & 1 == 1 {
                                1
                            } else {
                                2
                            }
                        } else {
                            0
                        };
                        let c = slot * LATTICE_STEPS + lattice_idx(h);
                        seen[c / 64] |= 1 << (c % 64);
                        masks[c] |= 1 << j;
                    }
                    for (blk, &sb) in seen.iter().enumerate() {
                        let mut bits = sb;
                        while bits != 0 {
                            let c = blk * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            group_data.push((c as u8, masks[c]));
                            masks[c] = 0;
                        }
                    }
                    group_off.push(group_data.len() as u32);
                }
            }
        }
        // Transposed flush thresholds, one cache slot per (qubit,
        // word): entry `k` holds the lanes whose own bank threshold
        // has MSB-first bit `k` set. A flush then walks ONE combined
        // ladder — decided lanes are where the plane bit differs from
        // the lane's threshold bit — instead of one ladder per code
        // group. Keyed by the compile-assigned (qubit, table) slot, so
        // repeated flushes of an unchanged table reuse the transpose;
        // twirled circuits draw mostly-distinct tables, where the win
        // is the combined walk itself. Depth 8 leaves a lane
        // undecided with probability 2⁻⁸; the rare survivors finish
        // on the exact per-group ladder below.
        const TDEPTH: usize = 8;
        let mut tcache: Vec<(bool, [u64; TDEPTH])> = if self.needs_codes {
            vec![(false, [0u64; TDEPTH]); self.tslot_total * wc]
        } else {
            Vec::new()
        };

        // The mask buffer: pushed in the exact order the propagation
        // pass consumes the range's words.
        for q in q_lo..q_hi {
            let s = site::id(site::INIT_Z, 0, q);
            for w in 0..wc {
                out.push(fair_plane(site_draw(wkeys[w], s)));
            }
        }
        for bop in &self.ops {
            let owner = bop.owner();
            if owner < q_lo || owner >= q_hi {
                continue;
            }
            match bop {
                BatchOp::Flush {
                    q,
                    op,
                    table,
                    tslot,
                    edges,
                    deco,
                    ..
                } => {
                    let q = *q;
                    if let Some(table) = table {
                        let s = site::id(site::FLUSH_Z, *op, q);
                        for w in 0..wc {
                            let (lo, hi) = (
                                group_off[(q - q_lo) * wc + w],
                                group_off[(q - q_lo) * wc + w + 1],
                            );
                            let gslice = &group_data[lo as usize..hi as usize];
                            let slot = &mut tcache[*tslot as usize * wc + w];
                            if !slot.0 {
                                let mut tp = [0u64; TDEPTH];
                                for &(c, gm) in gslice {
                                    let t = table[c as usize];
                                    for (k, m) in tp.iter_mut().enumerate() {
                                        *m |= (t >> (63 - k) & 1).wrapping_neg() & gm;
                                    }
                                }
                                *slot = (true, tp);
                            }
                            let tp = &slot.1;
                            let b = site_draw(wkeys[w], s);
                            let mut zm = 0u64;
                            let mut undecided = u64::MAX;
                            for (k, &tk) in tp.iter().enumerate() {
                                if undecided == 0 {
                                    break;
                                }
                                let p = plane(b, k as u32);
                                zm |= undecided & tk & !p;
                                undecided &= !(tk ^ p);
                            }
                            if undecided != 0 {
                                // ~2⁻⁸-probability tail: finish each
                                // surviving lane on its own group's
                                // exact ladder from bit TDEPTH on.
                                for &(c, gm) in gslice {
                                    let t = table[c as usize];
                                    let mut und = undecided & gm;
                                    for k in TDEPTH..64 {
                                        if und == 0 || t << k == 0 {
                                            break;
                                        }
                                        let p = plane(b, k as u32);
                                        if t >> (63 - k) & 1 == 1 {
                                            zm |= und & !p;
                                            und &= p;
                                        } else {
                                            und &= !p;
                                        }
                                    }
                                }
                            }
                            out.push(zm);
                        }
                    }
                    for edge in edges {
                        let s = site::id(site::FLUSH_ZZ, *op, edge.e);
                        for w in 0..wc {
                            out.push(lt_mask(site_draw(wkeys[w], s), edge.t));
                        }
                    }
                    if let Some((gamma, p_z)) = deco {
                        // Three damping thresholds over one plane
                        // ladder (X on the middle band, Z where the
                        // outer bands disagree), dephasing folded into
                        // the same Z mask word.
                        let ds = site::id(site::DECO_DAMP, *op, q);
                        let ps = site::id(site::DECO_DEPH, *op, q);
                        let ts = damping_thresholds(*gamma);
                        let pt = bern_threshold(*p_z);
                        for w in 0..wc {
                            let (mut mx, mut mz) = (0u64, 0u64);
                            if *gamma > 0.0 {
                                let [m1, m2, m3] = lt_masks(site_draw(wkeys[w], ds), ts);
                                mx = m2;
                                mz = m1 ^ m3;
                            }
                            if *p_z > 0.0 {
                                mz ^= lt_mask(site_draw(wkeys[w], ps), pt);
                            }
                            out.push(mx);
                            out.push(mz);
                        }
                    }
                }
                BatchOp::Gate1 { q, op, m: _, err_p } => {
                    if *err_p > 0.0 {
                        let t = bern_threshold(*err_p);
                        let hs = site::id(site::GATE_HIT, *op, *q);
                        let ss = site::id(site::GATE_SEL, *op, *q);
                        for w in 0..wc {
                            let mut hit = lt_mask(site_draw(wkeys[w], hs), t);
                            let mut xm = 0u64;
                            let mut zm = 0u64;
                            while hit != 0 {
                                let j = hit.trailing_zeros() as usize;
                                hit &= hit - 1;
                                let k = pick(site_draw(inner[w * LANES + j], ss), 3) as usize;
                                let (x, z) = pauli_to_bits([Pauli::X, Pauli::Y, Pauli::Z][k]);
                                if x {
                                    xm |= 1 << j;
                                }
                                if z {
                                    zm |= 1 << j;
                                }
                            }
                            out.push(xm);
                            out.push(zm);
                        }
                    }
                }
                BatchOp::Gate2 {
                    a,
                    b: _,
                    op,
                    m: _,
                    err_p,
                } => {
                    if *err_p > 0.0 {
                        let t = bern_threshold(*err_p);
                        let hs = site::id(site::GATE_HIT, *op, *a);
                        let ss = site::id(site::GATE_SEL, *op, *a);
                        for w in 0..wc {
                            let mut hit = lt_mask(site_draw(wkeys[w], hs), t);
                            let mut xa = 0u64;
                            let mut za = 0u64;
                            let mut xb = 0u64;
                            let mut zb = 0u64;
                            while hit != 0 {
                                let j = hit.trailing_zeros() as usize;
                                hit &= hit - 1;
                                let k = pick(site_draw(inner[w * LANES + j], ss), 15) as usize + 1;
                                let (x1, z1) = pauli_to_bits(Pauli::from_index(k % 4));
                                let (x2, z2) = pauli_to_bits(Pauli::from_index(k / 4));
                                let bit = 1u64 << j;
                                if x1 {
                                    xa |= bit;
                                }
                                if z1 {
                                    za |= bit;
                                }
                                if x2 {
                                    xb |= bit;
                                }
                                if z2 {
                                    zb |= bit;
                                }
                            }
                            out.push(xa);
                            out.push(za);
                            out.push(xb);
                            out.push(zb);
                        }
                    }
                }
                BatchOp::Measure { q, op, readout, .. } => {
                    let rt = match readout {
                        Some(p) if *p > 0.0 => Some(bern_threshold(*p)),
                        _ => None,
                    };
                    let rs = site::id(site::READOUT, *op, *q);
                    let ms = site::id(site::MEAS_Z, *op, *q);
                    for w in 0..wc {
                        if let Some(t) = rt {
                            out.push(lt_mask(site_draw(wkeys[w], rs), t));
                        }
                        out.push(fair_plane(site_draw(wkeys[w], ms)));
                    }
                }
                BatchOp::Reset { q, op } => {
                    let s = site::id(site::RESET_Z, *op, *q);
                    for w in 0..wc {
                        out.push(fair_plane(site_draw(wkeys[w], s)));
                    }
                }
                BatchOp::CondGate { q, op, err_p, .. } => {
                    // The hit/selector hashes are pure functions, so
                    // they are sampled for every hit lane here; the
                    // propagation pass masks them by the lanes that
                    // actually fired.
                    if *err_p > 0.0 {
                        let t = bern_threshold(*err_p);
                        let hs = site::id(site::GATE_HIT, *op, *q);
                        let ss = site::id(site::GATE_SEL, *op, *q);
                        for w in 0..wc {
                            let mut hit = lt_mask(site_draw(wkeys[w], hs), t);
                            let mut xm = 0u64;
                            let mut zm = 0u64;
                            while hit != 0 {
                                let j = hit.trailing_zeros() as usize;
                                hit &= hit - 1;
                                let k = pick(site_draw(inner[w * LANES + j], ss), 3) as usize;
                                let (ex, ez) = pauli_to_bits([Pauli::X, Pauli::Y, Pauli::Z][k]);
                                if ex {
                                    xm |= 1 << j;
                                }
                                if ez {
                                    zm |= 1 << j;
                                }
                            }
                            out.push(xm);
                            out.push(zm);
                        }
                    }
                }
                BatchOp::Anchor { .. } => {}
            }
        }
    }

    /// Runs one strip of `active ≤ STRIP_SHOTS`
    /// shot-lanes starting at global shot index `base` (a multiple of
    /// [`STRIP_SHOTS`]): `wc = ceil(active/64)` bit-plane words per
    /// qubit walk the program together, so the per-op dispatch cost is
    /// paid once per 256 shots instead of once per 64.
    ///
    /// Every decision is a counter-based hash of `(seed, shot, site)`
    /// — the identical pure function the serial sampler evaluates — so lane `j` of strip word `w` reproduces shot
    /// `base + 64·w + j` bit-for-bit regardless of walk order, worker
    /// count, or tail occupancy. Order-independence makes the whole
    /// strip two clean passes: a *sampling* pass hashes every noise
    /// decision into a linear mask buffer with no frame state at all,
    /// then a *propagation* pass replays the op stream as
    /// straight-line word arithmetic over the buffer. Lane-uniform
    /// probabilities compare whole 64-lane bit-planes against the
    /// threshold via the [`lt_mask`] ladder (≈ `1 + log₂(1/ε)` planes
    /// instead of 64 scalar draws); lane-varying bank thresholds walk
    /// the same ladder once per noise-code group over shared planes.
    ///
    /// `shards > 1` additionally fans the sampling pass out across
    /// that many contiguous qubit shards (see [`crate::shard`]) —
    /// a wall-clock knob only, with no effect on the output.
    fn run_strip(
        &self,
        sim: &Simulator,
        seed: u64,
        base: usize,
        active: usize,
        ins: &InsertionSet,
        shards: usize,
    ) -> StripOut {
        let n = self.n;
        let mut phase = crate::obs_util::PhaseTimer::start();
        let wc = active.div_ceil(LANES);
        let lanes = wc * LANES;

        // ---- Sampling pass ------------------------------------------------
        // Hoisted stream keys: one mix64 per lane (per-shot draws) and
        // per word (bit-plane draws), reused by every site hash below.
        let mut inner = vec![0u64; lanes];
        for (l, k) in inner.iter_mut().enumerate() {
            *k = shot_key(seed, (base + l) as u64);
        }
        let mut wkeys = [0u64; STRIP_WORDS];
        for (w, k) in wkeys.iter_mut().enumerate().take(wc) {
            *k = shot_key(seed, (base / LANES + w) as u64);
        }

        // Sampling fans out across contiguous qubit shards when the
        // strip has worker threads to spare (see [`crate::shard`]);
        // `shards <= 1` samples the full range inline. Either way the
        // buffer contents are identical word for word, so the shard
        // count never shows up in results.
        let noise = if shards <= 1 {
            let mut noise = Vec::with_capacity(self.noise_stride * wc);
            self.sample_ops(sim, &wkeys, &inner, wc, 0, n, &mut noise);
            noise
        } else {
            let ranges = crate::shard::qubit_ranges(n, shards);
            let bufs = map_batches(ranges.len(), Some(shards), |i| {
                let (lo, hi) = ranges[i];
                let mut buf = Vec::with_capacity(self.noise_stride * wc / ranges.len() + wc);
                self.sample_ops(sim, &wkeys, &inner, wc, lo, hi, &mut buf);
                buf
            });
            let init_lens: Vec<usize> = ranges.iter().map(|&(lo, hi)| (hi - lo) * wc).collect();
            let mut shard_of = vec![0u32; n];
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                for s in &mut shard_of[lo..hi] {
                    *s = i as u32;
                }
            }
            let sched: Vec<(u32, u32)> = self
                .ops
                .iter()
                .filter_map(|bop| {
                    let words = bop.words_per_w() * wc;
                    (words > 0).then_some((shard_of[bop.owner()], words as u32))
                })
                .collect();
            crate::shard::merge_op_order(&bufs, &init_lens, &sched, self.noise_stride * wc)
        };
        debug_assert_eq!(noise.len(), self.noise_stride * wc);
        phase.tick_sampling();

        // ---- Propagation pass ---------------------------------------------
        let mut fx = vec![0u64; n * wc];
        let mut fz = vec![0u64; n * wc];
        let mut key_planes = [[0u64; STRIP_WORDS]; LANES];
        let mut cur = 0usize;
        macro_rules! next {
            () => {{
                let v = noise[cur];
                cur += 1;
                v
            }};
        }
        // Initial Z-frame randomization: Z stabilizes |0…0⟩.
        for q in 0..n {
            for w in 0..wc {
                fz[q * wc + w] = next!();
            }
        }
        for bop in &self.ops {
            match bop {
                BatchOp::Flush {
                    q,
                    table,
                    edges,
                    deco,
                    ..
                } => {
                    let q = *q;
                    if table.is_some() {
                        for w in 0..wc {
                            fz[q * wc + w] ^= next!();
                        }
                    }
                    for edge in edges {
                        for w in 0..wc {
                            let m = next!();
                            fz[edge.a * wc + w] ^= m;
                            fz[edge.b * wc + w] ^= m;
                        }
                    }
                    if deco.is_some() {
                        for w in 0..wc {
                            fx[q * wc + w] ^= next!();
                            fz[q * wc + w] ^= next!();
                        }
                    }
                }
                BatchOp::Gate1 { q, op: _, m, err_p } => {
                    let q = *q;
                    for w in 0..wc {
                        let (nx, nz) = m.apply(fx[q * wc + w], fz[q * wc + w]);
                        fx[q * wc + w] = nx;
                        fz[q * wc + w] = nz;
                    }
                    if *err_p > 0.0 {
                        for w in 0..wc {
                            fx[q * wc + w] ^= next!();
                            fz[q * wc + w] ^= next!();
                        }
                    }
                }
                BatchOp::Gate2 {
                    a,
                    b,
                    op: _,
                    m,
                    err_p,
                } => {
                    let (a, b) = (*a, *b);
                    for w in 0..wc {
                        let out = m.apply([
                            fx[a * wc + w],
                            fz[a * wc + w],
                            fx[b * wc + w],
                            fz[b * wc + w],
                        ]);
                        fx[a * wc + w] = out[0];
                        fz[a * wc + w] = out[1];
                        fx[b * wc + w] = out[2];
                        fz[b * wc + w] = out[3];
                    }
                    if *err_p > 0.0 {
                        for w in 0..wc {
                            fx[a * wc + w] ^= next!();
                            fz[a * wc + w] ^= next!();
                            fx[b * wc + w] ^= next!();
                            fz[b * wc + w] ^= next!();
                        }
                    }
                }
                BatchOp::Measure {
                    q,
                    op: _,
                    reference,
                    clbit,
                    readout,
                } => {
                    let q = *q;
                    let rm = if *reference { u64::MAX } else { 0 };
                    let armed = matches!(readout, Some(p) if *p > 0.0);
                    for w in 0..wc {
                        let mut out = rm ^ fx[q * wc + w];
                        if armed {
                            out ^= next!();
                        }
                        if let Some(c) = clbit {
                            if *c < LANES {
                                key_planes[*c][w] = out;
                            }
                        }
                        // Post-collapse Z randomization.
                        fz[q * wc + w] = next!();
                    }
                }
                BatchOp::Reset { q, op: _ } => {
                    let q = *q;
                    for w in 0..wc {
                        fx[q * wc + w] = 0;
                        fz[q * wc + w] = next!();
                    }
                }
                BatchOp::CondGate {
                    q,
                    op: _,
                    x,
                    z,
                    clbit,
                    value,
                    ref_fired,
                    err_p,
                } => {
                    let q = *q;
                    let vm = if *value { u64::MAX } else { 0 };
                    let rm = if *ref_fired { u64::MAX } else { 0 };
                    for w in 0..wc {
                        // Lanes whose classical bit equals `value`.
                        let fired = !(key_planes[*clbit][w] ^ vm);
                        let diff = fired ^ rm;
                        if *x {
                            fx[q * wc + w] ^= diff;
                        }
                        if *z {
                            fz[q * wc + w] ^= diff;
                        }
                        if *err_p > 0.0 {
                            fx[q * wc + w] ^= next!() & fired;
                            fz[q * wc + w] ^= next!() & fired;
                        }
                    }
                }
                BatchOp::Anchor { item } => {
                    for &(shot, q, p) in ins.in_shot_range(*item, base, base + active) {
                        let l = shot - base;
                        let (x, z) = pauli_to_bits(p);
                        let bit = 1u64 << (l % LANES);
                        if x {
                            fx[q * wc + l / LANES] ^= bit;
                        }
                        if z {
                            fz[q * wc + l / LANES] ^= bit;
                        }
                    }
                }
            }
        }
        debug_assert_eq!(cur, noise.len());

        // Per-lane classical keys from the clbit planes (sparse
        // transpose: zero plane bits contribute nothing).
        let mut keys = vec![0u64; lanes];
        for (c, planes) in key_planes.iter().enumerate() {
            for (w, &plane) in planes.iter().enumerate().take(wc) {
                let mut p = plane;
                while p != 0 {
                    let j = p.trailing_zeros() as usize;
                    p &= p - 1;
                    keys[w * LANES + j] |= 1u64 << c;
                }
            }
        }
        phase.tick_propagation();
        phase.finish();
        ca_obs::counter_add("engine.batches", wc as u64);
        ca_obs::counter_add("engine.shots", active as u64);
        StripOut { fx, fz, keys, wc }
    }

    /// The strip fan-out behind every entry point: runs the shots as
    /// [`STRIP_SHOTS`]-shot strips through [`map_chunks`] (which polls
    /// `cancel` at the start of every strip), decides the qubit-shard
    /// count once, and hands each finished strip and its active lane
    /// count to `reduce` (timed as the reduction phase). Reductions
    /// come back in strip order whatever the worker count, so a
    /// caller's merge — f64 sums included — is bit-identical across
    /// worker counts. The first error in strip order aborts the whole
    /// run with no partial result.
    fn map_strips<Out: Send>(
        &self,
        sim: &Simulator,
        ins: &InsertionSet,
        params: ShotParams<'_>,
        reduce: impl Fn(&StripOut, usize) -> Out + Sync,
    ) -> Result<Vec<Out>, SimError> {
        let ShotParams {
            shots,
            seed,
            workers,
            cancel,
        } = params;
        let strips = shots.div_ceil(STRIP_SHOTS);
        let shards = crate::shard::shard_count(self.n, strips, worker_count(workers, usize::MAX));
        map_chunks(shots, STRIP_SHOTS, workers, cancel, |base, active| {
            let out = self.run_strip(sim, seed, base, active, ins, shards);
            crate::obs_util::time_engine_phase("reduction", || reduce(&out, active))
        })
    }

    /// Shot-sampled classical counts over this prepared plan.
    /// `cancel` is polled at the start of every strip.
    pub(crate) fn counts(
        &self,
        sim: &Simulator,
        ins: &InsertionSet,
        params: ShotParams<'_>,
    ) -> Result<RunResult, SimError> {
        let parts = self.map_strips(sim, ins, params, |out, active| {
            let mut counts = BTreeMap::new();
            for &key in out.keys.iter().take(active) {
                *counts.entry(key).or_insert(0usize) += 1;
            }
            counts
        })?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            RunResult::from_parts(params.shots, self.frame.sc.num_clbits, parts)
        }))
    }

    /// Reference expectation plus the observable's support as
    /// per-qubit plane selectors: lane-parity word =
    /// XOR over support of (z_obs ? fx[q] : 0) ^ (x_obs ? fz[q] : 0).
    fn prepare_observables(&self, paulis: &[PauliString]) -> PreparedObs {
        paulis
            .iter()
            .map(|p| {
                let r = self.frame.ref_tableau.expect(p); // ca-lint: allow(panic) -- reference tableau is set during plan construction
                let support: Vec<(usize, bool, bool)> = p
                    .paulis
                    .iter()
                    .enumerate()
                    .filter(|(_, &pl)| pl != Pauli::I)
                    .map(|(q, &pl)| {
                        let (x, z) = pauli_to_bits(pl);
                        (q, x, z)
                    })
                    .collect();
                (r, support)
            })
            .collect()
    }

    /// Frame-averaged Pauli expectations over this prepared plan.
    /// `cancel` is polled at the start of every strip.
    pub(crate) fn expectations(
        &self,
        sim: &Simulator,
        paulis: &[PauliString],
        ins: &InsertionSet,
        params: ShotParams<'_>,
    ) -> Result<Vec<f64>, SimError> {
        let prepared = self.prepare_observables(paulis);
        let partials: Vec<Vec<f64>> = self.map_strips(sim, ins, params, |out, active| {
            prepared
                .iter()
                .map(|(r, support)| {
                    if *r == 0 {
                        return 0.0;
                    }
                    let flips: i64 = (0..out.wc)
                        .map(|w| out.parity(w, active, support).count_ones() as i64)
                        .sum();
                    (*r as i64 * (active as i64 - 2 * flips)) as f64
                })
                .collect()
        })?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            mean_from_parts(params.shots, paulis.len(), partials)
        }))
    }

    /// Per-shot ±1 outcomes over this prepared plan: strip word `w`'s
    /// masked parity word *is* word `w` of the strip's slice of the
    /// shot bitvector, so the result is assembled with no per-shot
    /// work at all. `cancel` is polled at the start of every strip.
    pub(crate) fn flips(
        &self,
        sim: &Simulator,
        paulis: &[PauliString],
        ins: &InsertionSet,
        params: ShotParams<'_>,
    ) -> Result<PauliFlips, SimError> {
        let prepared = self.prepare_observables(paulis);
        let partials: Vec<Vec<Vec<u64>>> = self.map_strips(sim, ins, params, |out, active| {
            prepared
                .iter()
                .map(|(_, support)| {
                    (0..out.wc)
                        .map(|w| out.parity(w, active, support))
                        .collect()
                })
                .collect()
        })?;
        Ok(crate::obs_util::time_engine_phase("reduction", || {
            PauliFlips::from_blocks(
                params.shots,
                prepared.iter().map(|(r, _)| *r).collect(),
                partials,
            )
        }))
    }
}

/// `(reference expectation, support plane selectors)` per observable.
type PreparedObs = Vec<(i32, Vec<(usize, bool, bool)>)>;

/// The finished state of one strip: per-qubit plane words laid out
/// `[q * wc + w]`, per-lane classical keys (`w * 64 + j`), and the
/// strip's word count `wc ≤ STRIP_WORDS`.
struct StripOut {
    fx: Vec<u64>,
    fz: Vec<u64>,
    keys: Vec<u64>,
    wc: usize,
}

impl StripOut {
    /// Lane-parity word of one observable against strip word `w`,
    /// with the lanes at or past `active` (the strip's shot count)
    /// masked off.
    #[inline]
    fn parity(&self, w: usize, active: usize, support: &[(usize, bool, bool)]) -> u64 {
        let mut parity = 0u64;
        for &(q, x_obs, z_obs) in support {
            if z_obs {
                parity ^= self.fx[q * self.wc + w];
            }
            if x_obs {
                parity ^= self.fz[q * self.wc + w];
            }
        }
        let aw = LANES.min(active - w * LANES);
        if aw == LANES {
            parity
        } else {
            parity & ((1u64 << aw) - 1)
        }
    }
}

/// Verifies a 1q table's symplectic form against direct lookups —
/// exposed for the property tests.
#[cfg(test)]
fn symp1_matches_table(table: &[(i8, Pauli); 4]) -> bool {
    let m = Symp1::from_table(table);
    Pauli::ALL.iter().all(|&p| {
        let (x, z) = pauli_to_bits(p);
        let lane = |b: bool| if b { 1u64 } else { 0 };
        let (nx, nz) = m.apply(lane(x), lane(z));
        (nx == 1, nz == 1) == pauli_to_bits(table[p.index()].1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::insert::PauliInsertion;
    use crate::noise::NoiseConfig;
    use crate::plan::ExecutionPlan;
    use crate::session::CompiledCircuit;
    use ca_circuit::clifford::{conjugation_table_1q, conjugation_table_2q};
    use ca_circuit::{schedule_asap, Circuit, GateDurations, ScheduledCircuit};
    use ca_device::{uniform_device, Topology};

    fn sched(qc: &Circuit) -> ScheduledCircuit {
        schedule_asap(qc, GateDurations::default())
    }

    /// `sc` compiled on one frame engine: [`Engine::Stabilizer`] is
    /// the serial reference, [`Engine::FrameBatch`] this engine.
    fn compiled(
        sim: &Simulator,
        engine: Engine,
        sc: &ScheduledCircuit,
        seed: u64,
    ) -> CompiledCircuit {
        Simulator {
            engine,
            ..sim.clone()
        }
        .compile(sc, seed)
        .unwrap()
    }

    #[test]
    fn symplectic_forms_match_tables() {
        for g in [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rz(std::f64::consts::FRAC_PI_2),
        ] {
            assert!(
                symp1_matches_table(&conjugation_table_1q(g)),
                "{}",
                g.name()
            );
        }
        for g in [
            Gate::Cx,
            Gate::Cz,
            Gate::Ecr,
            Gate::Rzz(std::f64::consts::FRAC_PI_2),
        ] {
            let table = conjugation_table_2q(g);
            let m = Symp2::from_table(&table);
            for idx in 0..16 {
                let (pa, pb) = (Pauli::from_index(idx % 4), Pauli::from_index(idx / 4));
                let (xa, za) = pauli_to_bits(pa);
                let (xb, zb) = pauli_to_bits(pb);
                let lane = |b: bool| if b { 1u64 } else { 0 };
                let out = m.apply([lane(xa), lane(za), lane(xb), lane(zb)]);
                let (_, (qa, qb)) = table[idx];
                let (exa, eza) = pauli_to_bits(qa);
                let (exb, ezb) = pauli_to_bits(qb);
                assert_eq!(
                    [out[0] == 1, out[1] == 1, out[2] == 1, out[3] == 1],
                    [exa, eza, exb, ezb],
                    "{} on pair {idx}",
                    g.name()
                );
            }
        }
    }

    /// A noisy 5-qubit Clifford workload exercising every channel.
    fn noisy_workload() -> (Simulator, Circuit) {
        let mut dev = uniform_device(Topology::line(5), 60.0);
        for q in 0..5 {
            dev.calibration.qubits[q].quasistatic_khz = 30.0;
            dev.calibration.qubits[q].charge_parity_khz = 3.0;
            dev.calibration.qubits[q].t1_us = 80.0;
            dev.calibration.qubits[q].t2_us = 90.0;
            dev.calibration.qubits[q].readout_err = 0.03;
            dev.calibration.qubits[q].gate_err_1q = 0.002;
        }
        let sim = Simulator::with_config(dev, NoiseConfig::default());
        let mut qc = Circuit::new(5, 5);
        qc.h(0).sx(1).x(2).s(3).h(4);
        qc.ecr(0, 1).cx(2, 3);
        qc.delay(800.0, 4);
        qc.x(4);
        qc.delay(800.0, 4);
        qc.cz(1, 2).ecr(3, 4);
        qc.reset(2);
        qc.h(2);
        for q in 0..5 {
            qc.measure(q, q);
        }
        (sim, qc)
    }

    #[test]
    fn batch_counts_bit_identical_to_serial() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        let none = InsertionSet::empty();
        for (shots, seed) in [(1usize, 3u64), (63, 5), (64, 7), (65, 9), (200, 11)] {
            let a = compiled(&sim, Engine::Stabilizer, &sc, seed)
                .run_counts(shots, &none, None)
                .unwrap();
            let b = compiled(&sim, Engine::FrameBatch, &sc, seed)
                .run_counts(shots, &none, None)
                .unwrap();
            assert_eq!(a, b, "shots {shots} seed {seed}");
        }
    }

    /// Direct strip-level check, bypassing the dispatch policy: every
    /// shard count hands `run_strip` the identical mask buffer, so the
    /// final planes and classical keys match word for word — including
    /// shard counts that do not divide the qubit count and a tail
    /// strip with partial lanes.
    #[test]
    fn sharded_strip_matches_unsharded_for_every_shard_count() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        let exec = ExecutionPlan::build_arc(Arc::new(sc), &sim.device, &sim.config).unwrap();
        let frame = FramePlan::build_with_plan(exec.sc.clone(), Arc::new(exec), 17).unwrap();
        let plan = BatchPlan::from_frame(&sim, frame);
        let ins = InsertionSet::empty();
        for (base, active) in [(0usize, STRIP_SHOTS), (STRIP_SHOTS, 77)] {
            let reference = plan.run_strip(&sim, 17, base, active, &ins, 1);
            for shards in [2usize, 3, 5] {
                let got = plan.run_strip(&sim, 17, base, active, &ins, shards);
                assert_eq!(reference.fx, got.fx, "fx diverges at {shards} shards");
                assert_eq!(reference.fz, got.fz, "fz diverges at {shards} shards");
                assert_eq!(reference.keys, got.keys, "keys diverge at {shards} shards");
                assert_eq!(reference.wc, got.wc);
            }
        }
    }

    /// Strips the trailing measurement round so expectations see the
    /// frame state (shared by the expectation-identity tests; counts
    /// tests keep the measurements — they are uniformly supported).
    fn without_measurements(mut qc: Circuit) -> Circuit {
        qc.instructions.retain(|i| i.gate != Gate::Measure);
        qc
    }

    #[test]
    fn batch_expectations_bit_identical_to_serial() {
        let (sim, qc) = noisy_workload();
        let qc = without_measurements(qc);
        let sc = sched(&qc);
        let obs = [
            PauliString::parse("ZZIII").unwrap(),
            PauliString::parse("IXXII").unwrap(),
            PauliString::parse("IIIZZ").unwrap(),
            PauliString::parse("YIIIY").unwrap(),
        ];
        let none = InsertionSet::empty();
        let a = compiled(&sim, Engine::Stabilizer, &sc, 17)
            .expect_paulis(&obs, 300, &none, None)
            .unwrap();
        let b = compiled(&sim, Engine::FrameBatch, &sc, 17)
            .expect_paulis(&obs, 300, &none, None)
            .unwrap();
        assert_eq!(a, b, "expectation sums are integer-exact");
    }

    #[test]
    fn counts_independent_of_worker_count() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        let batch = compiled(&sim, Engine::FrameBatch, &sc, 23);
        let none = InsertionSet::empty();
        let reference = batch.run_counts(500, &none, Some(1)).unwrap();
        for workers in [2usize, 3, 8] {
            let got = batch.run_counts(500, &none, Some(workers)).unwrap();
            assert_eq!(reference, got, "{workers} workers");
        }
    }

    #[test]
    fn insertions_flip_outcomes_and_stay_bit_identical() {
        let (sim, qc) = noisy_workload();
        let sc = sched(&qc);
        // Insert an X on qubit 2 right after the final H(2) for half
        // the shots: those shots' bit 2 must flip relative to the
        // uninserted run, identically on both engines.
        let h2 = sc
            .items
            .iter()
            .enumerate()
            .filter(|(_, si)| si.instruction.gate == Gate::H && si.instruction.qubits == [2])
            .map(|(i, _)| i)
            .next_back()
            .unwrap();
        let shots = 150usize;
        let list: Vec<PauliInsertion> = (0..shots)
            .filter(|s| s % 2 == 0)
            .map(|shot| PauliInsertion {
                shot,
                item: h2,
                qubit: 2,
                pauli: Pauli::X,
            })
            .collect();
        let ins = InsertionSet::build(&sc, &list).unwrap();
        let batch = compiled(&sim, Engine::FrameBatch, &sc, 5);
        let a = compiled(&sim, Engine::Stabilizer, &sc, 5)
            .run_counts(shots, &ins, None)
            .unwrap();
        let b = batch.run_counts(shots, &ins, None).unwrap();
        assert_eq!(a, b, "insertion runs must stay bit-identical");
        let plain = batch
            .run_counts(shots, &InsertionSet::empty(), None)
            .unwrap();
        assert_ne!(a, plain, "insertions must change sampled outcomes");
    }

    #[test]
    fn expect_flips_matches_expect_paulis() {
        let (sim, qc) = noisy_workload();
        let qc = without_measurements(qc);
        let sc = sched(&qc);
        let batch = compiled(&sim, Engine::FrameBatch, &sc, 9);
        let obs = [
            PauliString::parse("ZZIII").unwrap(),
            PauliString::parse("IXXII").unwrap(),
            PauliString::parse("YIIIY").unwrap(),
        ];
        let none = InsertionSet::empty();
        // 130 shots: two full words plus a partial tail word.
        let fs = compiled(&sim, Engine::Stabilizer, &sc, 9)
            .expect_flips(&obs, 130, &none, None)
            .unwrap();
        let fb = batch.expect_flips(&obs, 130, &none, None).unwrap();
        assert_eq!(fs, fb, "per-shot flips must be bit-identical");
        let means = batch.expect_paulis(&obs, 130, &none, None).unwrap();
        for (o, m) in means.iter().enumerate() {
            assert_eq!(fb.mean(o), *m, "observable {o}");
        }
    }

    /// A noisy dynamic workload: mid-circuit measurement, conditional
    /// Pauli corrections (X/Y/Z), an outcome-conditioned diagonal
    /// rotation, bank-folded Rz/Rzz, and a reset — every new
    /// feed-forward path in one circuit.
    fn dynamic_workload_with(final_round: bool) -> (Simulator, Circuit) {
        let (sim, _) = noisy_workload();
        let mut qc = Circuit::new(5, 5);
        qc.h(0).cx(0, 1).cx(1, 2).h(1);
        qc.measure(1, 0);
        qc.gate_if(Gate::Z, [2], 0, true);
        qc.gate_if(Gate::X, [0], 0, false);
        qc.gate_if(Gate::Y, [3], 0, true);
        qc.gate_if(Gate::Rz(0.37), [2], 0, true);
        qc.rz(0.21, 3).rzz(0.5, 3, 4);
        qc.reset(1);
        qc.h(1).ecr(3, 4);
        if final_round {
            for q in 0..5 {
                qc.measure(q, q);
            }
        }
        (sim, qc)
    }

    fn dynamic_workload() -> (Simulator, Circuit) {
        dynamic_workload_with(true)
    }

    #[test]
    fn conditional_circuits_stay_bit_identical_to_serial() {
        let (sim, qc) = dynamic_workload();
        let sc = sched(&qc);
        let none = InsertionSet::empty();
        for (shots, seed) in [(1usize, 3u64), (63, 5), (64, 7), (65, 9), (257, 11)] {
            let a = compiled(&sim, Engine::Stabilizer, &sc, seed)
                .run_counts(shots, &none, None)
                .unwrap();
            let b = compiled(&sim, Engine::FrameBatch, &sc, seed)
                .run_counts(shots, &none, None)
                .unwrap();
            assert_eq!(a, b, "shots {shots} seed {seed}");
        }
        // Worker-count independence holds through feed-forward too.
        let batch = compiled(&sim, Engine::FrameBatch, &sc, 23);
        let reference = batch.run_counts(300, &none, Some(1)).unwrap();
        for workers in [2usize, 3, 8] {
            let got = batch.run_counts(300, &none, Some(workers)).unwrap();
            assert_eq!(reference, got, "{workers} workers");
        }
    }

    #[test]
    fn conditional_expectations_bit_identical_to_serial() {
        // Keep the mid-circuit measurement (it feeds the conditions);
        // only the final readout round is absent.
        let (sim, qc) = dynamic_workload_with(false);
        let sc = sched(&qc);
        let obs = [
            PauliString::parse("ZZIII").unwrap(),
            PauliString::parse("IIZZI").unwrap(),
            PauliString::parse("XIIII").unwrap(),
        ];
        let none = InsertionSet::empty();
        let a = compiled(&sim, Engine::Stabilizer, &sc, 17)
            .expect_paulis(&obs, 130, &none, None)
            .unwrap();
        let b = compiled(&sim, Engine::FrameBatch, &sc, 17)
            .expect_paulis(&obs, 130, &none, None)
            .unwrap();
        assert_eq!(a, b, "expectation sums are integer-exact");
    }

    #[test]
    fn wide_device_tail_lanes() {
        // 127 qubits (two serial frame words) with a non-multiple-of-64
        // shot count: exercises both word-boundary paths at once.
        let n = 127;
        let dev = uniform_device(Topology::line(n), 40.0);
        let sim = Simulator::with_config(dev, NoiseConfig::default());
        let mut qc = Circuit::new(n, n);
        for q in 0..n {
            qc.h(q);
        }
        for q in (0..n - 1).step_by(2) {
            qc.ecr(q, q + 1);
        }
        for q in 0..n {
            qc.measure(q, q);
        }
        let sc = sched(&qc);
        let none = InsertionSet::empty();
        let a = compiled(&sim, Engine::Stabilizer, &sc, 31)
            .run_counts(70, &none, None)
            .unwrap();
        let b = compiled(&sim, Engine::FrameBatch, &sc, 31)
            .run_counts(70, &none, None)
            .unwrap();
        assert_eq!(a, b);
    }
}
