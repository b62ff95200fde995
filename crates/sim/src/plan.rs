//! The shared execution plan: a scheduled circuit lowered to a single
//! time-ordered op stream that interleaves noise-timeline segments
//! with projections and unitary applications.
//!
//! Both engines consume this plan — the dense statevector trajectory
//! executor and the stabilizer/Pauli-frame sampler — so the
//! context-aware noise timeline (echo structure, flush ordering,
//! crosstalk edge bookkeeping) is defined in exactly one place.

use crate::error::SimError;
use crate::noise::NoiseConfig;
use crate::timeline::{build_segments, SegmentOp};
use ca_circuit::{Gate, ScheduledCircuit};
use ca_device::Device;
use std::sync::Arc;

/// One step of the lowered op stream.
#[derive(Clone, Copy, Debug)]
pub enum PlanOp {
    /// Accrue one timeline segment into the pending phase banks.
    Segment(usize),
    /// Collapse a measured/reset qubit (window start).
    Project {
        /// Index into `sc.items`.
        item: usize,
    },
    /// Apply the unitary of a scheduled item (window end).
    Apply {
        /// Index into `sc.items`.
        item: usize,
    },
}

/// Precomputed execution plan shared by all shots of a run.
///
/// The plan *owns* its scheduled circuit (behind an [`Arc`], so
/// compiled artifacts can share it): plans are plain `Send + Sync`
/// values that can be cached, stored across calls, and shipped
/// between threads — the foundation of the session/plan-cache layer
/// in [`crate::session`].
pub struct ExecutionPlan {
    /// The scheduled circuit being executed.
    pub sc: Arc<ScheduledCircuit>,
    /// Noise-timeline segments (see [`build_segments`]).
    pub segments: Vec<SegmentOp>,
    /// Time-ordered op stream. At equal times segments flush first,
    /// then unitaries ending there, then projections starting there.
    pub ops: Vec<PlanOp>,
    /// Crosstalk-edge index → `(a, b)` qubit pair.
    pub edge_pairs: Vec<(usize, usize)>,
    /// Per-qubit list of incident crosstalk-edge indices.
    pub incident: Vec<Vec<usize>>,
    /// Per-segment ZZ contributions resolved to edge indices:
    /// `(edge, θ)` — precomputed so the per-shot loop never searches
    /// the edge list (O(edges²·segments·shots) at 127 qubits
    /// otherwise).
    pub seg_edges: Vec<Vec<(usize, f64)>>,
    /// Pair → index into [`Self::edge_pairs`] (keys normalized to
    /// `(min, max)`). Includes the *virtual* edges appended for
    /// circuit diagonal rotations on pairs the device does not
    /// couple, so the frame engines can bank any `Rzz` / conditional
    /// `Rz` the circuit carries. Virtual edges never accrue timeline
    /// noise (`seg_edges` is built from the device list alone).
    pub edge_index: std::collections::BTreeMap<(usize, usize), usize>,
    /// For every scheduled item carrying a feed-forward condition:
    /// the qubit whose earlier measurement (in plan/time order) last
    /// wrote the condition's classical bit, or `None` when the bit is
    /// still at its initial 0 when the conditional executes.
    pub cond_source: std::collections::BTreeMap<usize, Option<usize>>,
}

impl ExecutionPlan {
    /// Lowers a scheduled circuit against a device and noise config.
    /// Clones the circuit into shared ownership; callers that already
    /// hold an [`Arc`] should use [`Self::build_arc`].
    pub fn build(
        sc: &ScheduledCircuit,
        device: &Device,
        config: &NoiseConfig,
    ) -> Result<Self, SimError> {
        Self::build_arc(Arc::new(sc.clone()), device, config)
    }

    /// [`Self::build`] over a shared scheduled circuit. Fails with a
    /// structured [`SimError`] when an item carries a non-finite time
    /// (a `Delay(NaN)` survives scheduling); the plan's time ordering
    /// would otherwise be undefined.
    pub fn build_arc(
        sc: Arc<ScheduledCircuit>,
        device: &Device,
        config: &NoiseConfig,
    ) -> Result<Self, SimError> {
        let _s =
            ca_obs::span("sim.compile", "timeline-plan").with_arg("items", sc.items.len() as f64);
        // Arity first: the lowering below indexes fixed operand slots.
        crate::engine::check_gate_arities(&sc)?;
        for (i, si) in sc.items.iter().enumerate() {
            if !si.t0.is_finite() || !si.duration.is_finite() {
                return Err(SimError::NonFiniteTime {
                    item: i,
                    gate: si.instruction.gate.name(),
                });
            }
        }
        let segments = build_segments(&sc, device, config);
        let mut keyed: Vec<(f64, u8, PlanOp)> = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            keyed.push((seg.t1, 0, PlanOp::Segment(i)));
        }
        for (i, si) in sc.items.iter().enumerate() {
            match si.instruction.gate {
                Gate::Barrier | Gate::Delay(_) => {}
                // Rank order at equal times: segments flush first, then
                // unitaries ending here, then projections starting here.
                Gate::Measure | Gate::Reset => keyed.push((si.t0, 2, PlanOp::Project { item: i })),
                _ => keyed.push((si.t1(), 1, PlanOp::Apply { item: i })),
            }
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut edge_pairs: Vec<(usize, usize)> =
            device.crosstalk.edges.iter().map(|e| (e.a, e.b)).collect();
        let mut incident = vec![Vec::new(); sc.num_qubits];
        let mut edge_index = std::collections::BTreeMap::new();
        for (idx, &(a, b)) in edge_pairs.iter().enumerate() {
            edge_index.insert((a.min(b), a.max(b)), idx);
            if a < sc.num_qubits && b < sc.num_qubits {
                incident[a].push(idx);
                incident[b].push(idx);
            }
        }
        let seg_edges: Vec<Vec<(usize, f64)>> = segments
            .iter()
            .map(|seg| {
                seg.rzz_static
                    .iter()
                    .filter(|(_, _, th)| th.abs() > 1e-15)
                    .filter_map(|&(a, b, th)| {
                        edge_index.get(&(a.min(b), a.max(b))).map(|&e| (e, th))
                    })
                    .collect()
            })
            .collect();
        let ops: Vec<PlanOp> = keyed.into_iter().map(|(_, _, op)| op).collect();

        // Resolve feed-forward dataflow in plan (time) order: which
        // measurement wrote each conditional's classical bit, and
        // which qubit pairs need an edge bank that the device's
        // crosstalk list does not already provide (circuit `Rzz` on
        // uncoupled pairs; conditional diagonal rotations, which the
        // frame engines rewrite into a local-plus-edge bank term
        // against the measured source qubit).
        let mut cond_source: std::collections::BTreeMap<usize, Option<usize>> =
            std::collections::BTreeMap::new();
        let mut writer: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        let mut ensure_edge = |a: usize,
                               b: usize,
                               edge_pairs: &mut Vec<(usize, usize)>,
                               incident: &mut Vec<Vec<usize>>| {
            let key = (a.min(b), a.max(b));
            if let std::collections::btree_map::Entry::Vacant(slot) = edge_index.entry(key) {
                let idx = edge_pairs.len();
                edge_pairs.push(key);
                slot.insert(idx);
                if a < sc.num_qubits && b < sc.num_qubits {
                    incident[a].push(idx);
                    incident[b].push(idx);
                }
            }
        };
        for op in &ops {
            match *op {
                PlanOp::Segment(_) => {}
                PlanOp::Project { item } => {
                    let si = &sc.items[item];
                    if si.instruction.gate == Gate::Measure {
                        if let Some(c) = si.instruction.clbit {
                            writer.insert(c, si.instruction.qubits[0]);
                        }
                    }
                }
                PlanOp::Apply { item } => {
                    let instr = &sc.items[item].instruction;
                    let gate = instr.gate;
                    if let Some(cond) = instr.condition {
                        let source = writer.get(&cond.clbit).copied();
                        cond_source.insert(item, source);
                        if gate.is_diagonal() && !gate.is_pauli() && gate.num_qubits() == 1 {
                            if let Some(aux) = source {
                                if aux != instr.qubits[0] {
                                    ensure_edge(
                                        aux,
                                        instr.qubits[0],
                                        &mut edge_pairs,
                                        &mut incident,
                                    );
                                }
                            }
                        }
                    } else if matches!(gate, Gate::Rzz(_)) && !gate.is_clifford() {
                        ensure_edge(
                            instr.qubits[0],
                            instr.qubits[1],
                            &mut edge_pairs,
                            &mut incident,
                        );
                    }
                }
            }
        }

        Ok(Self {
            sc,
            segments,
            ops,
            edge_pairs,
            incident,
            seg_edges,
            edge_index,
            cond_source,
        })
    }
}

/// Fixed shot-block size: chunk boundaries (and therefore the dense
/// engine's per-chunk RNG streams) are independent of the host's core
/// count, so a seed reproduces the same counts on any machine.
const CHUNK_SHOTS: usize = 128;

/// SplitMix64 finalizer: the avalanche permutation behind the
/// counter-based noise stream.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SHOT_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const SITE_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Per-shot stream key: `mix64(seed ^ shot·φ)`. The inner
/// half of [`shot_site_seed`], exposed so the batch engine can hoist
/// it per lane and pay only one multiply + finalizer per site.
#[inline]
pub fn shot_key(seed: u64, shot: u64) -> u64 {
    mix64(seed ^ shot.wrapping_mul(SHOT_MUL))
}

/// Counter-based noise draw: a full-avalanche 64-bit word that is a pure
/// function of `(seed, shot, site)`. Two rounds of the SplitMix64
/// finalizer, keyed by shot on the inner round and by site on the
/// outer, so draws at different sites (or shots) are decorrelated and
/// *order-independent* — the property the bit-sliced batch sampler is
/// built on.
#[inline]
pub fn shot_site_seed(seed: u64, shot: u64, site: u64) -> u64 {
    mix64(shot_key(seed, shot) ^ site.wrapping_mul(SITE_MUL))
}

/// [`shot_site_seed`] completed from a hoisted [`shot_key`].
#[inline]
pub fn site_draw(shot_key: u64, site: u64) -> u64 {
    mix64(shot_key ^ site.wrapping_mul(SITE_MUL))
}

/// Bit-plane base for a (64-shot word, site) pair: plane
/// `k` of the word's 64 lanes is [`plane`]` (base, k)`. Lane `j` of
/// plane `k` is bit `k` (MSB-first) of lane `j`'s conceptual uniform
/// draw at this site; the serial engine extracts single lane bits from
/// the *same* planes, which is what keeps the engines bit-identical.
#[inline]
pub fn plane_base(seed: u64, word: u64, site: u64) -> u64 {
    mix64(mix64(seed ^ word.wrapping_mul(SHOT_MUL)) ^ site.wrapping_mul(SITE_MUL))
}

/// Plane `k` (MSB-first bit `k` of all 64 lanes) of a site's uniform
/// draw word. Planes are pure functions of `k`: consuming a different
/// number of planes on different code paths (the ladder's early exit)
/// cannot shift any other draw.
#[inline]
pub fn plane(base: u64, k: u32) -> u64 {
    mix64(base ^ (k as u64 + 1).wrapping_mul(SHOT_MUL))
}

/// A fair coin per lane: plane 0 used as the mask directly.
#[inline]
pub fn fair_plane(base: u64) -> u64 {
    plane(base, 0)
}

/// Bernoulli threshold: `u < bern_threshold(p)` over a uniform
/// `u: u64` fires with probability `p` (up to 2⁻⁶⁴ quantization;
/// `p ≥ 1` saturates to firing always except on `u == u64::MAX`).
#[inline]
pub fn bern_threshold(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else if p > 0.0 {
        (p * 18_446_744_073_709_551_616.0) as u64
    } else {
        0
    }
}

/// The phase-flip Bernoulli threshold of a banked rotation angle:
/// `sin²(θ/2)` pushed through [`bern_threshold`], with the same
/// `|θ| > 1e-15` dead-zone both engines use. The single source of
/// truth that keeps the serial runtime draw and the batch
/// compile-time threshold tables bit-identical.
#[inline]
pub fn bern_theta(theta: f64) -> u64 {
    if theta.abs() > 1e-15 {
        bern_threshold((theta / 2.0).sin().powi(2))
    } else {
        0
    }
}

/// The three amplitude-damping twirl thresholds `(γ/4, γ/2, 3γ/4)` as
/// Bernoulli thresholds over one shared uniform. Shared by the serial
/// draw and the batch compile step.
#[inline]
pub fn damping_thresholds(gamma: f64) -> [u64; 3] {
    [
        bern_threshold(gamma / 4.0),
        bern_threshold(gamma / 2.0),
        bern_threshold(0.75 * gamma),
    ]
}

/// Lanes (bitmask) whose uniform draw at this site is `< t`, computed
/// from MSB-first bit-planes with early exit: once every remaining
/// threshold bit is 0, undecided lanes can no longer be below `t`.
/// Expected planes consumed ≈ 8 for a generic threshold, 1 for
/// dyadic `p = 1/2`.
#[inline]
pub fn lt_mask(base: u64, t: u64) -> u64 {
    let mut result = 0u64;
    let mut undecided = u64::MAX;
    for k in 0..64 {
        if undecided == 0 || t << k == 0 {
            break;
        }
        let p = plane(base, k);
        if t >> (63 - k) & 1 == 1 {
            result |= undecided & !p;
            undecided &= p;
        } else {
            undecided &= !p;
        }
    }
    result
}

/// [`lt_mask`] for several thresholds over one shared uniform,
/// hashing each bit-plane at most once (the amplitude-damping twirl
/// compares its three thresholds against a single draw). Entry `i`
/// equals `lt_mask(base, ts[i])` bit for bit: each ladder freezes
/// exactly where its standalone run would have exited, and planes are
/// pure functions of `k`, so sharing them cannot perturb any ladder.
#[inline]
pub fn lt_masks<const N: usize>(base: u64, ts: [u64; N]) -> [u64; N] {
    let mut result = [0u64; N];
    let mut undecided = [u64::MAX; N];
    // Ladders still running, as an index bitmask. An index leaves for
    // good once its lanes are all decided or its remaining threshold
    // bits are zero — both conditions are monotone in `k`, so dropping
    // it permanently matches the per-`k` skip bit for bit.
    let mut live: u32 = (1 << N) - 1;
    let mut k = 0u32;
    while live != 0 && k < 64 {
        let p = plane(base, k);
        let mut rem = live;
        while rem != 0 {
            let i = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            if ts[i] << k == 0 {
                live &= !(1 << i);
                continue;
            }
            if ts[i] >> (63 - k) & 1 == 1 {
                result[i] |= undecided[i] & !p;
                undecided[i] &= p;
            } else {
                undecided[i] &= !p;
            }
            if undecided[i] == 0 {
                live &= !(1 << i);
            }
        }
        k += 1;
    }
    result
}

/// Single-lane [`lt_mask`]: the serial engine's view of the same
/// bit-plane comparison. `lt_lane(base, j, t)` equals bit `j` of
/// `lt_mask(base, t)` for every lane, threshold, and base.
#[inline]
pub fn lt_lane(base: u64, lane: u32, t: u64) -> bool {
    for k in 0..64 {
        if t << k == 0 {
            return false;
        }
        let ubit = plane(base, k) >> lane & 1;
        let tbit = t >> (63 - k) & 1;
        if ubit != tbit {
            return tbit == 1;
        }
    }
    false
}

/// Unbiased-enough index pick in `0..n` via the widening-multiply
/// trick (bias ≤ n·2⁻⁶⁴). Used for error-Pauli selectors.
#[inline]
pub fn pick(h: u64, n: u64) -> u64 {
    ((h as u128 * n as u128) >> 64) as u64
}

/// Trials in the lattice Gaussian: `popcount` of the low
/// 32 hash bits, recentred and rescaled to zero mean, unit variance.
/// A Binomial(32, ½) lattice (step σ/√8, range ±4√2·σ) — within the
/// quasistatic-detuning physics bands while costing one popcount per
/// draw, and free of the Box–Muller spare-half stream coupling.
pub const LATTICE_STEPS: usize = 33;
const LATTICE_SCALE: f64 = 0.353_553_390_593_273_8; // 1/√8

/// The lattice-Gaussian value of popcount index `idx ∈ 0..=32`.
#[inline]
pub fn lattice_value(idx: usize) -> f64 {
    (idx as i32 - 16) as f64 * LATTICE_SCALE
}

/// The lattice-Gaussian popcount index of a hash word.
#[inline]
pub fn lattice_idx(h: u64) -> usize {
    (h & 0xFFFF_FFFF).count_ones() as usize
}

/// Structural site ids of the counter-based stream: every noise draw is named by
/// `(class, plan-op index, unit)` where `unit` is a qubit or
/// crosstalk-edge index. Identity is *structural*, not positional —
/// both engines compute the same site id for the same physical draw
/// no matter how many other draws each path happens to evaluate.
pub mod site {
    /// Per-qubit shot-noise hash (charge-parity sign in bit 63,
    /// quasistatic lattice index in the low 32 bits).
    pub const NOISE: u64 = 1;
    /// Initial Z-frame randomization of a qubit.
    pub const INIT_Z: u64 = 2;
    /// Banked single-qubit phase flush (per-shot threshold).
    pub const FLUSH_Z: u64 = 3;
    /// Banked crosstalk-edge flush (compile-constant threshold).
    pub const FLUSH_ZZ: u64 = 4;
    /// Amplitude-damping twirl (three thresholds, one uniform).
    pub const DECO_DAMP: u64 = 5;
    /// Pure-dephasing flip.
    pub const DECO_DEPH: u64 = 6;
    /// Gate-error hit decision.
    pub const GATE_HIT: u64 = 7;
    /// Gate-error Pauli selector (consumed only on hit lanes).
    pub const GATE_SEL: u64 = 8;
    /// Readout flip of a measurement.
    pub const READOUT: u64 = 9;
    /// Post-collapse Z-frame randomization of a measurement.
    pub const MEAS_Z: u64 = 10;
    /// Post-reset Z-frame randomization.
    pub const RESET_Z: u64 = 11;

    /// Packs a site id: class in the low byte, unit (qubit or edge
    /// index, < 2²⁴) above it, plan-op index in the high 32 bits.
    #[inline]
    pub fn id(class: u64, op: usize, unit: usize) -> u64 {
        class | ((unit as u64) << 8) | ((op as u64) << 32)
    }
}

/// Resolves the worker-thread count for a fan-out over `jobs` work
/// units: an explicit request wins, then the `CA_SIM_WORKERS`
/// environment variable (used by CI to pin thread counts in
/// determinism checks), then the host's available parallelism. An
/// invalid `CA_SIM_WORKERS` is not silently ignored:
/// `ca_obs::var_parsed` warns once and counts it before the host
/// default applies.
pub fn worker_count(requested: Option<usize>, jobs: usize) -> usize {
    let base = requested
        .or_else(|| ca_obs::var_parsed::<usize>("CA_SIM_WORKERS"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        });
    base.clamp(1, 16).min(jobs.max(1))
}

/// Runs `shots` across worker threads, handing the closure each
/// global shot index. The serial Pauli-frame sampler derives every
/// draw from `(seed, shot, site)` (see [`shot_site_seed`]), so shot
/// `i` sees the same noise no matter how shots are distributed over
/// threads. Returns per-worker accumulators for the caller to merge.
///
/// `cancel` is polled at every chunk boundary: a cancelled or
/// deadline-expired token stops all workers within one chunk of work
/// and the whole call returns the structured error instead of a
/// partial accumulation.
pub fn map_shots_indexed<Acc: Send>(
    shots: usize,
    workers: Option<usize>,
    cancel: Option<&crate::cancel::CancelToken>,
    new_acc: impl Fn() -> Acc + Sync,
    per_shot: impl Fn(usize, &mut Acc) + Sync,
) -> Result<Vec<Acc>, SimError> {
    let chunks = chunk_ranges(shots);
    let workers = worker_count(workers, chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let chunks = &chunks;
                let new_acc = &new_acc;
                let per_shot = &per_shot;
                scope.spawn(move || -> Result<Acc, SimError> {
                    let mut acc = new_acc();
                    for &(start, len) in chunks.iter().skip(w).step_by(workers) {
                        crate::cancel::check_opt(cancel)?;
                        for i in start..start + len {
                            per_shot(i, &mut acc);
                        }
                    }
                    Ok(acc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shot thread")) // ca-lint: allow(panic) -- fail-stop on worker panic; salvaging a partial batch would corrupt results
            .collect()
    })
}

/// Runs `jobs` independent batch jobs across worker threads and
/// returns their outputs **in job order**, regardless of thread count
/// or scheduling. Integer count merges are order-independent anyway;
/// returning in job order additionally makes floating-point
/// accumulations (expectation sums) bit-identical across worker
/// counts, which the batch engine's determinism guarantee relies on.
pub fn map_batches<Out: Send>(
    jobs: usize,
    workers: Option<usize>,
    run: impl Fn(usize) -> Out + Sync,
) -> Vec<Out> {
    let workers = worker_count(workers, jobs);
    let slots: Vec<std::sync::Mutex<Option<Out>>> =
        (0..jobs).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let slots = &slots;
            let run = &run;
            scope.spawn(move || {
                for j in (w..jobs).step_by(workers) {
                    let out = run(j);
                    *slots[j].lock().expect("batch slot") = Some(out); // ca-lint: allow(panic) -- fail-stop on poisoned slot; determinism-critical state is unreliable after a panic
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("batch slot").expect("batch output")) // ca-lint: allow(panic) -- fail-stop on poisoned slot; determinism-critical state is unreliable after a panic
        .collect()
}

/// Splits `shots` into fixed-size ranges (machine-independent).
pub fn chunk_ranges(shots: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < shots {
        let len = CHUNK_SHOTS.min(shots - start);
        out.push((start, len));
        start += len;
    }
    out
}

/// The per-chunk RNG seed: decorrelates chunks deterministically.
pub fn chunk_seed(seed: u64, start: usize) -> u64 {
    seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(start as u64 + 1))
}

/// Runs `shots` across scoped worker threads. Chunk boundaries and
/// per-chunk RNG streams are fixed by the seed alone (workers pick up
/// chunks in a strided pattern), so classical counts are bit-for-bit
/// reproducible across machines; floating-point accumulations are
/// reproducible up to summation order. Returns the per-worker
/// accumulators for the caller to merge. The single fan-out used by
/// both engines' `run_counts` and `expect_paulis`.
///
/// `cancel` is polled at every chunk boundary, as in
/// [`map_shots_indexed`].
pub fn map_shots<Acc: Send>(
    shots: usize,
    seed: u64,
    cancel: Option<&crate::cancel::CancelToken>,
    new_acc: impl Fn() -> Acc + Sync,
    per_shot: impl Fn(&mut rand::rngs::StdRng, &mut Acc) + Sync,
) -> Result<Vec<Acc>, SimError> {
    use rand::SeedableRng;
    let chunks = chunk_ranges(shots);
    let workers = worker_count(None, chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let chunks = &chunks;
                let new_acc = &new_acc;
                let per_shot = &per_shot;
                scope.spawn(move || -> Result<Acc, SimError> {
                    let mut acc = new_acc();
                    for &(start, len) in chunks.iter().skip(w).step_by(workers) {
                        crate::cancel::check_opt(cancel)?;
                        let mut rng = rand::rngs::StdRng::seed_from_u64(chunk_seed(seed, start));
                        for _ in 0..len {
                            per_shot(&mut rng, &mut acc);
                        }
                    }
                    Ok(acc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shot thread")) // ca-lint: allow(panic) -- fail-stop on worker panic; salvaging a partial batch would corrupt results
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_circuit::{schedule_asap, Circuit, GateDurations};
    use ca_device::{uniform_device, Topology};

    #[test]
    fn plan_orders_segments_before_applies() {
        let dev = uniform_device(Topology::line(2), 50.0);
        let mut qc = Circuit::new(2, 1);
        qc.h(0).ecr(0, 1).measure(1, 0);
        let sc = schedule_asap(&qc, GateDurations::default());
        let plan = ExecutionPlan::build(&sc, &dev, &NoiseConfig::coherent_only()).unwrap();
        // Every Apply/Project op references a valid item; segments cover
        // the full duration.
        for op in &plan.ops {
            match *op {
                PlanOp::Segment(i) => assert!(i < plan.segments.len()),
                PlanOp::Apply { item } | PlanOp::Project { item } => {
                    assert!(item < sc.items.len())
                }
            }
        }
        let total: f64 = plan.segments.iter().map(|s| s.dt()).sum();
        assert!((total - sc.duration).abs() < 1e-9);
        assert_eq!(plan.edge_pairs, vec![(0, 1)]);
        assert_eq!(plan.incident[0], vec![0]);
    }

    #[test]
    fn chunks_cover_all_shots() {
        for shots in [1usize, 7, 100, 1001] {
            let chunks = chunk_ranges(shots);
            let covered: usize = chunks.iter().map(|&(_, len)| len).sum();
            assert_eq!(covered, shots);
            assert_eq!(chunks[0].0, 0);
        }
    }
}

/// Shot-loop parameters shared by the frame engines' counts,
/// expectation and flips entry points: shot count, run seed, worker
/// spread, and an optional cooperative cancel token polled at
/// chunk/strip boundaries.
#[derive(Clone, Copy)]
pub(crate) struct ShotParams<'a> {
    pub shots: usize,
    pub seed: u64,
    pub workers: Option<usize>,
    pub cancel: Option<&'a crate::cancel::CancelToken>,
}
