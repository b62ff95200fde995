//! Compiled artifacts and the session/job layer: compile a plan once,
//! run millions of shots many times.
//!
//! Context-aware compilation is deterministic given the schedule,
//! device calibration, noise configuration, and seed — so the
//! expensive planning work (timeline segmentation, reference tableau
//! run, batch-program emission) is a pure function of a structural
//! key. This module makes the compiled result a first-class value:
//!
//! * [`CompiledCircuit`] — an owned, `Send + Sync` bundle of the
//!   scheduled circuit, the shared noise-timeline [`ExecutionPlan`],
//!   the resolved engine, and the precompiled frame programs, with a
//!   structural [`CacheKey`]. Running it never replans; results are
//!   bit-identical to the one-shot [`Simulator`] entry points at the
//!   same seed, for any shot and worker count.
//! * [`Session`] — a simulator plus a two-level LRU plan cache and a
//!   job API. Level one caches finished [`CompiledCircuit`]s per
//!   `(circuit, seed)`; level two caches the seed-*independent*
//!   [`ExecutionPlan`] per circuit, so re-seeded submissions of one
//!   circuit (twirl averaging, paired PEC estimates) skip timeline
//!   segmentation even on level-one misses. [`Session::submit`] fans
//!   independent jobs out across worker threads at *job* granularity
//!   (twirl ensembles run concurrently) while shot-level chunking
//!   stays inside each job. Results are deterministic regardless of
//!   cache hits, eviction history, or worker count. The env toggle
//!   `CA_SIM_PLAN_CACHE=0` disables caching (CI runs the equivalence
//!   suites both ways).
//! * [`CompiledCircuit::redress`] / [`Job::with_dressing`] — the
//!   twirl-ensemble fast path: twirl instances of one schedule
//!   differ only in which merged Pauli occupies each twirl slot
//!   (merged gates are zero-width, error-free, and Stark-invisible),
//!   so every instance provably shares the base's timeline. An
//!   instance is derived by substituting those Paulis and rebuilding
//!   only the frame program and reference run over the *shared*
//!   `Arc<ExecutionPlan>` — the pass pipeline and segmentation are
//!   never paid again — and is bit-identical to compiling the
//!   dressed circuit from scratch.

use crate::cancel::CancelToken;
use crate::engine::Engine;
use crate::error::SimError;
use crate::executor::Simulator;
use crate::frame_batch::BatchPlan;
use crate::insert::{InsertionSet, PauliInsertion};
use crate::pauli_frame::FramePlan;
use crate::plan::{map_batches, ExecutionPlan, ShotParams};
use crate::result::{PauliFlips, RunResult};
use ca_circuit::pauli::Pauli;
use ca_circuit::{Fnv, Gate, PauliString, ScheduledCircuit};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Structural identity of a compiled artifact: circuit structure ⊕
/// device fingerprint ⊕ noise switches ⊕ engine policy ⊕ seed. Equal
/// keys mean "the same plan up to 64-bit hash collisions"; the cache
/// additionally verifies circuit equality on every hit, so a
/// collision costs a recompile, never a wrong plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

/// The engine a compiled circuit resolved to, with its precompiled
/// program.
enum CompiledBackend {
    /// Dense statevector: the timeline plan is the whole program.
    Dense,
    /// Serial stabilizer/Pauli-frame program.
    Serial(FramePlan),
    /// Bit-parallel batched frame program (contains the serial
    /// [`FramePlan`] it was compiled from).
    Batch(BatchPlan),
}

/// An owned, hashable, reusable compiled execution artifact.
///
/// `Send + Sync`: safe to cache in a [`Session`], share behind an
/// [`Arc`], and run from many threads at once. All run methods take
/// `&self` and are bit-identical to the corresponding one-shot
/// [`Simulator`] calls with the same circuit and seed, for any shot
/// count and worker count.
pub struct CompiledCircuit {
    sim: Simulator,
    sc: Arc<ScheduledCircuit>,
    plan: Arc<ExecutionPlan>,
    backend: CompiledBackend,
    key: CacheKey,
    seed: u64,
}

impl std::fmt::Debug for CompiledCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCircuit")
            .field("engine", &self.engine_name())
            .field("qubits", &self.sc.num_qubits)
            .field("items", &self.sc.items.len())
            .field("seed", &self.seed)
            .field("key", &self.key)
            .finish()
    }
}

fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    fn _check() {
        _assert_send_sync::<CompiledCircuit>();
        _assert_send_sync::<Session>();
    }
};

impl CompiledCircuit {
    /// The structural cache key this artifact was compiled under.
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// The seed fixed at compile time: it seeds the reference tableau
    /// run and every shot's noise stream, so repeated runs (with
    /// different insertion sets, shot counts, or worker counts) stay
    /// shot-wise paired.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled circuit this artifact executes.
    pub fn circuit(&self) -> &ScheduledCircuit {
        &self.sc
    }

    /// Name of the engine the artifact resolved to.
    pub fn engine_name(&self) -> &'static str {
        match self.backend {
            CompiledBackend::Dense => Engine::Statevector,
            CompiledBackend::Serial(_) => Engine::Stabilizer,
            CompiledBackend::Batch(_) => Engine::FrameBatch,
        }
        .name()
    }

    /// The shot-loop parameters of one run of this artifact.
    fn params<'a>(
        &self,
        shots: usize,
        workers: Option<usize>,
        cancel: Option<&'a CancelToken>,
    ) -> ShotParams<'a> {
        ShotParams {
            shots,
            seed: self.seed,
            workers,
            cancel,
        }
    }

    /// The dense engine's refusal of per-shot Pauli insertions.
    fn dense_insertions(ins: &InsertionSet) -> Result<(), SimError> {
        if ins.is_empty() {
            Ok(())
        } else {
            Err(SimError::UnsupportedOnEngine {
                engine: "statevector",
                operation: "per-shot Pauli insertions",
            })
        }
    }

    /// Validates a raw insertion list against this artifact's circuit.
    pub fn insertions(&self, list: &[PauliInsertion]) -> Result<InsertionSet, SimError> {
        InsertionSet::build(&self.sc, list)
    }

    /// Shot-sampled classical counts without recompiling.
    pub fn run_counts(
        &self,
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
    ) -> Result<RunResult, SimError> {
        self.run_counts_cancel(shots, ins, workers, None)
    }

    /// [`Self::run_counts`] with a cooperative [`CancelToken`],
    /// polled at shot-chunk / batch-strip boundaries: a cancelled or
    /// deadline-expired token aborts with [`SimError::Cancelled`] /
    /// [`SimError::DeadlineExceeded`] and no partial result.
    pub fn run_counts_cancel(
        &self,
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<RunResult, SimError> {
        let params = self.params(shots, workers, cancel);
        match &self.backend {
            CompiledBackend::Dense => {
                Self::dense_insertions(ins)?;
                self.sim.dense_counts(&self.plan, shots, self.seed, cancel)
            }
            CompiledBackend::Serial(frame) => frame.counts(&self.sim, ins, params),
            CompiledBackend::Batch(batch) => batch.counts(&self.sim, ins, params),
        }
    }

    /// Frame- (or trajectory-) averaged Pauli expectations without
    /// recompiling.
    pub fn expect_paulis(
        &self,
        paulis: &[PauliString],
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
    ) -> Result<Vec<f64>, SimError> {
        self.expect_paulis_cancel(paulis, shots, ins, workers, None)
    }

    /// [`Self::expect_paulis`] with a cooperative [`CancelToken`]
    /// (see [`Self::run_counts_cancel`]).
    pub fn expect_paulis_cancel(
        &self,
        paulis: &[PauliString],
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<f64>, SimError> {
        let params = self.params(shots, workers, cancel);
        match &self.backend {
            CompiledBackend::Dense => {
                Self::dense_insertions(ins)?;
                self.sim
                    .dense_expectations(&self.plan, paulis, shots, self.seed, cancel)
            }
            CompiledBackend::Serial(frame) => frame.expectations(&self.sim, paulis, ins, params),
            CompiledBackend::Batch(batch) => batch.expectations(&self.sim, paulis, ins, params),
        }
    }

    /// Per-shot ±1 outcomes (sign-resolved expectations — the PEC
    /// estimator input) without recompiling. Frame engines only.
    pub fn expect_flips(
        &self,
        paulis: &[PauliString],
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
    ) -> Result<PauliFlips, SimError> {
        self.expect_flips_cancel(paulis, shots, ins, workers, None)
    }

    /// [`Self::expect_flips`] with a cooperative [`CancelToken`]
    /// (see [`Self::run_counts_cancel`]).
    pub fn expect_flips_cancel(
        &self,
        paulis: &[PauliString],
        shots: usize,
        ins: &InsertionSet,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<PauliFlips, SimError> {
        let params = self.params(shots, workers, cancel);
        match &self.backend {
            CompiledBackend::Dense => Err(SimError::UnsupportedOnEngine {
                engine: "statevector",
                operation: "per-shot sign-resolved outcomes",
            }),
            CompiledBackend::Serial(frame) => frame.flips(&self.sim, paulis, ins, params),
            CompiledBackend::Batch(batch) => batch.flips(&self.sim, paulis, ins, params),
        }
    }

    /// Derives a sibling artifact for another twirl instance of the
    /// same schedule: substitutes `dressing`'s Paulis into the merged
    /// twirl slots and rebuilds the frame program and reference run
    /// with `seed`, **sharing** the timeline [`ExecutionPlan`] — the
    /// pass pipeline and segment construction are not repeated.
    /// Merged slots are zero-width and error-free, so the timeline is
    /// provably identical across instances; results are bit-identical
    /// to compiling the dressed circuit from scratch.
    ///
    /// Fails on dense artifacts (the dense engine replays exact
    /// unitaries from the plan's own circuit — a dressed instance
    /// must compile independently) and on any substitution that is
    /// not a Pauli into a merged single-qubit Pauli slot.
    pub fn redress(
        &self,
        dressing: &[(usize, Pauli)],
        seed: u64,
    ) -> Result<CompiledCircuit, SimError> {
        if matches!(self.backend, CompiledBackend::Dense) {
            return Err(SimError::InvalidDressing {
                item: dressing.first().map_or(0, |d| d.0),
                reason: "dense artifacts cannot be re-dressed; compile the instance",
            });
        }
        let sc = Arc::new(apply_dressing(&self.sc, dressing)?);
        let engine = self.sim.resolve_engine(&sc)?;
        let key = cache_key(sim_fingerprint(&self.sim), &sc, seed);
        self.sim
            .compile_with(engine, sc, self.plan.clone(), seed, key)
    }
}

/// Applies a twirl dressing to a copy of `base`, validating that
/// every target is a merged single-qubit Pauli slot.
fn apply_dressing(
    base: &ScheduledCircuit,
    dressing: &[(usize, Pauli)],
) -> Result<ScheduledCircuit, SimError> {
    let mut sc = base.clone();
    for &(item, pauli) in dressing {
        let Some(si) = sc.items.get_mut(item) else {
            return Err(SimError::InvalidDressing {
                item,
                reason: "target item index out of range",
            });
        };
        let instr = &mut si.instruction;
        let is_slot = instr.merged
            && instr.qubits.len() == 1
            && instr.condition.is_none()
            && matches!(instr.gate, Gate::I | Gate::X | Gate::Y | Gate::Z);
        if !is_slot {
            return Err(SimError::InvalidDressing {
                item,
                reason: "target item is not a merged single-qubit Pauli slot",
            });
        }
        instr.gate = pauli.gate();
    }
    Ok(sc)
}

/// Renders a caught panic payload for [`SimError::JobPanicked`]
/// (`panic!` carries `&str` or `String` in practice; anything else
/// is reported generically).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fingerprint of everything except the circuit and seed: device,
/// noise switches, engine policy. Computed once per
/// [`Session`].
fn sim_fingerprint(sim: &Simulator) -> u64 {
    let mut h = Fnv::new();
    h.u64(sim.device.fingerprint());
    let c = &sim.config;
    for (i, b) in [
        c.zz_crosstalk,
        c.stark,
        c.charge_parity,
        c.quasistatic,
        c.decoherence,
        c.gate_error,
        c.readout_error,
    ]
    .into_iter()
    .enumerate()
    {
        h.u64(((i as u64) << 1) | b as u64);
    }
    h.str(sim.engine.name());
    h.finish()
}

/// Combines the session fingerprint, circuit structure, and seed.
fn cache_key(sim_fp: u64, sc: &ScheduledCircuit, seed: u64) -> CacheKey {
    let mut h = Fnv::new();
    h.u64(sim_fp);
    h.u64(sc.structural_hash());
    h.u64(seed);
    CacheKey(h.finish())
}

impl Simulator {
    /// Compiles `sc` into an owned, reusable [`CompiledCircuit`]:
    /// resolves the engine per the simulator's [`Engine`] policy (see
    /// [`crate::engine`]), builds the timeline plan, and
    /// precompiles the engine's program. The uncached single-compile
    /// entry point — sessions add the LRU cache on top.
    pub fn compile(&self, sc: &ScheduledCircuit, seed: u64) -> Result<CompiledCircuit, SimError> {
        let engine = self.resolve_engine(sc)?;
        let key = cache_key(sim_fingerprint(self), sc, seed);
        let sc = Arc::new(sc.clone());
        let plan = Arc::new(ExecutionPlan::build_arc(
            sc.clone(),
            &self.device,
            &self.config,
        )?);
        self.compile_with(engine, sc, plan, seed, key)
    }

    /// Runs `shots` and gathers classical-bit counts: compiles `sc`
    /// and runs the artifact once, with no insertions and the default
    /// worker count. Unsupported circuits yield a [`SimError`], never
    /// a panic.
    pub fn run_counts(
        &self,
        sc: &ScheduledCircuit,
        shots: usize,
        seed: u64,
    ) -> Result<RunResult, SimError> {
        self.compile(sc, seed)?
            .run_counts(shots, &InsertionSet::empty(), None)
    }

    /// Averages the quantum expectation values of the given Pauli
    /// strings over `shots`: compiles `sc` and runs it once, like
    /// [`Self::run_counts`].
    pub fn expect_paulis(
        &self,
        sc: &ScheduledCircuit,
        paulis: &[PauliString],
        shots: usize,
        seed: u64,
    ) -> Result<Vec<f64>, SimError> {
        self.compile(sc, seed)?
            .expect_paulis(paulis, shots, &InsertionSet::empty(), None)
    }

    /// Convenience: a single Pauli expectation.
    pub fn expect_pauli(
        &self,
        sc: &ScheduledCircuit,
        pauli: &PauliString,
        shots: usize,
        seed: u64,
    ) -> Result<f64, SimError> {
        Ok(self.expect_paulis(sc, std::slice::from_ref(pauli), shots, seed)?[0])
    }

    /// Assembles a [`CompiledCircuit`] for an already resolved
    /// `engine` over a prebuilt timeline plan. For frame backends,
    /// `plan.sc` may differ from `sc` at merged single-qubit Pauli
    /// slots (the re-dressed-twirl contract: the timeline is identical
    /// there); the dense backend replays exact unitaries from
    /// `plan.sc`, so it requires `plan.sc == sc` and gets a fresh plan
    /// from the caller otherwise.
    fn compile_with(
        &self,
        engine: Engine,
        sc: Arc<ScheduledCircuit>,
        plan: Arc<ExecutionPlan>,
        seed: u64,
        key: CacheKey,
    ) -> Result<CompiledCircuit, SimError> {
        let _s = ca_obs::span("sim.compile", "artifact");
        ca_obs::counter_add("sim.compiles", 1);
        let backend = match engine {
            Engine::Statevector => {
                debug_assert!(
                    *plan.sc == *sc,
                    "dense backends replay unitaries from the plan's circuit"
                );
                CompiledBackend::Dense
            }
            Engine::Stabilizer => {
                CompiledBackend::Serial(FramePlan::build_with_plan(sc.clone(), plan.clone(), seed)?)
            }
            // `resolve_engine` never yields `Auto`.
            Engine::FrameBatch | Engine::Auto => CompiledBackend::Batch(BatchPlan::from_frame(
                self,
                FramePlan::build_with_plan(sc.clone(), plan.clone(), seed)?,
            )),
        };
        Ok(CompiledCircuit {
            sim: self.clone(),
            sc,
            plan,
            backend,
            key,
            seed,
        })
    }
}

/// One unit of work for [`Session::submit`].
#[derive(Clone, Debug)]
pub struct Job {
    /// The (base) scheduled circuit to execute.
    pub circuit: Arc<ScheduledCircuit>,
    /// Optional twirl dressing: merged-slot Pauli substitutions
    /// applied via the shared-plan fast path
    /// ([`CompiledCircuit::redress`]).
    pub dressing: Option<Vec<(usize, Pauli)>>,
    /// Per-shot Pauli insertions (PEC); empty for plain runs.
    pub insertions: Vec<PauliInsertion>,
    /// What to measure.
    pub request: JobRequest,
    /// Shots.
    pub shots: usize,
    /// Seed for the reference run and every shot's noise stream.
    pub seed: u64,
    /// Cooperative cancellation handle (see [`Job::with_cancel`]).
    /// Cloning the job shares the token: cancelling one clone cancels
    /// all of them.
    pub cancel: Option<CancelToken>,
    /// Relative deadline, armed when the job is submitted (see
    /// [`Job::with_deadline`]) — queue wait counts against it.
    pub deadline: Option<std::time::Duration>,
}

/// What a [`Job`] measures.
#[derive(Clone, Debug)]
pub enum JobRequest {
    /// Classical-bit counts.
    Counts,
    /// Averaged Pauli expectations.
    Expect(Vec<PauliString>),
    /// Per-shot ±1 outcomes (frame engines only).
    Flips(Vec<PauliString>),
}

/// A [`Job`]'s result.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// Classical-bit counts.
    Counts(RunResult),
    /// Averaged Pauli expectations.
    Expect(Vec<f64>),
    /// Per-shot ±1 outcomes.
    Flips(PauliFlips),
}

impl JobOutput {
    /// The expectation vector, when the job requested one.
    pub fn expectations(&self) -> Option<&[f64]> {
        match self {
            JobOutput::Expect(v) => Some(v),
            _ => None,
        }
    }
}

impl Job {
    /// A plain job: no dressing, insertions, cancel token or deadline.
    fn new(circuit: Arc<ScheduledCircuit>, request: JobRequest, shots: usize, seed: u64) -> Self {
        Self {
            circuit,
            dressing: None,
            insertions: Vec::new(),
            request,
            shots,
            seed,
            cancel: None,
            deadline: None,
        }
    }

    /// An expectation job.
    pub fn expect(
        circuit: impl Into<Arc<ScheduledCircuit>>,
        observables: impl Into<Vec<PauliString>>,
        shots: usize,
        seed: u64,
    ) -> Self {
        let request = JobRequest::Expect(observables.into());
        Self::new(circuit.into(), request, shots, seed)
    }

    /// A counts job.
    pub fn counts(circuit: impl Into<Arc<ScheduledCircuit>>, shots: usize, seed: u64) -> Self {
        Self::new(circuit.into(), JobRequest::Counts, shots, seed)
    }

    /// A per-shot ±1 outcomes job.
    pub fn flips(
        circuit: impl Into<Arc<ScheduledCircuit>>,
        observables: impl Into<Vec<PauliString>>,
        shots: usize,
        seed: u64,
    ) -> Self {
        let request = JobRequest::Flips(observables.into());
        Self::new(circuit.into(), request, shots, seed)
    }

    /// Attaches a twirl dressing (shared-schedule ensemble instance).
    pub fn with_dressing(mut self, dressing: Vec<(usize, Pauli)>) -> Self {
        self.dressing = Some(dressing);
        self
    }

    /// Attaches per-shot Pauli insertions.
    pub fn with_insertions(mut self, insertions: Vec<PauliInsertion>) -> Self {
        self.insertions = insertions;
        self
    }

    /// Attaches a relative deadline. The countdown starts when the
    /// job is submitted ([`Session::run`] / [`Session::submit`]), so
    /// time spent queued behind other jobs counts against it; once it
    /// expires the job stops at the next shot-chunk boundary with
    /// [`SimError::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a caller-held [`CancelToken`]: cancelling it (from
    /// any thread) stops the job at the next shot-chunk boundary with
    /// [`SimError::Cancelled`], freeing its worker.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The token execution polls for this job, arming the relative
    /// deadline *now* (submission time). `None` when the job carries
    /// neither a token nor a deadline — the zero-overhead default.
    fn armed_token(&self) -> Option<CancelToken> {
        match (&self.cancel, self.deadline) {
            (Some(token), Some(deadline)) => {
                token.set_deadline_in(deadline);
                Some(token.clone())
            }
            (Some(token), None) => Some(token.clone()),
            (None, Some(deadline)) => {
                let token = CancelToken::new();
                token.set_deadline_in(deadline);
                Some(token)
            }
            (None, None) => None,
        }
    }
}

/// Observability counter names for one [`Lru`] level (static so
/// recording stays allocation-free).
struct LruCounterNames {
    hit: &'static str,
    miss: &'static str,
    eviction: &'static str,
    verify_mismatch: &'static str,
}

/// A small LRU keyed by a 64-bit structural hash. Hits are verified
/// by the caller-supplied predicate, so hash collisions degrade to
/// misses instead of serving wrong values.
struct Lru<T> {
    capacity: usize,
    stamp: u64,
    entries: BTreeMap<u64, (Arc<T>, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
    verify_mismatches: u64,
    obs: LruCounterNames,
}

impl<T> Lru<T> {
    fn new(capacity: usize, obs: LruCounterNames) -> Self {
        Self {
            capacity,
            stamp: 0,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            verify_mismatches: 0,
            obs,
        }
    }

    fn get(&mut self, key: u64, verify: impl FnOnce(&T) -> bool) -> Option<Arc<T>> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.entries.get_mut(&key) {
            Some((v, used)) => {
                if verify(v) {
                    *used = stamp;
                    self.hits += 1;
                    ca_obs::counter_add(self.obs.hit, 1);
                    Some(v.clone())
                } else {
                    // 64-bit key collision: the entry under this key
                    // is a different circuit. Degrades to a miss (the
                    // caller recompiles); never serves a wrong plan.
                    self.verify_mismatches += 1;
                    self.misses += 1;
                    ca_obs::counter_add(self.obs.verify_mismatch, 1);
                    ca_obs::counter_add(self.obs.miss, 1);
                    None
                }
            }
            None => {
                self.misses += 1;
                ca_obs::counter_add(self.obs.miss, 1);
                None
            }
        }
    }

    fn insert(&mut self, key: u64, value: Arc<T>) {
        if self.capacity == 0 {
            return;
        }
        self.stamp += 1;
        self.entries.insert(key, (value, self.stamp));
        while self.entries.len() > self.capacity {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.entries.remove(&oldest);
            self.evictions += 1;
            ca_obs::counter_add(self.obs.eviction, 1);
        }
    }
}

/// Locks one cache level. A poisoned lock is fail-stop: cached plans
/// are unreliable after a panic.
fn lock<T>(cache: &Mutex<Lru<T>>) -> MutexGuard<'_, Lru<T>> {
    cache.lock().expect("session cache") // ca-lint: allow(panic) -- fail-stop on poisoned cache; cached plans are unreliable after a panic
}

/// Cache traffic counters (see [`Session::cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compiled-artifact lookups served from the cache.
    pub hits: u64,
    /// Compiled-artifact lookups that compiled fresh.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Lookups whose 64-bit key matched a different circuit: the hit
    /// was rejected by verification and recompiled (also counted in
    /// `misses`).
    pub verify_mismatches: u64,
    /// Compiled artifacts currently cached.
    pub len: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default plan-cache capacity: large enough to hold a full
/// multi-strategy sweep's twirl ensemble, small enough to bound
/// memory.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// The plan-cache capacity [`Session::new`] resolves from the
/// `CA_SIM_PLAN_CACHE` environment variable: a number sets the
/// capacity, `0`/`off` disables caching, unset means
/// [`DEFAULT_PLAN_CACHE_CAPACITY`]. A set-but-invalid value is *not*
/// silently absorbed: `ca_obs::var_parsed_with` warns once on stderr
/// and bumps the `obs.env.invalid` counter before the default
/// applies.
pub fn plan_cache_capacity_from_env() -> usize {
    ca_obs::var_parsed_with("CA_SIM_PLAN_CACHE", |v| {
        if v.eq_ignore_ascii_case("off") {
            Some(0)
        } else {
            v.parse().ok()
        }
    })
    .unwrap_or(DEFAULT_PLAN_CACHE_CAPACITY)
}

/// A simulator with a plan cache and a job API — the serving layer:
/// compile each distinct `(circuit, seed)` once, answer every
/// subsequent submission from the cache, and fan independent jobs
/// out across worker threads.
///
/// Results are deterministic: bit-identical across cache hits and
/// misses, eviction histories, and worker counts.
pub struct Session {
    sim: Simulator,
    sim_fp: u64,
    /// Level one: finished artifacts per `(circuit, seed)`.
    cache: Mutex<Lru<CompiledCircuit>>,
    /// Level two: seed-independent timeline plans per circuit.
    exec: Mutex<Lru<ExecutionPlan>>,
}

impl Session {
    /// A session over a simulator, with the default cache capacity
    /// (or as overridden/disabled by the `CA_SIM_PLAN_CACHE` env
    /// var: a number sets the capacity, `0`/`off` disables caching).
    pub fn new(sim: Simulator) -> Self {
        Self::with_capacity(sim, plan_cache_capacity_from_env())
    }

    /// A session with an explicit cache capacity (0 disables caching).
    pub fn with_capacity(sim: Simulator, capacity: usize) -> Self {
        let sim_fp = sim_fingerprint(&sim);
        Self {
            sim,
            sim_fp,
            cache: Mutex::new(Lru::new(
                capacity,
                LruCounterNames {
                    hit: "session.cache.hit",
                    miss: "session.cache.miss",
                    eviction: "session.cache.eviction",
                    verify_mismatch: "session.cache.verify_mismatch",
                },
            )),
            exec: Mutex::new(Lru::new(
                capacity,
                LruCounterNames {
                    hit: "session.exec_cache.hit",
                    miss: "session.exec_cache.miss",
                    eviction: "session.exec_cache.eviction",
                    verify_mismatch: "session.exec_cache.verify_mismatch",
                },
            )),
        }
    }

    /// The underlying simulator configuration.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Cache traffic counters and current size (compiled-artifact
    /// level): hits, misses, evictions, and verification rejections
    /// of colliding keys.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = lock(&self.cache);
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            verify_mismatches: cache.verify_mismatches,
            len: cache.entries.len(),
        }
    }

    /// The seed-independent timeline plan for `sc`, through the
    /// level-two cache.
    fn exec_plan(&self, sc: &ScheduledCircuit) -> Result<Arc<ExecutionPlan>, SimError> {
        let mut h = Fnv::new();
        h.u64(self.sim_fp);
        h.u64(sc.structural_hash());
        let key = h.finish();
        if let Some(hit) = lock(&self.exec).get(key, |p| *p.sc == *sc) {
            return Ok(hit);
        }
        let plan = Arc::new(ExecutionPlan::build_arc(
            Arc::new(sc.clone()),
            &self.sim.device,
            &self.sim.config,
        )?);
        lock(&self.exec).insert(key, plan.clone());
        Ok(plan)
    }

    /// The compiled artifact for `(sc, seed)`: served from the LRU
    /// cache when present (verified against the circuit, so hash
    /// collisions can only cost a recompile), compiled and cached
    /// otherwise. Level-one misses still reuse the circuit's cached
    /// timeline plan across seeds.
    pub fn compiled(
        &self,
        sc: &ScheduledCircuit,
        seed: u64,
    ) -> Result<Arc<CompiledCircuit>, SimError> {
        let key = cache_key(self.sim_fp, sc, seed);
        if let Some(hit) = lock(&self.cache).get(key.0, |c| c.seed() == seed && *c.circuit() == *sc)
        {
            return Ok(hit);
        }
        let engine = self.sim.resolve_engine(sc)?;
        let plan = self.exec_plan(sc)?;
        let compiled = Arc::new(
            self.sim
                .compile_with(engine, plan.sc.clone(), plan, seed, key)?,
        );
        lock(&self.cache).insert(key.0, compiled.clone());
        Ok(compiled)
    }

    /// The compiled artifact for a dressed twirl instance: the base
    /// circuit's timeline plan is shared across every instance and
    /// seed; only the frame program and reference run are built per
    /// instance. Falls back to an independent compile when the
    /// dressed circuit resolves to the dense engine (which replays
    /// unitaries from its own plan).
    pub fn compiled_dressed(
        &self,
        base: &ScheduledCircuit,
        dressing: &[(usize, Pauli)],
        seed: u64,
    ) -> Result<Arc<CompiledCircuit>, SimError> {
        let dressed = apply_dressing(base, dressing)?;
        let key = cache_key(self.sim_fp, &dressed, seed);
        if let Some(hit) =
            lock(&self.cache).get(key.0, |c| c.seed() == seed && *c.circuit() == dressed)
        {
            return Ok(hit);
        }
        let engine = self.sim.resolve_engine(&dressed)?;
        let (sc, plan) = if engine == Engine::Statevector {
            // Dense resolution: the plan must be built from the
            // dressed circuit itself (cached seed-independently).
            let plan = self.exec_plan(&dressed)?;
            (plan.sc.clone(), plan)
        } else {
            (Arc::new(dressed), self.exec_plan(base)?)
        };
        let compiled = Arc::new(self.sim.compile_with(engine, sc, plan, seed, key)?);
        lock(&self.cache).insert(key.0, compiled.clone());
        Ok(compiled)
    }

    /// Runs one job (compiling through the cache). The job's relative
    /// deadline, if any, is armed now. Panics anywhere in the job —
    /// including plan compilation — surface as
    /// [`SimError::JobPanicked`], exactly as in [`Self::submit`], so
    /// a hostile circuit cannot unwind through the caller's thread.
    pub fn run(&self, job: &Job) -> Result<JobOutput, SimError> {
        let token = job.armed_token();
        self.run_caught(job, None, token.as_ref())
    }

    fn run_with_workers(
        &self,
        job: &Job,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<JobOutput, SimError> {
        let _job_span = ca_obs::span("session", "job")
            .with_arg("shots", job.shots as f64)
            .with_arg("seed", job.seed as f64);
        ca_obs::counter_add("session.jobs", 1);
        // A job cancelled while queued never compiles at all.
        crate::cancel::check_opt(cancel)?;
        let compiled = match &job.dressing {
            Some(dressing) => self.compiled_dressed(&job.circuit, dressing, job.seed)?,
            None => self.compiled(&job.circuit, job.seed)?,
        };
        let ins = compiled.insertions(&job.insertions)?;
        match &job.request {
            JobRequest::Counts => Ok(JobOutput::Counts(
                compiled.run_counts_cancel(job.shots, &ins, workers, cancel)?,
            )),
            JobRequest::Expect(obs) => Ok(JobOutput::Expect(
                compiled.expect_paulis_cancel(obs, job.shots, &ins, workers, cancel)?,
            )),
            JobRequest::Flips(obs) => Ok(JobOutput::Flips(
                compiled.expect_flips_cancel(obs, job.shots, &ins, workers, cancel)?,
            )),
        }
    }

    /// [`Self::run_with_workers`] with the panic boundary: a job that
    /// panics (an engine invariant violation, a malformed calibration
    /// index) fails *itself* with [`SimError::JobPanicked`] instead of
    /// unwinding through the batch fan-out and poisoning every other
    /// job in the submission.
    fn run_caught(
        &self,
        job: &Job,
        workers: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<JobOutput, SimError> {
        // AssertUnwindSafe: job execution never holds the session's
        // cache locks while running user circuits (lock scopes cover
        // only LRU get/insert, which call no engine code), so a caught
        // panic cannot leave a cache entry half-written.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_with_workers(job, workers, cancel)
        }))
        .unwrap_or_else(|payload| {
            ca_obs::counter_add("session.job_panics", 1);
            Err(SimError::JobPanicked {
                message: panic_message(payload.as_ref()),
            })
        })
    }

    /// Runs a batch of independent jobs, fanned out across worker
    /// threads at job granularity (shot-level chunking stays inside
    /// each job). Results come back in job order and are
    /// bit-identical for every worker count and cache state. A
    /// panicking job fails with [`SimError::JobPanicked`] without
    /// affecting the other jobs; relative deadlines are armed at
    /// submission, so queue wait counts against them.
    pub fn submit(&self, jobs: &[Job]) -> Vec<Result<JobOutput, SimError>> {
        let _batch_span = ca_obs::span("session", "submit").with_arg("jobs", jobs.len() as f64);
        if ca_obs::enabled() {
            ca_obs::gauge_set(
                "session.workers",
                crate::plan::worker_count(None, jobs.len()) as f64,
            );
        }
        let tokens: Vec<Option<CancelToken>> = jobs.iter().map(Job::armed_token).collect();
        // Queue wait = time from submission until a worker picks the
        // job up; the clock is read only when observability is on.
        let submitted = ca_obs::enabled().then(std::time::Instant::now); // ca-lint: allow(wall-clock) -- obs-gated timing attribution; never feeds results
        if jobs.len() <= 1 {
            // A lone job runs inline with the full shot-level fan-out
            // (the batch path below pins inner workers to one thread),
            // through the same span/gauge/histogram instrumentation as
            // every other submission.
            return jobs
                .iter()
                .zip(&tokens)
                .map(|(job, token)| {
                    if let Some(t0) = submitted {
                        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        ca_obs::observe_ns("session", "job.queue_wait", ns);
                    }
                    self.run_caught(job, None, token.as_ref())
                })
                .collect();
        }
        // Jobs occupy the worker threads; pin each job's inner shot
        // fan-out to one thread to avoid oversubscription. (Results
        // are worker-count independent either way.)
        map_batches(jobs.len(), None, |i| {
            if let Some(t0) = submitted {
                let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                ca_obs::observe_ns("session", "job.queue_wait", ns);
            }
            self.run_caught(&jobs[i], Some(1), tokens[i].as_ref())
        })
    }

    /// Submits one twirl ensemble: every instance is a dressing over
    /// `base` (see `ca-core`'s `compile_twirl_ensemble`) and runs as
    /// its own job via the shared-plan fast path. `seeds[i]` seeds
    /// instance `i`'s noise streams.
    pub fn submit_ensemble(
        &self,
        base: &ScheduledCircuit,
        dressings: &[Vec<(usize, Pauli)>],
        observables: &[PauliString],
        shots: usize,
        seeds: &[u64],
    ) -> Vec<Result<Vec<f64>, SimError>> {
        let base = Arc::new(base.clone());
        let jobs: Vec<Job> = dressings
            .iter()
            .zip(seeds.iter())
            .map(|(dressing, &seed)| {
                Job::expect(base.clone(), observables.to_vec(), shots, seed)
                    .with_dressing(dressing.clone())
            })
            .collect();
        self.submit(&jobs)
            .into_iter()
            .map(|r| {
                r.map(|out| match out {
                    JobOutput::Expect(v) => v,
                    _ => unreachable!("expect jobs return expectations"), // ca-lint: allow(panic) -- sessions submit expect jobs only
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use ca_circuit::{schedule_asap, Circuit, GateDurations};
    use ca_device::{uniform_device, Topology};

    fn noisy_sim(n: usize) -> Simulator {
        let mut dev = uniform_device(Topology::line(n), 60.0);
        for q in 0..n {
            dev.calibration.qubits[q].quasistatic_khz = 30.0;
            dev.calibration.qubits[q].t1_us = 80.0;
            dev.calibration.qubits[q].t2_us = 90.0;
            dev.calibration.qubits[q].readout_err = 0.02;
            dev.calibration.qubits[q].gate_err_1q = 0.002;
        }
        Simulator::with_engine(dev, NoiseConfig::default(), Engine::FrameBatch)
    }

    fn workload(n: usize) -> ScheduledCircuit {
        let mut qc = Circuit::new(n, n);
        for q in 0..n {
            qc.h(q);
        }
        for q in (0..n - 1).step_by(2) {
            qc.ecr(q, q + 1);
        }
        qc.delay(700.0, 0);
        qc.x(0);
        qc.delay(700.0, 0);
        for q in 0..n {
            qc.measure(q, q);
        }
        schedule_asap(&qc, GateDurations::default())
    }

    #[test]
    fn compiled_circuit_is_send_sync_and_reusable() {
        let sim = noisy_sim(5);
        let sc = workload(5);
        let compiled = sim.compile(&sc, 7).unwrap();
        let none = InsertionSet::empty();
        let a = compiled.run_counts(300, &none, None).unwrap();
        // Reuse across threads.
        let arc = Arc::new(compiled);
        let b = std::thread::scope(|s| {
            let arc = arc.clone();
            s.spawn(move || arc.run_counts(300, &none, None).unwrap())
                .join()
                .unwrap()
        });
        assert_eq!(a, b, "same artifact, same seed, same counts");
        assert_eq!(a, sim.run_counts(&sc, 300, 7).unwrap(), "matches one-shot");
    }

    #[test]
    fn cache_hits_are_bit_identical_and_lru_evicts() {
        let sim = noisy_sim(4);
        let session = Session::with_capacity(sim, 1);
        let sc_a = workload(4);
        let mut qc = Circuit::new(4, 4);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let sc_b = schedule_asap(&qc, GateDurations::default());

        let cold = session.run(&Job::counts(sc_a.clone(), 257, 5)).unwrap();
        let warm = session.run(&Job::counts(sc_a.clone(), 257, 5)).unwrap();
        assert_eq!(cold, warm, "cache hit must be bit-identical");
        assert_eq!(session.cache_stats().hits, 1);

        // Capacity 1: compiling B evicts A; resubmitting A recompiles
        // and still matches.
        session.run(&Job::counts(sc_b.clone(), 64, 5)).unwrap();
        assert_eq!(session.cache_stats().len, 1);
        let recompiled = session.run(&Job::counts(sc_a.clone(), 257, 5)).unwrap();
        assert_eq!(cold, recompiled, "eviction never changes results");
        let stats = session.cache_stats();
        assert_eq!(stats.hits, 1, "A was evicted, so no further hits");
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn disabled_cache_matches_enabled() {
        let sc = workload(5);
        let cached = Session::with_capacity(noisy_sim(5), 16);
        let uncached = Session::with_capacity(noisy_sim(5), 0);
        let job = Job::counts(sc, 111, 13);
        let a = cached.run(&job).unwrap();
        let b = cached.run(&job).unwrap();
        let c = uncached.run(&job).unwrap();
        let d = uncached.run(&job).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(c, d);
        assert_eq!(uncached.cache_stats().len, 0);
    }

    #[test]
    fn submit_is_deterministic_across_worker_counts() {
        let sim = noisy_sim(5);
        let session = Session::with_capacity(sim, 16);
        let sc = Arc::new(workload(5));
        let obs = vec![PauliString::parse("ZZIII").unwrap()];
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::expect(sc.clone(), obs.clone(), 193, 100 + i as u64))
            .collect();
        let serial: Vec<_> = jobs.iter().map(|j| session.run(j).unwrap()).collect();
        let parallel: Vec<_> = session
            .submit(&jobs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(serial, parallel, "job fan-out must not change results");
    }

    #[test]
    fn dense_artifacts_compile_and_reject_frame_only_ops() {
        let dev = uniform_device(Topology::line(2), 0.0);
        let sim = Simulator::with_config(dev, NoiseConfig::ideal());
        let mut qc = Circuit::new(2, 2);
        qc.h(0).append(Gate::Rx(0.3), [1]);
        qc.measure(0, 0).measure(1, 1);
        let sc = schedule_asap(&qc, GateDurations::default());
        let compiled = sim.compile(&sc, 3).unwrap();
        assert_eq!(compiled.engine_name(), "statevector");
        let counts = compiled
            .run_counts(100, &InsertionSet::empty(), None)
            .unwrap();
        assert_eq!(counts, sim.run_counts(&sc, 100, 3).unwrap());
        let err = compiled
            .expect_flips(
                &[PauliString::parse("ZI").unwrap()],
                10,
                &InsertionSet::empty(),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::UnsupportedOnEngine { .. }));
        let err = compiled.redress(&[], 3).unwrap_err();
        assert!(matches!(err, SimError::InvalidDressing { .. }));
    }

    #[test]
    fn redress_rejects_non_slot_targets() {
        let sim = noisy_sim(4);
        let sc = workload(4);
        let compiled = sim.compile(&sc, 7).unwrap();
        // No merged slots in this hand-built circuit: every item is a
        // physical gate or structural op.
        let err = compiled.redress(&[(0, Pauli::X)], 7).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidDressing {
                reason: "target item is not a merged single-qubit Pauli slot",
                ..
            }
        ));
        let err = compiled.redress(&[(usize::MAX, Pauli::X)], 7).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidDressing {
                reason: "target item index out of range",
                ..
            }
        ));
    }

    #[test]
    fn nan_delay_is_a_structured_error() {
        let sim = noisy_sim(2);
        let mut qc = Circuit::new(2, 1);
        qc.h(0).delay(f64::NAN, 0).measure(0, 0);
        let sc = schedule_asap(&qc, GateDurations::default());
        let err = sim.compile(&sc, 1).unwrap_err();
        assert!(matches!(err, SimError::NonFiniteTime { .. }), "{err:?}");
        // The one-shot entry points surface the same error.
        let err2 = sim.run_counts(&sc, 10, 1).unwrap_err();
        assert_eq!(err, err2);
    }
}
