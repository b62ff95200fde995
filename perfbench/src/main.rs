//! The repository's benchmark: one command, three workloads, every
//! layer from the HTTP daemon down to the learner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mix|lf-433q|pec-learn-10q> --seed <n> \
//!     --seconds <s> --trace <0|1> [--record <file.jsonl>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --compare <parent.jsonl> [<change.jsonl>]
//! ```
//!
//! * `serve-mix` — an in-process `ca-server` on loopback (Eagle-127
//!   preset, 2 workers) driven by two closed-loop tenants sending
//!   1024-shot QASM jobs, 3 wide 127-qubit Clifford jobs (frame-batch)
//!   to 1 dense 8-qubit GHZ job (statevector) in seeded order.
//! * `lf-433q` — the paper's layer-fidelity experiment on the sparse
//!   Osprey-433 layer: bare, DD and CA-DD at depths 1/2/4/8 with 8
//!   twirl instances, each sweep on a fresh (cold) session.
//! * `pec-learn-10q` — learn the Fig. 8 layer's Pauli channel under
//!   all five strategies and invert it to the PEC overhead γ.
//!
//! Each workload repeats a unit of fixed work — a client round of 16
//! requests, a sweep, a five-strategy learn — until `--seconds` have
//! passed. With `--trace 0` the run reports the end-to-end metrics
//! with tracing off: median set-up time (`setup_s`, several set-ups per
//! run), median unit wall (`wall_s`), the unit's shots and operations
//! over that wall (`shots_per_s`, `req_per_s`), the median and tail
//! latency of one operation (a served request, a sweep point, a whole
//! five-strategy learn; `req_p50_ms`, `req_tail_ms`) and the median
//! interval peak of resident memory (`peak_rss_mb`). The error rate,
//! the tail's percentile and sample count, the engines each job kind
//! or strategy resolved to and a digest of the first unit's results
//! are printed in the `run:` block above the result. With `--trace 1`
//! the run alternates untraced and traced units, writes the Chrome
//! trace to `perfbench/out/`, and reports per-layer self times (see
//! `spans`), the phase totals the engines record in `ca_obs`, the
//! layers' coverage of the traced wall and the tracing overhead.
//! Every run checks its outputs; a failed check is counted, printed,
//! and makes the command exit non-zero. The last stdout line is the
//! JSON result; `--record` also appends it, with the run block, to a
//! file that `--compare` reads.

mod compare;
mod lf;
mod pec;
mod serve;
mod spans;
mod stats;

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back to the driver code below.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, sweep points, strategy learns)
    /// plus output checks made.
    pub attempted: u64,
    /// Messages of the failed operations and checks.
    pub failures: Vec<String>,
    /// The metrics of this mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Workload facts for the run block: resolved engines, tail
    /// percentile and sample counts, budgets.
    pub facts: Vec<(String, Value)>,
    /// Hash of the first unit's results (counts / LF / γ).
    pub digest: u64,
}

impl Outcome {
    /// Records one check: counted as attempted, and as failed with
    /// `message` unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(message());
        }
    }

    /// Adds a run-block fact.
    pub fn fact(&mut self, key: &str, value: impl Serialize) {
        self.facts.push((key.to_string(), value.to_value()));
    }
}

/// Host timings every workload collects for its end-to-end metrics.
#[derive(Default)]
pub struct Timings {
    /// Each repeated set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall of each completed unit of fixed work, seconds.
    pub unit_s: Vec<f64>,
    /// Latency of each operation (request, sweep point, learn),
    /// milliseconds.
    pub op_ms: Vec<f64>,
    /// Shots / trajectories simulated per unit.
    pub shots_per_unit: f64,
    /// Operations completed per unit.
    pub ops_per_unit: f64,
    /// Interval peaks of resident memory over the window, MB.
    pub rss_mb: Vec<f64>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Rates are the
/// unit's fixed work over the median unit wall, so a burst of host
/// noise in one unit moves them no more than it moves `wall_s`. The
/// tail's percentile and sample count go to the run block.
pub fn end_to_end(t: &Timings, out: &mut Outcome) {
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let tail = stats::tail(&t.op_ms);
    let wall = med(&t.unit_s);
    out.metrics = vec![
        metric("setup_s", med(&t.setup_s), "s"),
        metric("wall_s", wall, "s"),
        metric("shots_per_s", t.shots_per_unit / wall, "1/s"),
        metric("req_p50_ms", med(&t.op_ms), "ms"),
        metric("req_tail_ms", tail.map_or(f64::NAN, |x| x.value), "ms"),
        metric("req_per_s", t.ops_per_unit / wall, "1/s"),
        metric("peak_rss_mb", med(&t.rss_mb), "MB"),
    ];
    if let Some(x) = tail {
        out.fact("req_tail_percentile", x.percentile);
        out.fact("req_tail_meets_rule", x.meets_rule);
    }
    out.fact("req_samples", t.op_ms.len());
    out.fact("units", t.unit_s.len());
    out.fact("setups", t.setup_s.len());
    out.fact(
        "max_interval_rss_mb",
        t.rss_mb.iter().copied().fold(f64::NAN, f64::max),
    );
}

/// FNV-1a over a byte stream: the result digests and served-body
/// hashes.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a float's exact bits in.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.bytes(&x.to_bits().to_le_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's input generator, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Nanoseconds on the workspace's one sanctioned clock
/// (`ca_obs::monotonic_ns`); every timing here reads it.
pub fn now() -> u64 {
    ca_obs::monotonic_ns()
}

/// Seconds since `t0` (a [`now`] reading).
pub fn secs(t0: u64) -> f64 {
    now().saturating_sub(t0) as f64 * 1e-9
}

/// The [`now`] reading `seconds` from now.
pub fn deadline(seconds: f64) -> u64 {
    now().saturating_add((seconds * 1e9) as u64)
}

/// Samples the process's peak resident memory over consecutive
/// intervals while a workload runs: each interval reads `VmHWM` and
/// then resets it (`/proc/self/clear_refs`), so the median interval
/// peak is steady where the whole-process peak depends on allocator
/// history. Where the reset is refused the samples are plain `VmRSS`.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

const RSS_INTERVAL_NS: u64 = 250_000_000;

impl RssSampler {
    /// Starts sampling on a background thread.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let resettable = reset_peak_rss();
            let mut peaks = Vec::new();
            let mut next = now() + RSS_INTERVAL_NS;
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(10));
                if now() < next {
                    continue;
                }
                next += RSS_INTERVAL_NS;
                let key = if resettable { "VmHWM:" } else { "VmRSS:" };
                if let Some(mb) = status_mb(key) {
                    peaks.push(mb);
                }
                if resettable {
                    reset_peak_rss();
                }
            }
            peaks
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling and returns the interval peaks, MB.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Release);
        let mut peaks = self.handle.join().unwrap_or_default();
        if peaks.is_empty() {
            peaks.extend(status_mb("VmHWM:"));
        }
        peaks
    }
}

fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A `/proc/self/status` memory line, MB.
fn status_mb(key: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse::<f64>()
        .ok()
        .map(|kb| kb / 1024.0)
}

/// The phase-coverage rule: bench-side layer self times must account
/// for at least this share of each workload's traced wall.
pub const MIN_COVERAGE: f64 = 0.9;

/// Checks the phase-coverage rule on a traced run.
pub fn check_coverage(coverage: f64, out: &mut Outcome) {
    out.check(coverage >= MIN_COVERAGE, || {
        format!(
            "layer self times cover {:.1}% of the traced wall, below {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        )
    });
}

/// `ca_obs` activity summed over measured windows: seconds per
/// `category/name` span or phase, and counter increments.
#[derive(Default)]
pub struct Phases {
    seconds: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl Phases {
    /// Adds everything recorded since `base`.
    pub fn add_since(&mut self, base: &ca_obs::Snapshot) {
        let delta = ca_obs::snapshot().since(base);
        for (key, h) in delta.histograms {
            *self.seconds.entry(key).or_default() += h.sum() as f64 * 1e-9;
        }
        for (key, n) in delta.counters {
            *self.counters.entry(key).or_default() += n;
        }
    }

    /// Total seconds under `category/name`.
    pub fn seconds(&self, key: &str) -> f64 {
        self.seconds.get(key).copied().unwrap_or(0.0)
    }

    /// Total increments of a counter.
    pub fn count(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0) as f64
    }
}

/// What [`drive`] measured: unit walls split by tracing, and the
/// `ca_obs` activity of the traced units.
#[derive(Default)]
pub struct Drive {
    /// Walls of the untraced units, seconds.
    pub plain_s: Vec<f64>,
    /// Walls of the traced units, seconds.
    pub traced_s: Vec<f64>,
    /// `ca_obs` activity of the traced units.
    pub phases: Phases,
    /// Interval peaks of resident memory, MB (see [`RssSampler`]).
    pub rss_mb: Vec<f64>,
}

impl Drive {
    /// A span total over the traced units, per traced unit.
    pub fn phase(&self, key: &str) -> f64 {
        self.phases.seconds(key) / self.traced_s.len().max(1) as f64
    }
}

/// How [`drive`] runs one unit.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Unmeasured warm-up (traced runs only).
    Warm,
    /// Measured with tracing off.
    Plain,
    /// Measured at `ca_obs` trace level.
    Traced,
}

/// Runs whole units of fixed work until the `--seconds` window
/// closes. An untraced run measures every unit with observability as
/// configured. A traced run first runs one unmeasured warm-up unit,
/// then alternates untraced and traced units (at least one of each),
/// raising `ca_obs` to `trace` for the latter so their spans are
/// buffered for one Chrome trace at the end.
pub fn drive(
    args: &RunArgs,
    mut unit: impl FnMut(u64, Pass) -> Result<(), String>,
) -> Result<Drive, String> {
    let deadline = deadline(args.seconds);
    let min_units = if args.trace { 2 } else { 1 };
    let mut out = Drive::default();
    if args.trace {
        unit(0, Pass::Warm)?;
    }
    let rss = RssSampler::start();
    let mut failure = None;
    let mut i = 0u64;
    while i < min_units || now() < deadline {
        let traced = args.trace && i % 2 == 1;
        let pass = if traced { Pass::Traced } else { Pass::Plain };
        let level = ca_obs::level();
        let base = traced.then(|| {
            ca_obs::set_level(ca_obs::Level::Trace);
            ca_obs::snapshot()
        });
        let t0 = now();
        if let Err(e) = unit(i + 1, pass) {
            failure = Some(e);
            break;
        }
        let wall = secs(t0);
        match base {
            Some(base) => {
                out.phases.add_since(&base);
                ca_obs::set_level(level);
                out.traced_s.push(wall);
            }
            None => out.plain_s.push(wall),
        }
        i += 1;
    }
    // Stop the sampler thread before reporting a failed unit too.
    out.rss_mb = rss.finish();
    match failure {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// `median(a) / median(b) − 1`, 0 when either is empty.
pub fn ratio_minus_one(a: &[f64], b: &[f64]) -> f64 {
    match (stats::median(a), stats::median(b)) {
        (Some(x), Some(y)) if y > 0.0 => x / y - 1.0,
        _ => 0.0,
    }
}

/// Every per-layer metric. A workload fills the layers it loads and
/// leaves the rest at zero: the layer did no work on it. `_s` values
/// are per unit of the workload's fixed work (a client round of 16
/// requests, a sweep, a five-strategy learn). Bench-side layers are
/// self times on the calling thread; the engine phases
/// (`sampling_s`, `propagation_s`, `reduction_s`) and, inside the
/// learner, compile / plan / simulate / fit are `ca_obs` totals summed
/// over worker threads.
#[derive(Default)]
pub struct Layers {
    /// Served latency minus the in-process replay, wide jobs (median).
    pub transport_ms: f64,
    /// The same for dense jobs.
    pub transport_dense_ms: f64,
    /// `ca_server::parse_job` per request (median).
    pub parse_job_us: f64,
    /// `QuotaRegistry::try_admit` per request (median).
    pub admit_us: f64,
    /// `schema::counts_pieces` per request (median).
    pub encode_ms: f64,
    /// Served body size of a wide job (median).
    pub response_bytes: f64,
    /// `ca_circuit::parse` of the job's QASM (median).
    pub qasm_parse_us: f64,
    /// `schedule_asap` per request (median).
    pub schedule_us: f64,
    /// Building the sweep's circuits and propagated observables.
    pub build_s: f64,
    /// The pass pipeline (`compile_twirl_ensemble`; inside the learner,
    /// its `compile/pipeline` span).
    pub compile_s: f64,
    /// Instructions the pipeline emitted over the sweep (exact).
    pub ops_out: f64,
    /// `Session::compiled[_dressed]` (inside the learner, the
    /// `sim.compile/*` plan spans).
    pub plan_compile_s: f64,
    /// Level-one plan-cache hits over lookups.
    pub cache_hit_rate: f64,
    /// Plan-cache lookups per unit: the hit rate's base.
    pub cache_lookups: f64,
    /// Circuit execution (`run_counts`, `expect_paulis`; inside the
    /// learner, its `learn/simulate` span).
    pub execute_s: f64,
    /// Execution time per qubit per shot.
    pub ns_per_qubit_shot: f64,
    /// Engine noise sampling (`engine/sampling`).
    pub sampling_s: f64,
    /// Engine frame / state propagation (`engine/propagation`).
    pub propagation_s: f64,
    /// Engine result reduction (`engine/reduction`).
    pub reduction_s: f64,
    /// `learn_layer_channel` for the strategies that learn on
    /// frame-batch.
    pub learn_frame_s: f64,
    /// The same for the strategies that learn on the dense engine.
    pub learn_dense_s: f64,
    /// `invert` (or the clamped inverse).
    pub invert_s: f64,
    /// `fit_decay` (inside the learner, `learn/fit-partition`).
    pub fit_s: f64,
    /// Layer self times over root span time (≥ [`MIN_COVERAGE`]).
    pub coverage: f64,
    /// Median traced unit wall over median untraced unit wall, − 1.
    pub trace_overhead: f64,
}

/// The per-layer metrics in `BENCHMARK.json` order.
pub fn per_layer(l: Layers) -> Vec<Metric> {
    vec![
        metric("server.transport_ms", l.transport_ms, "ms"),
        metric("server.transport_dense_ms", l.transport_dense_ms, "ms"),
        metric("server.parse_job_us", l.parse_job_us, "us"),
        metric("server.admit_us", l.admit_us, "us"),
        metric("server.encode_ms", l.encode_ms, "ms"),
        metric("server.response_bytes", l.response_bytes, "bytes"),
        metric("circuit.qasm_parse_us", l.qasm_parse_us, "us"),
        metric("circuit.schedule_us", l.schedule_us, "us"),
        metric("circuit.build_s", l.build_s, "s"),
        metric("core.compile_s", l.compile_s, "s"),
        metric("core.ops_out", l.ops_out, "count"),
        metric("sim.plan_compile_s", l.plan_compile_s, "s"),
        metric("sim.cache_hit_rate", l.cache_hit_rate, "ratio"),
        metric("sim.cache_lookups", l.cache_lookups, "count"),
        metric("sim.execute_s", l.execute_s, "s"),
        metric("sim.ns_per_qubit_shot", l.ns_per_qubit_shot, "ns"),
        metric("sim.sampling_s", l.sampling_s, "s"),
        metric("sim.propagation_s", l.propagation_s, "s"),
        metric("sim.reduction_s", l.reduction_s, "s"),
        metric("mitigation.learn_frame_s", l.learn_frame_s, "s"),
        metric("mitigation.learn_dense_s", l.learn_dense_s, "s"),
        metric("mitigation.invert_s", l.invert_s, "s"),
        metric("metrics.fit_s", l.fit_s, "s"),
        metric("bench.layer_coverage", l.coverage, "ratio"),
        metric("bench.trace_overhead", l.trace_overhead, "ratio"),
    ]
}

/// Parsed command line of a measuring run.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    record: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <serve-mix|lf-433q|pec-learn-10q> --seed <n> \
--seconds <s> --trace <0|1> [--record <file>]\n       perfbench --compare <a.jsonl> [<b.jsonl>]";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve-mix", "lf-433q", "pec-learn-10q"];

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--record" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

/// The git commit of the checkout, read from `.git` without running
/// git; `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&Path::new(".git").join(reference))
        .or_else(|| {
            read(Path::new(".git/packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the toolchain on the path (the one `cargo
/// run` built this binary with).
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host and build facts every run reports beside its numbers.
fn run_block(args: &RunArgs) -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("workload".into(), args.workload.to_value()),
        ("seed".into(), args.seed.to_value()),
        ("seconds".into(), args.seconds.to_value()),
        ("trace".into(), args.trace.to_value()),
        ("nproc".into(), nproc.to_value()),
        ("rustc".into(), rustc_version().to_value()),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_value(),
        ),
        ("git_sha".into(), git_sha().to_value()),
        (
            "sim_workers".into(),
            ca_sim::plan::worker_count(None, usize::MAX).to_value(),
        ),
        (
            "plan_cache_capacity".into(),
            ca_sim::session::plan_cache_capacity_from_env().to_value(),
        ),
    ]
}

struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn to_json(v: Value) -> String {
    serde_json::to_string(&Json(v)).unwrap_or_else(|_| "null".into())
}

fn measure(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve-mix" => serve::run(args),
        "lf-433q" => lf::run(args),
        _ => pec::run(args),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        match compare::run(&argv[1..]) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut block = run_block(&args);
    let mut outcome = match measure(&args) {
        Ok(o) => o,
        Err(e) => {
            // A workload that cannot run at all prints no result.
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let failed = outcome.failures.len() as u64;
    outcome.attempted = outcome.attempted.max(1);
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    let error_rate = failed as f64 / outcome.attempted as f64;
    block.push(("obs_level".into(), ca_obs::level().name().to_value()));
    block.push(("error_rate".into(), error_rate.to_value()));
    block.push((
        "digest".into(),
        format!("{:016x}", outcome.digest).to_value(),
    ));
    block.append(&mut outcome.facts);
    let run = Value::Obj(block);
    println!("run: {}", to_json(run.clone()));
    println!("  {:<28} {:>16}  unit", "metric", "value");
    for m in &outcome.metrics {
        println!("  {:<28} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    println!("  {:<28} {:>16.6}  ratio", "error_rate", error_rate);
    let metrics = Value::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), m.value.to_value()),
                        ("unit".into(), m.unit.to_value()),
                    ]),
                )
            })
            .collect(),
    );
    let result = Value::Obj(vec![
        ("correct".into(), (failed == 0).to_value()),
        ("attempted".into(), outcome.attempted.to_value()),
        ("failed".into(), failed.to_value()),
        ("metrics".into(), metrics),
    ]);
    if let Some(path) = &args.record {
        let record = Value::Obj(vec![("run".into(), run), ("result".into(), result.clone())]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", to_json(record)));
        if let Err(e) = appended {
            eprintln!("perfbench: cannot record to {}: {e}", path.display());
        }
    }
    println!("{}", to_json(result));
    if failed > 0 {
        std::process::exit(1);
    }
}
