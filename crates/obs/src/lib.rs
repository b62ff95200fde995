#![forbid(unsafe_code)]
//! Structured tracing and metrics for the context-aware-compiling
//! pipeline.
//!
//! The workspace's hot paths — pass compilation, session/job fan-out,
//! the frame engines, the mitigation learner — are instrumented with
//! three primitives:
//!
//! - **spans** ([`span`]): RAII timers that record a duration
//!   histogram per `(category, name)` pair and, at trace level, emit a
//!   Chrome-trace duration event;
//! - **counters / gauges** ([`counter_add`], [`gauge_set`]): named
//!   monotonic counts and last-write-wins values;
//! - **histograms** ([`observe_ns`], [`Histogram`]): log2-bucketed
//!   latency distributions with p50/p95/p99.
//!
//! All state lives in thread-local shards registered in a global
//! registry, so recording never contends across worker threads;
//! [`snapshot`] merges the shards on demand. An exiting thread folds
//! its shard into one retired shard, so the registry stays bounded by
//! the live threads however many short-lived workers come and go. When disabled, every
//! instrumentation site costs **one relaxed atomic load** and nothing
//! else — no clock read, no allocation.
//!
//! ## Levels
//!
//! The level comes from the `CA_OBS` environment variable, parsed
//! lazily on first use, or from [`set_level`]:
//!
//! | value               | effect                                       |
//! |---------------------|----------------------------------------------|
//! | unset, `off`, `0`   | everything disabled (default)                |
//! | `summary`, `on`, `1`| metrics recorded; [`finish`] prints a table  |
//! | `trace:<path>`      | metrics + trace events; [`finish`] writes a  |
//! |                     | Chrome-trace JSON file loadable in Perfetto  |
//!
//! ## The no-RNG / no-state invariant
//!
//! Instrumentation draws **no randomness** and touches **no
//! simulation state**: it only reads clocks and writes to its own
//! shards. Simulation results are therefore bit-identical across
//! `off`/`summary`/`trace` — the engine-equivalence suite enforces
//! this.

#![warn(missing_docs)]

mod env;
mod export;
mod histogram;
mod registry;
mod span;

pub use env::{invalid_env_count, var_parsed, var_parsed_with};
pub use export::{fmt_ns, render_summary, write_chrome_trace};
pub use histogram::Histogram;
pub use registry::{counter_add, gauge_set, observe_ns, snapshot, Snapshot};
pub use span::{span, Span};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Observability verbosity, lowest to highest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is recorded; every site costs one relaxed atomic load.
    Off,
    /// Counters, gauges, and histograms are recorded; [`finish`]
    /// prints a summary table to stderr.
    Summary,
    /// Everything in `Summary` plus per-span trace events; [`finish`]
    /// also writes a Chrome-trace JSON file.
    Trace,
}

impl Level {
    /// The lowercase name used by `CA_OBS` and in run metadata.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Trace => "trace",
        }
    }
}

// STATE holds Level + 1, with 0 meaning "not yet parsed from CA_OBS".
const UNINIT: u8 = 0;
static STATE: AtomicU8 = AtomicU8::new(UNINIT);

fn trace_path_slot() -> &'static Mutex<Option<PathBuf>> {
    static SLOT: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Locks a mutex, recovering from poisoning. Instrumentation state
/// (registry shards, the trace-path slot, warn-once sets) must stay
/// readable after a worker thread panics — aborting inside `finish()`
/// or a metrics call would mask the original panic.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Process-wide time origin for trace timestamps.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process-wide epoch (first clock
/// use in this process). The workspace's single sanctioned wall-clock
/// read outside `ca-bench`: deadline enforcement (`ca-sim` cancel
/// tokens, `ca-server` job timeouts) measures elapsed time through
/// this function so every clock read stays inside `ca-obs`, the crate
/// the `wall-clock` lint rule scopes to. Timekeeping only — the value
/// never feeds simulation results.
pub fn monotonic_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cold]
fn init_from_env() -> u8 {
    epoch();
    // CA_OBS cannot go through env::var_parsed_with: that helper's
    // invalid-value counter re-enters the level check. env::raw keeps
    // the actual read inside ca_obs::env, the workspace's single
    // environment-reading module.
    let parsed = match env::raw("CA_OBS") {
        None => Level::Off,
        Some(raw) => {
            let lower = raw.to_ascii_lowercase();
            if let Some(path) = lower.strip_prefix("trace:") {
                *lock_recover(trace_path_slot()) = Some(PathBuf::from(path));
                Level::Trace
            } else {
                match lower.as_str() {
                    "" | "off" | "0" | "false" | "none" => Level::Off,
                    "summary" | "on" | "1" => Level::Summary,
                    "trace" => Level::Trace,
                    _ => {
                        eprintln!("ca-obs: ignoring invalid CA_OBS={raw:?} (expected off|summary|trace:<path>)");
                        Level::Off
                    }
                }
            }
        }
    };
    // CAS so a concurrent set_level() is not overwritten.
    let _ = STATE.compare_exchange(
        UNINIT,
        parsed as u8 + 1,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed)
}

#[inline]
fn state() -> u8 {
    let s = STATE.load(Ordering::Relaxed);
    if s == UNINIT {
        init_from_env()
    } else {
        s
    }
}

/// Whether any instrumentation is active. The hot-path guard: one
/// relaxed atomic load after first use.
#[inline]
pub fn enabled() -> bool {
    state() > Level::Off as u8 + 1
}

/// Whether trace events (not just metrics) are being recorded.
#[inline]
pub fn trace_enabled() -> bool {
    state() > Level::Summary as u8 + 1
}

/// The current level.
pub fn level() -> Level {
    match state() {
        2 => Level::Summary,
        3 => Level::Trace,
        _ => Level::Off,
    }
}

/// Overrides the level programmatically (benches, tests), taking
/// precedence over `CA_OBS`.
pub fn set_level(level: Level) {
    epoch();
    STATE.store(level as u8 + 1, Ordering::Relaxed);
}

/// Sets the file [`finish`] writes the Chrome trace to at
/// [`Level::Trace`] (also settable via `CA_OBS=trace:<path>`).
pub fn set_trace_path(path: impl Into<PathBuf>) {
    *lock_recover(trace_path_slot()) = Some(path.into());
}

/// Raises the level to [`Level::Summary`] if it is currently off;
/// leaves `summary`/`trace` untouched. Benches call this so their
/// phase breakdowns are populated even without `CA_OBS` set.
pub fn enable_summary_if_off() {
    if level() == Level::Off {
        set_level(Level::Summary);
    }
}

/// Flushes collected data according to the current level: prints the
/// summary table to stderr at `summary`+, and writes (draining) the
/// buffered trace events as Chrome-trace JSON at `trace`. Returns the
/// trace path when a trace file was written.
pub fn finish() -> Option<PathBuf> {
    let level = level();
    if level == Level::Off {
        return None;
    }
    let mut written = None;
    if level == Level::Trace {
        let path = lock_recover(trace_path_slot())
            .clone()
            .unwrap_or_else(|| PathBuf::from("ca_obs_trace.json"));
        match write_chrome_trace(&path) {
            Ok(()) => written = Some(path),
            Err(e) => eprintln!("ca-obs: failed to write trace {}: {e}", path.display()),
        }
    }
    eprint!("{}", render_summary(&snapshot()));
    written
}
