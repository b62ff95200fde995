//! Thread-local metric shards and the global registry that merges
//! them.
//!
//! Each thread records into its own [`Shard`] behind an uncontended
//! mutex; shards register themselves in a global list on first use.
//! When a thread exits, its shard folds into one *retired* shard and
//! leaves the list, so short-lived worker pools (the session and
//! engine fan-outs spawn scoped threads per job) neither lose data nor
//! grow the registry without bound in a long-running server.

use crate::histogram::Histogram;
use crate::span::TraceEvent;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-thread trace-event cap; overflow increments a drop counter
/// instead of growing without bound.
const MAX_EVENTS_PER_THREAD: usize = 1 << 18;

#[derive(Default)]
pub(crate) struct Shard {
    tid: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<(&'static str, &'static str), Histogram>,
    events: Vec<TraceEvent>,
    dropped_events: u64,
}

impl Shard {
    /// Folds an exited thread's shard into this one. Its trace events
    /// keep the thread id they were stamped with.
    fn absorb(&mut self, other: Shard) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        self.gauges.extend(other.gauges);
        for (key, h) in &other.histograms {
            self.histograms.entry(*key).or_default().merge(h);
        }
        self.events.extend(other.events);
        self.dropped_events += other.dropped_events;
    }
}

/// The live threads' shards, the retired threads' merged shard, and
/// the next thread id.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<Mutex<Shard>>>,
    retired: Shard,
    next_tid: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// A thread's registered shard; dropping it (at thread exit) retires
/// the shard.
struct Local(Arc<Mutex<Shard>>);

impl Drop for Local {
    fn drop(&mut self) {
        let mut reg = crate::lock_recover(registry());
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.0));
        let shard = std::mem::take(&mut *crate::lock_recover(&self.0));
        reg.retired.absorb(shard);
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_shard(f: impl FnOnce(&mut Shard)) {
    let mut f = Some(f);
    let recorded = LOCAL.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let mut reg = crate::lock_recover(registry());
            reg.next_tid += 1;
            let shard = Arc::new(Mutex::new(Shard {
                tid: reg.next_tid,
                ..Shard::default()
            }));
            reg.live.push(Arc::clone(&shard));
            Local(shard)
        });
        if let Some(f) = f.take() {
            f(&mut crate::lock_recover(&local.0));
        }
    });
    // Recording from another thread-local's destructor, after this
    // thread's shard has retired: write to the retired shard directly.
    if recorded.is_err() {
        if let Some(f) = f {
            f(&mut crate::lock_recover(registry()).retired);
        }
    }
}

/// Adds `delta` to the named monotonic counter. No-op when disabled.
pub fn counter_add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_shard(|s| *s.counters.entry(name).or_insert(0) += delta);
}

/// Sets the named gauge to `value` (last write wins across threads).
/// No-op when disabled.
pub fn gauge_set(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_shard(|s| {
        s.gauges.insert(name, value);
    });
}

/// Records a duration sample (nanoseconds) into the `(category,
/// name)` histogram. No-op when disabled.
pub fn observe_ns(category: &'static str, name: &'static str, ns: u64) {
    if !crate::enabled() {
        return;
    }
    with_shard(|s| s.histograms.entry((category, name)).or_default().record(ns));
}

/// Buffers a trace event, stamping it with this thread's shard id.
pub(crate) fn push_event(mut event: TraceEvent) {
    with_shard(|s| {
        if s.events.len() < MAX_EVENTS_PER_THREAD {
            event.tid = s.tid;
            s.events.push(event);
        } else {
            s.dropped_events += 1;
        }
    });
}

/// Drains all buffered trace events from every shard, retired
/// threads' first.
pub(crate) fn take_events() -> Vec<TraceEvent> {
    let mut reg = crate::lock_recover(registry());
    let mut out = std::mem::take(&mut reg.retired.events);
    for shard in reg.live.iter() {
        out.append(&mut crate::lock_recover(shard).events);
    }
    out
}

/// A merged point-in-time copy of every thread's metrics.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Monotonic counters, summed across threads.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last write wins across threads).
    pub gauges: BTreeMap<String, f64>,
    /// Duration histograms keyed `"category/name"`, merged across
    /// threads.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Merges all shards into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    let mut dropped = 0u64;
    let mut add = |s: &Shard| {
        for (name, v) in &s.counters {
            *out.counters.entry((*name).to_string()).or_insert(0) += v;
        }
        for (name, v) in &s.gauges {
            out.gauges.insert((*name).to_string(), *v);
        }
        for ((cat, name), h) in &s.histograms {
            out.histograms
                .entry(format!("{cat}/{name}"))
                .or_default()
                .merge(h);
        }
        dropped += s.dropped_events;
    };
    let reg = crate::lock_recover(registry());
    add(&reg.retired);
    for shard in reg.live.iter() {
        add(&crate::lock_recover(shard));
    }
    if dropped > 0 {
        *out.counters
            .entry("obs.dropped_events".to_string())
            .or_insert(0) += dropped;
    }
    out
}

impl Snapshot {
    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram under `"category/name"`, if any samples exist.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Total seconds accumulated in the `"category/name"` histogram
    /// (its sample sum interpreted as nanoseconds).
    pub fn total_seconds(&self, key: &str) -> f64 {
        self.histogram(key).map_or(0.0, |h| h.sum() as f64 * 1e-9)
    }

    /// The activity recorded since `base` was captured: counter and
    /// histogram deltas (saturating), gauges taken from `self`. Used
    /// by the benches to attribute phase time to a single run.
    pub fn since(&self, base: &Snapshot) -> Snapshot {
        let mut out = Snapshot {
            gauges: self.gauges.clone(),
            ..Snapshot::default()
        };
        for (name, v) in &self.counters {
            let d = v.saturating_sub(base.counter(name));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (key, h) in &self.histograms {
            let d = match base.histograms.get(key) {
                Some(b) => h.since(b),
                None => h.clone(),
            };
            if d.count() > 0 {
                out.histograms.insert(key.clone(), d);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;
    use std::sync::Mutex;

    // The level is process-global; tests that toggle it must not
    // overlap with tests that record.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn thread_buffers_merge_into_one_snapshot() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        crate::set_level(Level::Summary);
        let before = snapshot();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    counter_add("test.registry.merge", 3);
                    observe_ns("test.registry", "merge-lat", 1000);
                    gauge_set("test.registry.gauge", 7.0);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        counter_add("test.registry.merge", 1);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.registry.merge"), 13);
        let h = delta.histogram("test.registry/merge-lat").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 4000);
        assert_eq!(delta.gauges.get("test.registry.gauge"), Some(&7.0));
    }

    #[test]
    fn exited_threads_retire_their_shards() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        crate::set_level(Level::Summary);
        counter_add("test.registry.retire", 1);
        let before = snapshot();
        let live_before = crate::lock_recover(registry()).live.len();
        for _ in 0..50 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    counter_add("test.registry.retire", 2);
                    observe_ns("test.registry", "retire-lat", 10);
                });
            });
        }
        // Every spawned thread has exited: their 50 shards left the
        // live list (other tests' threads may come and go meanwhile),
        // and their data survives in the retired shard.
        assert!(crate::lock_recover(registry()).live.len() < live_before + 10);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.registry.retire"), 100);
        assert_eq!(
            delta.histogram("test.registry/retire-lat").unwrap().count(),
            50
        );
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        let level = crate::level();
        crate::set_level(Level::Off);
        counter_add("test.registry.disabled", 1);
        observe_ns("test.registry", "disabled-lat", 5);
        crate::set_level(Level::Summary);
        let snap = snapshot();
        assert_eq!(snap.counter("test.registry.disabled"), 0);
        assert!(snap.histogram("test.registry/disabled-lat").is_none());
        crate::set_level(level.max(Level::Summary));
    }

    #[test]
    fn since_reports_only_new_activity() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        crate::set_level(Level::Summary);
        counter_add("test.registry.delta", 5);
        observe_ns("test.registry", "delta-lat", 100);
        let base = snapshot();
        counter_add("test.registry.delta", 2);
        observe_ns("test.registry", "delta-lat", 200);
        let delta = snapshot().since(&base);
        assert_eq!(delta.counter("test.registry.delta"), 2);
        let h = delta.histogram("test.registry/delta-lat").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 200);
    }
}
