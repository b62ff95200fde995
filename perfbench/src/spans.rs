//! Bench-side layer spans and the self-time analysis of the traced run.
//!
//! Every call the benchmark makes into a crate's public API is wrapped
//! in a [`layer`] guard: a `ca_obs` span in the `perfbench` category
//! carrying its own id, its caller's id (`parent`) and the id of the
//! request or sweep point it belongs to (`req`). At `CA_OBS` levels
//! below `trace` the guard records no event, so untraced runs execute
//! the same code. After a traced run the Chrome trace is read back and
//! each span's self time (its duration minus the part its children
//! cover) is attributed to its layer.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Trace category of every bench-side span.
pub const CATEGORY: &str = "perfbench";

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// An open layer span; closing it (drop) restores the caller's span as
/// the current parent on this thread.
#[must_use = "a layer span times the scope it lives in"]
pub struct Layer {
    _span: ca_obs::Span,
    parent: u64,
}

/// Opens the span of one call into a layer. `req` groups the spans of
/// one request or sweep point; the parent is the span open on this
/// thread, 0 for a root.
pub fn layer(name: &'static str, req: u64) -> Layer {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let span = ca_obs::span(CATEGORY, name)
        .with_arg("span", id as f64)
        .with_arg("parent", parent as f64)
        .with_arg("req", req as f64);
    Layer {
        _span: span,
        parent,
    }
}

impl Drop for Layer {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.parent));
    }
}

/// One bench-side span read back from a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Layer name, e.g. `sim.execute`.
    pub name: String,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Own id.
    pub id: u64,
    /// Caller's id, 0 for a root.
    pub parent: u64,
    /// Request / sweep-point id.
    pub req: u64,
}

/// Self time of each span: its duration minus the union of its
/// children's intervals (clipped to its own), in input order.
pub fn self_times(spans: &[SpanRecord]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.ts_us, s.ts_us + s.dur_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.ts_us, s.ts_us + s.dur_us);
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = lo;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(hi));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.dur_us - covered).max(0.0)
        })
        .collect()
}

/// Share of the roots' time that named layers account for: the sum of
/// every non-root span's self time over the sum of root durations.
pub fn coverage(spans: &[SpanRecord]) -> f64 {
    let selfs = self_times(spans);
    let (mut layered, mut rooted) = (0.0, 0.0);
    for (s, own) in spans.iter().zip(selfs) {
        if s.parent == 0 {
            rooted += s.dur_us;
        } else {
            layered += own;
        }
    }
    if rooted > 0.0 {
        layered / rooted
    } else {
        0.0
    }
}

/// Reads a Chrome trace written by `ca_obs`, checks it is well formed
/// (one valid JSON document holding a `traceEvents` array, whose bench
/// spans carry numeric `ts`, `dur` and ids and name existing
/// parents), and returns the bench-side spans plus the event count.
///
/// The whole document is only scanned for validity: parsing it into a
/// value tree with the `serde_json` shim is quadratic in its length
/// (the shim re-validates the rest of the input per string character),
/// which a traced run's megabytes of events put at minutes. Each bench
/// event is parsed on its own instead, located by its category; the
/// exporter writes every event as one flat object whose last field is
/// `args`, so an event ends at the first `}}` after its category.
pub fn read_trace(path: &Path) -> Result<(Vec<SpanRecord>, usize), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if !text.starts_with("{\"traceEvents\":[") || !valid_json(&text) {
        return Err("trace is not a well-formed traceEvents document".into());
    }
    let mut spans = Vec::new();
    for (pos, _) in text.match_indices(&format!("\"cat\":\"{CATEGORY}\"")) {
        let start = text[..pos]
            .rfind('{')
            .ok_or("bench event without an opening brace")?;
        let end = pos + text[pos..].find("}}").ok_or("bench event without args")? + 2;
        let event = serde_json::parse_value(&text[start..end])
            .map_err(|e| format!("bench event is not JSON: {e}"))?;
        let num = |v: &serde::Value, k: &str| v.get(k).as_f64();
        let arg = |k: &str| num(event.get("args"), k).map(|v| v as u64);
        let (Some(ts), Some(dur), Some(id), Some(parent), Some(req)) = (
            num(&event, "ts"),
            num(&event, "dur"),
            arg("span"),
            arg("parent"),
            arg("req"),
        ) else {
            return Err("bench span without numeric ts/dur/span/parent/req".into());
        };
        spans.push(SpanRecord {
            name: event.get("name").as_str().unwrap_or("").to_string(),
            ts_us: ts,
            dur_us: dur,
            id,
            parent,
            req,
        });
    }
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    if let Some(orphan) = spans
        .iter()
        .find(|s| s.parent != 0 && !ids.contains(&s.parent))
    {
        return Err(format!("span `{}` names a missing parent", orphan.name));
    }
    if spans.is_empty() {
        return Err("trace holds no bench spans".into());
    }
    Ok((spans, text.matches("\"ph\":").count()))
}

/// Whether `text` is exactly one syntactically valid JSON value: a
/// linear scan that builds nothing.
pub fn valid_json(text: &str) -> bool {
    let mut scan = Scan {
        bytes: text.as_bytes(),
        pos: 0,
    };
    scan.value() && {
        scan.ws();
        scan.pos == scan.bytes.len()
    }
}

struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    /// A comma-separated sequence of `item`s up to `close` (the opening
    /// bracket already consumed).
    fn sequence(&mut self, close: u8, item: fn(&mut Self) -> bool) -> bool {
        if self.eat(close) {
            return true;
        }
        loop {
            if !item(self) {
                return false;
            }
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn value(&mut self) -> bool {
        self.ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.sequence(b'}', |s| {
                    s.ws();
                    s.string() && s.eat(b':') && s.value()
                })
            }
            Some(b'[') => {
                self.pos += 1;
                self.sequence(b']', Self::value)
            }
            Some(b'"') => self.string(),
            Some(b't') => self.word("true"),
            Some(b'f') => self.word("false"),
            Some(b'n') => self.word("null"),
            _ => self.number(),
        }
    }

    fn word(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(word.as_bytes());
        self.pos += if hit { word.len() } else { 0 };
        hit
    }

    fn string(&mut self) -> bool {
        if self.peek() != Some(b'"') {
            return false;
        }
        self.pos += 1;
        while let Some(c) = self.peek() {
            self.pos += 1;
            match c {
                b'"' => return true,
                b'\\' => self.pos += 1,
                c if c < 0x20 => return false,
                _ => {}
            }
        }
        false
    }

    fn number(&mut self) -> bool {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .is_some_and(|n| n.parse::<f64>().is_ok())
    }
}

/// Self time per layer name: `(req, self µs)` for every span.
pub fn by_layer(spans: &[SpanRecord]) -> BTreeMap<String, Vec<(u64, f64)>> {
    let mut out: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name.clone()).or_default().push((s.req, own));
    }
    out
}

/// Writes the events buffered so far (engine spans included) as a
/// Chrome trace and reads the bench spans back.
pub fn flush_trace(path: &Path) -> Result<(Vec<SpanRecord>, usize), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    ca_obs::write_chrome_trace(path).map_err(|e| format!("write {}: {e}", path.display()))?;
    read_trace(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: f64, dur: f64, id: u64, parent: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            ts_us: ts,
            dur_us: dur,
            id,
            parent,
            req: 7,
        }
    }

    impl SpanRecord {
        fn with_req(mut self, req: u64) -> Self {
            self.req = req;
            self
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("root", 0.0, 100.0, 1, 0),
            span("a", 10.0, 30.0, 2, 1),
            span("b", 30.0, 30.0, 3, 1),
            span("a.inner", 15.0, 5.0, 4, 2),
        ];
        // Children a and b overlap on [30, 40]: the root loses 50 µs,
        // not 60; a loses its 5 µs grandchild.
        assert_eq!(self_times(&spans), vec![50.0, 25.0, 30.0, 5.0]);
        assert!((coverage(&spans) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 0.0, 10.0, 1, 0), span("late", 8.0, 10.0, 2, 1)];
        assert_eq!(self_times(&spans), vec![8.0, 10.0]);
    }

    #[test]
    fn siblings_on_other_roots_do_not_interfere() {
        let spans = vec![
            span("root", 0.0, 10.0, 1, 0),
            span("x", 0.0, 10.0, 2, 1),
            span("root", 0.0, 10.0, 3, 0),
        ];
        assert_eq!(self_times(&spans), vec![0.0, 10.0, 10.0]);
        assert!((coverage(&spans) - 0.5).abs() < 1e-12);
        let layers = by_layer(&spans);
        assert_eq!(layers["root"].len(), 2);
        assert_eq!(layers["x"], vec![(7, 10.0)]);
    }

    #[test]
    fn validates_json_syntax() {
        assert!(valid_json(
            r#"{"a": [1, -2.5e3, "x\"y", true, null, {}], "b": []}"#
        ));
        assert!(!valid_json(r#"{"a": [1, 2}"#));
        assert!(!valid_json(r#"{"a": 1,}"#));
        assert!(!valid_json(r#"{"a" 1}"#));
        assert!(!valid_json("[1] 2"));
        assert!(!valid_json("\"unterminated"));
    }

    #[test]
    fn reads_bench_spans_back_from_an_exported_trace() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("trace.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            r#"{"traceEvents":[{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"shard-1"}},{"ph":"X","name":"engine","cat":"sim","ts":1,"dur":2,"pid":1,"tid":1},{"ph":"X","name":"root","cat":"perfbench","ts":0,"dur":10,"pid":1,"tid":1,"args":{"span":1,"parent":0,"req":3}},{"ph":"X","name":"leaf","cat":"perfbench","ts":2,"dur":4,"pid":1,"tid":1,"args":{"span":2,"parent":1,"req":3}}],"displayTimeUnit":"ms"}"#,
        )
        .unwrap();
        let (spans, events) = read_trace(&path).unwrap();
        assert_eq!(events, 4);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1], span("leaf", 2.0, 4.0, 2, 1).with_req(3));
        assert!((coverage(&spans) - 0.4).abs() < 1e-12);
        std::fs::write(&path, "{\"traceEvents\":[").unwrap();
        assert!(read_trace(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn guards_link_parents_on_one_thread() {
        let outer = layer("outer", 1);
        let outer_id = CURRENT.with(Cell::get);
        {
            let _inner = layer("inner", 1);
            assert_ne!(CURRENT.with(Cell::get), outer_id);
        }
        assert_eq!(CURRENT.with(Cell::get), outer_id);
        drop(outer);
        assert_eq!(CURRENT.with(Cell::get), 0);
    }
}
