//! In-memory spans for the traced run, recorded around the benchmark's
//! calls into each layer and written out once the run ends.
//!
//! A span has a name, the layer it times, a start and end (ns since the
//! tracer was created) and the span that caused it. A layer's self time
//! is the total duration of its spans minus the part covered by their
//! child spans. With tracing off every method is a single branch.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

pub struct Span {
    name: String,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Close `id` and every span opened inside it that is still open.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Record a finished span timed elsewhere (on another thread), as a
    /// child of `parent`.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
    }

    /// Self time per layer, ms. Children recorded from other threads may
    /// overlap each other, so a parent's self time is clamped at zero.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span and the per-layer self times as one JSON file.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                serde_json::json!({
                    "id": id as u64,
                    "name": s.name.as_str(),
                    "layer": s.layer,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as u64),
                })
            })
            .collect();
        let self_ms: Vec<(String, Value)> = self
            .self_time_ms()
            .into_iter()
            .map(|(layer, ms)| (layer.to_string(), Value::F64(ms)))
            .collect();
        let doc = serde_json::json!({
            "workload": workload,
            "seed": seed,
            "self_time_ms": Value::Object(self_ms),
            "spans": spans,
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            serde_json::to_string(&doc).expect("trace renders") + "\n",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("workload", "w");
        let inner = t.begin("world", "x");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let st = t.self_time_ms();
        assert!(st["world"] >= 5.0);
        assert!(st["workload"] < st["world"]);
        assert_eq!(t.spans[inner.unwrap()].parent, outer);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("workload", "w");
        t.end(id);
        t.record("serve", "h", Instant::now(), Instant::now(), id);
        assert!(id.is_none() && t.spans.is_empty());
    }
}
