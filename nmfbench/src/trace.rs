//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written once, at the end, as Chrome trace-event
//! JSON (open the file in Perfetto or `chrome://tracing`).
//!
//! A disabled tracer records nothing: the untraced runs that produce
//! the end-to-end metrics pay one branch per call site.

use crate::host::json_str;
use std::time::Instant;

/// A span's identity: the recording thread's lane in the high bits, a
/// per-lane counter in the low bits, so lanes never collide.
pub type SpanId = u64;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Episode, job or probe the span belongs to.
    pub run: u64,
    pub lane: u32,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    lane: u32,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            lane: 0,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread: same epoch and switch, own lane.
    pub fn lane(&self, lane: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A tracer that shares this one's epoch but is switched on or off.
    pub fn with_enabled(&self, enabled: bool) -> Tracer {
        let mut t = self.lane(self.lane);
        t.enabled = enabled;
        t
    }

    /// Opens a span; close it with [`end`](Self::end). Returns `None`
    /// (and records nothing) when tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = (u64::from(self.lane) << 40) | self.next;
        self.next += 1;
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name,
            run,
            lane: self.lane,
            start_us: now,
            end_us: f64::NAN,
        });
        Some(id)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_us();
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_us = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, run);
        let r = f();
        self.end(id);
        r
    }

    /// Takes over another lane's spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, with the parent and run ids in `args`, and `metadata`
    /// carried in `otherData`.
    pub fn to_chrome_json(&self, metadata: &str) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 256);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"otherData\": ");
        out.push_str(metadata);
        out.push_str(", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let end = if s.end_us.is_finite() {
                s.end_us
            } else {
                s.start_us
            };
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"run\": {}}}}}{}\n",
                json_str(s.name),
                s.lane,
                s.start_us,
                end - s.start_us,
                s.id,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.run,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", None, 3);
        t.span("inner", outer, 3, || ());
        t.end(outer);
        let mut other = t.lane(2);
        other.span("elsewhere", None, 4, || ());
        t.absorb(other);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, outer);
        assert_ne!(t.spans()[2].id, t.spans()[0].id);
        assert!(t.spans().iter().all(|s| s.end_us >= s.start_us));
        let json = t.to_chrome_json("{}");
        assert!(json.contains("\"traceEvents\"") && json.contains("\"parent\": null"));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
    }
}
