//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a library layer in
//! [`Tracer::span`]. A disabled tracer only runs the closure, so the
//! untraced runs that produce the end-to-end metrics execute the same code
//! minus the clock reads and pushes. Spans stay in memory until the run ends;
//! [`self_time_by_layer`] then charges each span's duration, minus the part
//! its direct children cover, to the layer named by its prefix (the text
//! before the first `.`).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `index.search`.
    pub name: &'static str,
    /// Query, batch or build number the span belongs to.
    pub id: u64,
    /// Recording thread (0 = the main thread).
    pub thread: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    thread: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every [`Tracer::span`] a plain call.
    pub fn new(enabled: bool, thread: u32, epoch: Instant) -> Self {
        Tracer {
            enabled,
            thread,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost span
    /// still open on this tracer.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            thread: self.thread,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
/// `spans` must come from one tracer (parents index into the same slice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Layer name of a span: the text before its first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Summed self time per layer, in milliseconds, over several tracers'
/// span lists.
pub fn self_time_by_layer(per_thread: &[Vec<Span>]) -> BTreeMap<String, f64> {
    let mut ns: BTreeMap<String, u64> = BTreeMap::new();
    for spans in per_thread {
        for (span, own) in spans.iter().zip(self_times_ns(spans)) {
            *ns.entry(layer_of(span.name).to_string()).or_insert(0) += own;
        }
    }
    ns.into_iter().map(|(k, v)| (k, v as f64 / 1e6)).collect()
}

/// Durations, in microseconds, of every span named `name`.
pub fn durations_us(per_thread: &[Vec<Span>], name: &str) -> Vec<f64> {
    per_thread
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Spans as JSON lines (`name`, `id`, `thread`, `start_ns`, `end_ns`,
/// `parent` as a per-thread span index or `null`).
pub fn to_json_lines(per_thread: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for spans in per_thread {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"id\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
                s.name, s.id, s.thread, s.start_ns, s.end_ns, parent
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            thread: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        const MS: u64 = 1_000_000;
        // bench.query [0, 100) ms
        //   gbkmv.sketch_query [10, 20)
        //   index.search [20, 90)
        //     index.inner [30, 50)
        let spans = vec![
            span("bench.query", 0, 100 * MS, None),
            span("gbkmv.sketch_query", 10 * MS, 20 * MS, Some(0)),
            span("index.search", 20 * MS, 90 * MS, Some(0)),
            span("index.inner", 30 * MS, 50 * MS, Some(2)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![20 * MS, 10 * MS, 50 * MS, 20 * MS]
        );
        let by_layer = self_time_by_layer(&[spans]);
        assert_eq!(by_layer["bench"], 20.0);
        assert_eq!(by_layer["gbkmv"], 10.0);
        assert_eq!(by_layer["index"], 70.0);
        // Self times partition the root span's duration.
        assert_eq!(by_layer.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, 3, epoch);
        let v = t.span("bench.query", 7, |t| {
            t.span("index.search", 7, |_| 1) + t.span("mem.usage", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.thread == 3 && s.id == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_times_ns(&spans);
        assert_eq!(
            own[0] + own[1] + own[2],
            spans[0].duration_ns(),
            "self times partition the root"
        );

        let mut off = Tracer::new(false, 0, epoch);
        assert_eq!(off.span("index.search", 0, |_| 5), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn json_lines_name_every_field() {
        let lines = to_json_lines(&[vec![span("index.search", 5, 9, None)]]);
        assert_eq!(
            lines,
            "{\"name\":\"index.search\",\"id\":0,\"thread\":0,\"start_ns\":5,\"end_ns\":9,\"parent\":null}\n"
        );
        assert_eq!(layer_of("persist.checkpoint_delta"), "persist");
        assert_eq!(
            durations_us(&[vec![span("a.b", 0, 2000, None)]], "a.b"),
            vec![2.0]
        );
    }
}
