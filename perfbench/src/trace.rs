//! The traced run's span recorder.
//!
//! Spans (name, start, end, parent, op id) are recorded by the
//! benchmark's own replays around each call into a layer, kept in
//! memory, and written once at exit as Chrome Trace Event JSON
//! (viewable offline in Perfetto or `chrome://tracing`). Nothing here
//! reaches the program's report bytes.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `accel.stream`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The traced op (or set-up) the span belongs to.
    pub op: usize,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A traced op or set-up: which workload it belongs to and the
/// calibration factor its bracketing reference passes measured.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Workload name.
    pub workload: &'static str,
    /// `true` for a set-up, `false` for an op.
    pub setup: bool,
    /// Calibration factor applied to every span of the op.
    pub factor: f64,
}

/// Records spans when on; a recorder that is off runs the closures and
/// records nothing, so one code path serves traced and untraced runs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: Vec<OpRecord>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { on: false, ..Tracer::on() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let op = self.ops.len().saturating_sub(1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Opens a new traced op (or set-up) of `workload`: spans recorded
    /// from now on belong to it. Returns its id for [`Tracer::close_op`].
    pub fn open_op(&mut self, workload: &'static str, setup: bool) -> usize {
        self.ops.push(OpRecord { workload, setup, factor: 1.0 });
        self.ops.len() - 1
    }

    /// Records the calibration factor measured around op `id`.
    pub fn close_op(&mut self, id: usize, factor: f64) {
        self.ops[id].factor = factor;
    }

    /// Per-layer aggregates over every op (`setup == false`) or set-up
    /// (`setup == true`) of `workload`.
    pub fn aggregate(&self, workload: &str, setup: bool) -> LayerAgg {
        let selected: Vec<bool> =
            self.ops.iter().map(|o| o.workload == workload && o.setup == setup).collect();
        let mut child_ns = vec![0_u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        let mut root_ms = 0.0;
        for (i, span) in self.spans.iter().enumerate() {
            if !selected[span.op] {
                continue;
            }
            let factor = self.ops[span.op].factor;
            let total_ms = span.dur_ns() as f64 * 1e-6 * factor;
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ms += total_ms;
            layer.self_ms += (span.dur_ns() - child_ns[i]) as f64 * 1e-6 * factor;
            if span.parent.is_none() {
                root_ms += total_ms;
            }
        }
        LayerAgg { ops: selected.iter().filter(|&&s| s).count(), root_ms, layers }
    }

    /// The recorded spans as Chrome Trace Event JSON: one complete
    /// (`"ph": "X"`) event per span, timestamps in µs.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let op = &self.ops[span.op];
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \
                 \"setup\": {}, \"factor\": {}}}}}{}\n",
                span.name,
                op.workload,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.op,
                op.setup,
                op.factor,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Calls, total and self time of one span name, summed over ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: usize,
    /// Calibrated ms inside the spans.
    pub total_ms: f64,
    /// Calibrated ms inside the spans but outside their child spans.
    pub self_ms: f64,
}

/// Per-layer aggregates of a workload's traced ops (or set-ups).
#[derive(Clone, Debug, Default)]
pub struct LayerAgg {
    /// Traced ops aggregated.
    pub ops: usize,
    /// Calibrated ms inside root spans (the ops themselves).
    pub root_ms: f64,
    /// Per span name.
    pub layers: BTreeMap<&'static str, Layer>,
}

impl LayerAgg {
    fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    fn per_op(&self, v: f64) -> f64 {
        v / self.ops.max(1) as f64
    }

    /// Calibrated ms per op inside spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.per_op(self.layer(name).total_ms)
    }

    /// Calibrated ms per op inside spans named `name` but outside their
    /// children.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.per_op(self.layer(name).self_ms)
    }

    /// Spans named `name` per op.
    pub fn calls(&self, name: &str) -> f64 {
        self.per_op(self.layer(name).calls as f64)
    }

    /// The human-readable table: calls, total and self ms per op, and
    /// each layer's share of op time.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("# {title}: {} traced op(s)\n", self.ops);
        out.push_str(&format!(
            "#   {:<28} {:>10} {:>12} {:>12} {:>8}\n",
            "span", "calls/op", "total ms/op", "self ms/op", "share"
        ));
        for (name, layer) in &self.layers {
            out.push_str(&format!(
                "#   {:<28} {:>10.2} {:>12.4} {:>12.4} {:>7.1}%\n",
                name,
                self.per_op(layer.calls as f64),
                self.per_op(layer.total_ms),
                self.per_op(layer.self_ms),
                100.0 * layer.total_ms / self.root_ms.max(f64::MIN_POSITIVE),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_are_separated() {
        let mut tr = Tracer::on();
        let op = tr.open_op("w", false);
        tr.span("w.op", |tr| {
            tr.span("layer.a", |tr| tr.span("layer.b", |_| std::hint::black_box(1)));
            tr.span("layer.a", |_| ());
        });
        tr.close_op(op, 2.0);
        let other = tr.open_op("v", false);
        tr.span("v.op", |_| ());
        tr.close_op(other, 1.0);

        let agg = tr.aggregate("w", false);
        assert_eq!(agg.ops, 1);
        assert_eq!(agg.calls("layer.a"), 2.0);
        assert_eq!(agg.calls("layer.b"), 1.0);
        assert_eq!(agg.calls("v.op"), 0.0, "other workloads' spans are not counted");
        assert!(agg.self_ms("layer.a") <= agg.ms("layer.a"));
        assert!(agg.ms("w.op") >= agg.ms("layer.a"));
        assert!((agg.root_ms - agg.ms("w.op")).abs() < 1e-12);

        let json = tr.chrome_json();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 5);
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", |_| 41) + 1, 42);
        assert!(tr.spans.is_empty());
    }
}
