//! The serve wall-clock sidecar: where measured time lives so it can
//! never touch the gated report bytes.
//!
//! Same fence as the explorer's sweep sidecar: every metric in a
//! [`ServeReport`](crate::ServeReport) is *modeled* and the serve gate
//! compares report bytes exactly, so wall-clock measurements serialize
//! into their own sidecar JSON written to a *different file* (`repro
//! serve --timings <path>`), under their own schema, and are never an
//! input to `--check`.

use crescent_explorer::json::{close_document, open_document, push_array, push_field};
use crescent_explorer::timings::point_lines;
use crescent_explorer::Json;

use crate::report::serve_fingerprint;
use crate::spec::ServeSpec;

/// Schema identifier embedded in every serve timings sidecar.
/// Versioned separately from the report schema: sidecar layout changes
/// never imply report drift, and vice versa.
pub const TIMINGS_SCHEMA: &str = "crescent-serve-timings/v1";

/// Wall-clock measurements of one serve run, captured with
/// [`std::time::Instant`] around the phases of
/// [`run_serve_timed`](crate::run_serve_timed).
///
/// Inherently **not** reproducible — two runs of the same spec produce
/// different numbers — which is exactly why this struct is returned
/// beside the report instead of inside it.
#[derive(Clone, Debug, Default)]
pub struct ServeTimings {
    /// Wall time of the whole run (context build + the worker-pool
    /// phase), in nanoseconds.
    pub total_nanos: u64,
    /// Cost of building the shared service context: map stream
    /// rendering, tree maintenance, and tenant query generation.
    pub context_nanos: u64,
    /// Per-grid-point simulation cost as `(row index, nanos)`, in row
    /// order of the produced report.
    pub points: Vec<(usize, u64)>,
}

impl ServeTimings {
    /// Total per-point simulation wall time, summed across workers —
    /// with an N-worker pool this exceeds the elapsed wall time of the
    /// pool phase by up to a factor of N.
    pub fn point_nanos(&self) -> u64 {
        self.points.iter().map(|&(_, n)| n).sum()
    }

    /// Renders the sidecar JSON: run identification (schema, spec
    /// label, fingerprint) followed by the measurements. For humans and
    /// dashboards, never for the exact comparator.
    pub fn to_json(&self, spec: &ServeSpec) -> String {
        let mut out = open_document(TIMINGS_SCHEMA, &spec.label, serve_fingerprint(spec));
        push_field(&mut out, "total_nanos", &Json::U64(self.total_nanos));
        push_field(&mut out, "context_nanos", &Json::U64(self.context_nanos));
        push_field(&mut out, "point_nanos", &Json::U64(self.point_nanos()));
        push_array(&mut out, "points", point_lines(&self.points));
        close_document(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeTimings {
        ServeTimings {
            total_nanos: 5_000,
            context_nanos: 1_500,
            points: vec![(0, 700), (2, 900), (4, 1_100)],
        }
    }

    #[test]
    fn totals_sum_their_sections() {
        assert_eq!(sample().point_nanos(), 2_700);
        assert_eq!(ServeTimings::default().point_nanos(), 0);
    }

    #[test]
    fn sidecar_identifies_its_run_and_carries_every_measurement() {
        let spec = ServeSpec::quick();
        let json = sample().to_json(&spec);
        assert!(json.starts_with("{\n"), "{json}");
        assert!(json.contains(&format!("\"schema\": \"{TIMINGS_SCHEMA}\"")), "{json}");
        assert!(json.contains("\"label\": \"quick\""), "{json}");
        assert!(
            json.contains(&format!("\"fingerprint\": \"{:016x}\"", serve_fingerprint(&spec))),
            "{json}"
        );
        assert!(json.contains("\"total_nanos\": 5000"), "{json}");
        assert!(json.contains("\"context_nanos\": 1500"), "{json}");
        assert!(json.contains("\"point_nanos\": 2700"), "{json}");
        assert!(json.contains(r#"{"row":4,"nanos":1100}"#), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn sidecar_schema_is_not_the_report_schema() {
        assert_ne!(TIMINGS_SCHEMA, crate::report::SCHEMA);
    }
}
