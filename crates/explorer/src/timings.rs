//! The wall-clock sidecar: where measured time lives so it can never
//! touch the gated report bytes.
//!
//! Every metric in a [`SweepReport`](crate::SweepReport) is *modeled* —
//! the CI gate compares reports byte-for-byte, so a single wall-clock
//! nanosecond in the report would make every run unique and the gate
//! useless. But the sweep's wall-clock cost is still worth measuring
//! (it is what the SoA/arena/oracle fast paths optimize), so measured
//! time gets its own channel with three structural guarantees:
//!
//! 1. **Separate bytes.** Timings serialize into their own sidecar JSON
//!    ([`SweepTimings::to_json`], schema [`TIMINGS_SCHEMA`]) written to
//!    a *different file* (`repro sweep --timings <path>`). The report
//!    renderer cannot emit them: [`SweepRow`](crate::SweepRow) and the
//!    header have no timing fields at all.
//! 2. **Never diffed.** [`diff_reports`](crate::diff_reports) only ever
//!    sees report bytes; the sidecar is not an input to `--check`.
//! 3. **Rejected on re-entry.** [`merge_shards`](crate::merge_shards)
//!    refuses any shard file containing a top-level `"timings"` section,
//!    so a future writer that inlined timings into a shard report would
//!    fail the merge loudly instead of laundering wall-clock into the
//!    gated merged bytes.
//!
//! The sidecar echoes the spec label, fingerprint, and shard coordinates
//! of the run that produced it, so a stray sidecar can always be matched
//! to (or rejected against) its report.

use crate::json::{close_document, open_document, push_array, push_field, Json};
use crate::report::{shard_json, spec_fingerprint, ShardInfo};
use crate::spec::SweepSpec;

/// Schema identifier embedded in every timings sidecar. Versioned
/// separately from the report schema: sidecar layout changes never
/// imply report drift, and vice versa.
pub const TIMINGS_SCHEMA: &str = "crescent-sweep-timings/v1";

/// Wall-clock measurements of one sweep (or shard) run, captured with
/// [`std::time::Instant`] around the phases of
/// [`run_sweep_timed`](crate::run_sweep_timed).
///
/// Inherently **not** reproducible — two runs of the same spec produce
/// different numbers — which is exactly why this struct is returned
/// beside the report instead of inside it.
#[derive(Clone, Debug, Default)]
pub struct SweepTimings {
    /// Wall time of the whole run (scenario setup + the worker-pool
    /// phase), in nanoseconds.
    pub total_nanos: u64,
    /// Per-scenario setup cost, in scenario order: rendering the frame
    /// stream, solving the recall oracle, and building frame 0's tree.
    /// Only scenarios the run actually visited appear (a shard skips
    /// the setup of scenarios it never simulates).
    pub setup: Vec<(String, u64)>,
    /// Per-grid-point simulation cost as `(global row index, nanos)`,
    /// in row order of the produced report.
    pub points: Vec<(usize, u64)>,
}

impl SweepTimings {
    /// Total scenario-setup wall time (the serial prologue).
    pub fn setup_nanos(&self) -> u64 {
        self.setup.iter().map(|&(_, n)| n).sum()
    }

    /// Total per-point simulation wall time, summed across workers —
    /// with an N-worker pool this exceeds the elapsed wall time of the
    /// pool phase by up to a factor of N.
    pub fn point_nanos(&self) -> u64 {
        self.points.iter().map(|&(_, n)| n).sum()
    }

    /// Renders the sidecar JSON: run identification (schema, spec label,
    /// fingerprint, shard coordinates) followed by the measurements.
    ///
    /// One line per section, like the report — but these bytes are for
    /// humans and dashboards, never for the exact comparator.
    pub fn to_json(&self, spec: &SweepSpec, shard: Option<ShardInfo>) -> String {
        let mut out = open_document(TIMINGS_SCHEMA, &spec.label, spec_fingerprint(spec));
        push_field(&mut out, "shard", &shard_json(shard, self.points.len(), spec.num_points()));
        push_field(&mut out, "total_nanos", &Json::U64(self.total_nanos));
        push_field(&mut out, "setup_nanos", &Json::U64(self.setup_nanos()));
        push_field(&mut out, "point_nanos", &Json::U64(self.point_nanos()));
        let setup = self.setup.iter().map(|(scenario, nanos)| {
            Json::Object(vec![
                ("scenario", Json::from(scenario.as_str())),
                ("nanos", Json::U64(*nanos)),
            ])
            .to_compact()
        });
        push_array(&mut out, "setup", setup);
        push_array(&mut out, "points", point_lines(&self.points));
        close_document(&mut out);
        out
    }
}

/// The `points` section of a timings sidecar: one compact
/// `{"row":..,"nanos":..}` object per grid point. Shared with the serve
/// layer's sidecar, whose per-point section has the same layout.
pub fn point_lines(points: &[(usize, u64)]) -> impl Iterator<Item = String> + '_ {
    points.iter().map(|&(row, nanos)| {
        Json::Object(vec![("row", Json::U64(row as u64)), ("nanos", Json::U64(nanos))]).to_compact()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepTimings {
        SweepTimings {
            total_nanos: 5_000,
            setup: vec![("sweep".to_string(), 1_200), ("registered".to_string(), 800)],
            points: vec![(0, 700), (2, 900), (4, 1_100)],
        }
    }

    #[test]
    fn totals_sum_their_sections() {
        let t = sample();
        assert_eq!(t.setup_nanos(), 2_000);
        assert_eq!(t.point_nanos(), 2_700);
        assert_eq!(SweepTimings::default().setup_nanos(), 0);
        assert_eq!(SweepTimings::default().point_nanos(), 0);
    }

    #[test]
    fn sidecar_identifies_its_run_and_carries_every_measurement() {
        let spec = SweepSpec::quick();
        let json = sample().to_json(&spec, Some(ShardInfo { index: 2, count: 3 }));
        assert!(json.starts_with("{\n"), "{json}");
        assert!(json.contains(&format!("\"schema\": \"{TIMINGS_SCHEMA}\"")), "{json}");
        assert!(json.contains("\"label\": \"quick\""), "{json}");
        assert!(
            json.contains(&format!("\"fingerprint\": \"{:016x}\"", spec_fingerprint(&spec))),
            "{json}"
        );
        assert!(json.contains("\"index\":2,\"count\":3"), "{json}");
        assert!(json.contains("\"total_nanos\": 5000"), "{json}");
        assert!(json.contains("\"setup_nanos\": 2000"), "{json}");
        assert!(json.contains("\"point_nanos\": 2700"), "{json}");
        assert!(json.contains(r#"{"scenario":"sweep","nanos":1200}"#), "{json}");
        assert!(json.contains(r#"{"row":4,"nanos":1100}"#), "{json}");
        // whole-grid runs carry a null shard slot, like the report
        let whole = sample().to_json(&spec, None);
        assert!(whole.contains("\"shard\": null,"), "{whole}");
    }

    #[test]
    fn sidecar_schema_is_not_the_report_schema() {
        // the merge rejects report files that inline timings; the
        // reverse confusion (feeding a sidecar to the merge) must also
        // fail, which it does because the schema line differs
        assert_ne!(TIMINGS_SCHEMA, crate::report::SCHEMA);
    }
}
