//! `serve_grid`: the multi-tenant service, all 24 points of
//! `ServeSpec::quick()` per op on one shared context.
//!
//! Scheduler, controller, ledger and the tagged cross-tenant batch
//! search do the work here; the stream driver, the recall oracle and
//! `nn` do none.

use crescent_serve::{
    run_service, run_service_controlled, ControlMode, ServeReport, ServeRow, ServeSpec,
    ServiceContext,
};

use crate::trace::Tracer;
use crate::{derive_seed, Metric, Workload};

const BASELINE: &str = include_str!("../../bench/serve-baseline.json");

/// The serve workload.
pub struct Serve {
    spec: ServeSpec,
    ctx: ServiceContext,
    /// The bytes every op must render: `bench/serve-baseline.json` at
    /// the default seed, else the first op's.
    reference: Option<String>,
    /// Modeled totals of the first traced op.
    modeled: Option<Modeled>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Modeled {
    frames: usize,
    admitted: usize,
    rejected: usize,
    deadline_misses: usize,
    worst_p99: u64,
    amortization: f64,
}

/// `ServeSpec::quick()` with both scene seeds derived from `seed`.
pub fn spec(seed: u64) -> ServeSpec {
    let mut spec = ServeSpec::quick();
    spec.map.scene.seed = derive_seed(spec.map.scene.seed, seed);
    spec.tenant_base.scene.seed = derive_seed(spec.tenant_base.scene.seed, seed);
    spec
}

impl Serve {
    /// Runs every grid point on the shared context and renders the
    /// report, with a span around each service run and the rendering.
    fn grid(&self, tr: &mut Tracer) -> (String, Modeled) {
        let mut modeled = Modeled::default();
        let mut rows = Vec::new();
        for point in self.spec.expand() {
            let outcome = match point.controller {
                ControlMode::Static => tr.span("serve.static", |_| {
                    run_service(&self.ctx, point.tenants, point.fleet, point.elision_depth)
                }),
                ControlMode::Slo => tr.span("serve.slo", |_| {
                    run_service_controlled(
                        &self.ctx,
                        point.tenants,
                        point.fleet,
                        point.elision_depth,
                        &self.spec.controller,
                    )
                }),
            };
            let row = tr.span("serve.report", |_| ServeRow::from_ledger(point, &outcome.ledger));
            modeled.frames += point.tenants * self.ctx.ticks();
            modeled.admitted += row.admitted;
            modeled.rejected += row.rejected;
            modeled.deadline_misses += row.deadline_misses;
            modeled.worst_p99 = modeled.worst_p99.max(row.p99);
            modeled.amortization += row.amortization;
            rows.push(row);
        }
        modeled.amortization /= rows.len().max(1) as f64;
        let report = ServeReport { spec: self.spec.clone(), rows };
        (tr.span("serve.report", |_| report.to_json()), modeled)
    }

    fn check_bytes(&mut self, json: String) -> Result<(), String> {
        match &self.reference {
            None => self.reference = Some(json),
            Some(reference) if *reference != json => {
                return Err(format!(
                    "serve report bytes differ from the reference ({} vs {} bytes)",
                    json.len(),
                    reference.len()
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve_grid";
    type Output = String;

    /// Builds the shared context: the map render plus two
    /// `maintain_tree_sequence` passes (the spec's refit policy and the
    /// alternate rebuild bill), the tenant mix and its queries.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Serve, String> {
        let spec = spec(seed);
        spec.validate()?;
        let ctx = tr.span("serve.context", |_| ServiceContext::build(&spec));
        let reference = (seed == 0).then(|| BASELINE.to_string());
        Ok(Serve { spec, ctx, reference, modeled: None })
    }

    fn round(&self) -> usize {
        1
    }

    fn op(&self, _: usize) -> String {
        self.grid(&mut Tracer::off()).0
    }

    fn check(&mut self, _: usize, json: String) -> Result<(), String> {
        self.check_bytes(json)
    }

    fn traced_op(&mut self, _: usize, tr: &mut Tracer) -> Result<(), String> {
        let (json, modeled) = tr.span("serve.op", |tr| self.grid(tr));
        self.modeled.get_or_insert(modeled);
        self.check_bytes(json)
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<Metric> {
        let agg = tr.aggregate(Self::NAME, false);
        let setup = tr.aggregate(Self::NAME, true);
        let m = self.modeled.unwrap_or_default();
        let service_ms = agg.ms("serve.static") + agg.ms("serve.slo");
        let calls = agg.calls("serve.static") + agg.calls("serve.slo");
        vec![
            Metric::new("serve.context_ms", setup.ms("serve.context"), "ms"),
            Metric::new("serve.static_ms", agg.ms("serve.static"), "ms"),
            Metric::new("serve.slo_ms", agg.ms("serve.slo"), "ms"),
            Metric::new("serve.service_calls", calls, "count"),
            Metric::new("serve.ns_per_frame", service_ms * 1e6 / m.frames.max(1) as f64, "ns"),
            Metric::new("serve.report_ms", agg.ms("serve.report"), "ms"),
            Metric::new("sim.admitted", m.admitted as f64, "count"),
            Metric::new("sim.rejected", m.rejected as f64, "count"),
            Metric::new("sim.deadline_misses", m.deadline_misses as f64, "count"),
            Metric::new("sim.latency_p99_cycles", m.worst_p99 as f64, "cycles"),
            Metric::new("sim.amortization", m.amortization, "ratio"),
        ]
    }
}
