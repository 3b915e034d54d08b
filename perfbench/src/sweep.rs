//! `sweep_grid`: the design-space sweep, one scenario's 64-point slice
//! per op.
//!
//! The grid crosses the axes that feed the tree search (maintenance,
//! banks, `h_t`, `h_e`) with two that do not (DRAM bandwidth and
//! aggregation elision), so four points share every search read-set —
//! the redundancy a read-set-keyed sweep would remove, and which a grid
//! without those two axes could not show.

use std::collections::{HashMap, HashSet};

use crescent::workload::{Frame, FrameStream, StreamScenario};
use crescent_accel::{
    maintain_tree_sequence, run_crescent_search, run_frame_stream_on_trees, CrescentKnobs,
    StreamSearchConfig, TreeMaintenance,
};
use crescent_explorer::{
    diff_reports, maintenance_label, run_sweep, run_sweep_with_stats, SweepReport, SweepRow,
    SweepSpec,
};
use crescent_kdtree::KdTree;
use crescent_pointcloud::{Neighbor, OracleIndex, Point3, PointCloud};

use crate::trace::Tracer;
use crate::{derive_seed, Metric, Workload};

const BASELINE: &str = include_str!("../../bench/baseline.json");

/// The sweep workload: one grid slice per canonical scenario.
pub struct Sweep {
    slices: Vec<SweepSpec>,
    /// Per slice: the report of its first op, which every later op of
    /// the slice must reproduce byte for byte.
    reference: Vec<Option<(SweepReport, String)>>,
    /// Per slice: the replay's modeled totals, recorded on its first
    /// traced op.
    modeled: Vec<Option<Modeled>>,
    /// Rows whose digest, recall or neighbor count the replay computed
    /// differently from the sweep runner (see [`Sweep::traced_op`]).
    result_disagreements: usize,
}

/// The benchmark grid around `SweepSpec::quick()`'s stream workload,
/// cut into one slice per canonical scenario.
///
/// Seed 0 keeps the canonical scene in every slice. Any other seed gives
/// each slice a scene of its own, so a run's work averages ten
/// independent scenes instead of moving with one scene's layout (the
/// quick scene has only 14 objects, and its layout alone moves a
/// scenario's search work by several percent).
fn slices(seed: u64) -> Vec<SweepSpec> {
    let spec = grid();
    StreamScenario::canonical_matrix()
        .iter()
        .zip(0..)
        .map(|(&scenario, i)| {
            let mut slice = SweepSpec { scenarios: vec![scenario], ..spec.clone() };
            if seed != 0 {
                slice.workload.scene.seed = derive_seed(spec.workload.scene.seed, 16 * seed + i);
            }
            slice
        })
        .collect()
}

fn grid() -> SweepSpec {
    let mut spec = SweepSpec::quick();
    spec.label = "perfbench".to_string();
    spec.num_pes = vec![8];
    spec.tree_kb = vec![6];
    spec.tree_banks = vec![2, 4];
    spec.dram_bytes_per_cycle = vec![10.24, 20.48];
    spec.aggregation_elision = vec![false, true];
    spec.top_heights = vec![2, 4];
    spec.elision_depths = vec![0, 4];
    spec
}

impl Workload for Sweep {
    const NAME: &'static str = "sweep_grid";
    type Output = (SweepReport, String);

    /// Builds the ten slices and validates them, then renders every
    /// scenario's frame stream once to check that the seed yields
    /// non-empty frames and queries (the op renders them again inside
    /// the runner, whose API takes a spec, not frames).
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Sweep, String> {
        let slices = slices(seed);
        for slice in &slices {
            slice.validate()?;
            let frames = tr.span("core.render", |_| render(slice));
            if frames.iter().any(|f| f.cloud.is_empty() || f.queries.is_empty()) {
                return Err(format!(
                    "seed {seed}: {} renders an empty frame",
                    slice.scenarios[0].label()
                ));
            }
        }
        let n = slices.len();
        Ok(Sweep {
            slices,
            reference: vec![None; n],
            modeled: vec![None; n],
            result_disagreements: 0,
        })
    }

    fn round(&self) -> usize {
        self.slices.len()
    }

    fn op(&self, i: usize) -> Self::Output {
        let (report, _) = run_sweep_with_stats(&self.slices[i], 1).expect("validated in set-up");
        let json = report.to_json();
        (report, json)
    }

    fn check(&mut self, i: usize, (report, json): Self::Output) -> Result<(), String> {
        let points = self.slices[i].num_points();
        if report.rows.len() != points {
            return Err(format!("slice {i}: {} rows for {points} points", report.rows.len()));
        }
        match &self.reference[i] {
            None => self.reference[i] = Some((report, json)),
            Some((_, first)) if *first != json => {
                return Err(format!("slice {i}: report bytes changed between ops"));
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn run_checks(&self) -> Result<(), String> {
        let quick = run_sweep(&SweepSpec::quick(), 1)?;
        match diff_reports(BASELINE, &quick.to_json()) {
            None => Ok(()),
            Some(diff) => Err(format!("quick sweep drifted from bench/baseline.json: {diff}")),
        }
    }

    /// Replays op `i` layer by layer and checks every modeled cycle and
    /// conflict column against the runner's report rows.
    ///
    /// The replay keys its `h_e = 0` result memo on the granted `h_t`
    /// as well as the tree sequence. The runner does not (its key drops
    /// `h_t` for rebuild sequences), so rebuild rows at `h_e = 0` with a
    /// second granted `h_t` may carry another height's digest, recall
    /// and neighbor count. Such rows are counted and reported, not
    /// failed.
    fn traced_op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let (rows, modeled) = tr.span("explorer.op", |tr| replay(&self.slices[i], tr));
        let (reference, _) = self.reference[i].as_ref().ok_or("traced op before its reference")?;
        if rows.len() != reference.rows.len() {
            return Err(format!(
                "slice {i}: replay made {} rows, runner {}",
                rows.len(),
                reference.rows.len()
            ));
        }
        let mut disagreements = 0;
        for (ours, theirs) in rows.iter().zip(&reference.rows) {
            if modeled_columns(ours) != modeled_columns(theirs) {
                return Err(format!(
                    "slice {i} row {}: replayed modeled columns {:?} != runner's {:?}",
                    ours.index,
                    modeled_columns(ours),
                    modeled_columns(theirs)
                ));
            }
            let results = |r: &SweepRow| (r.digest, r.recall.to_bits(), r.neighbors);
            disagreements += usize::from(results(ours) != results(theirs));
        }
        if self.modeled[i].is_none() {
            self.result_disagreements += disagreements;
            self.modeled[i] = Some(modeled);
        }
        Ok(())
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<Metric> {
        let agg = tr.aggregate(Self::NAME, false);
        let setup = tr.aggregate(Self::NAME, true);
        let per_op = |v: f64| v / self.slices.len() as f64;
        let total = self.modeled.iter().flatten().fold(Modeled::default(), |a, m| a.add(m));
        let queries_per_op = per_op(total.stream_queries as f64);
        let other_ms = agg.self_ms("explorer.op");
        vec![
            Metric::new("accel.stream_ms", agg.ms("accel.stream"), "ms"),
            Metric::new("accel.stream_calls", agg.calls("accel.stream"), "count"),
            Metric::new(
                "accel.stream_ns_per_query",
                agg.ms("accel.stream") * 1e6 / queries_per_op.max(1.0),
                "ns",
            ),
            Metric::new("accel.maintain_ms", agg.ms("accel.maintain"), "ms"),
            Metric::new("accel.maintain_calls", agg.calls("accel.maintain"), "count"),
            Metric::new("accel.engine_ms", agg.ms("accel.engine"), "ms"),
            Metric::new("accel.engine_calls", agg.calls("accel.engine"), "count"),
            Metric::new("core.render_ms", agg.ms("core.render"), "ms"),
            Metric::new("core.render_setup_ms", setup.ms("core.render"), "ms"),
            Metric::new("pointcloud.oracle_ms", agg.ms("pointcloud.oracle"), "ms"),
            Metric::new("pointcloud.oracle_queries", per_op(total.oracle_queries as f64), "count"),
            Metric::new("kdtree.build_ms", agg.ms("kdtree.build"), "ms"),
            Metric::new("explorer.report_ms", agg.ms("explorer.report"), "ms"),
            Metric::new("explorer.other_ms", other_ms, "ms"),
            Metric::new("explorer.points", per_op(total.points as f64), "count"),
            Metric::new("explorer.search_readsets", per_op(total.search_readsets as f64), "count"),
            Metric::new(
                "explorer.engine_pass_ratio",
                total.engine_passes as f64 / total.points.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "explorer.replay_result_disagreements",
                self.result_disagreements as f64,
                "count",
            ),
            Metric::new("sim.queries", total.stream_queries as f64, "count"),
            Metric::new("sim.pipelined_cycles", total.pipelined_cycles as f64, "cycles"),
            Metric::new("sim.bank_conflicts", total.bank_conflicts as f64, "count"),
            Metric::new(
                "sim.elided_ratio",
                total.elided_conflicts as f64 / total.bank_conflicts.max(1) as f64,
                "ratio",
            ),
            Metric::new("sim.dram_bytes", total.dram_bytes as f64, "B"),
        ]
    }
}

/// The columns of a row that are modeled hardware counts, independent
/// of result memoization: they must match the runner exactly.
fn modeled_columns(r: &SweepRow) -> [u64; 18] {
    [
        r.top_height_used as u64,
        r.queries as u64,
        r.pipelined_cycles,
        r.serial_cycles,
        r.build_cycles,
        r.dram_bytes,
        r.arb_rounds,
        r.bank_conflicts,
        r.conflict_stall_cycles,
        r.elided_conflicts,
        r.conflict_reuses,
        r.agg_cycles,
        r.agg_elided,
        r.full_rebuilds as u64,
        r.subtrees_rebuilt as u64,
        r.engine_cycles,
        r.engine_dram_bytes,
        r.nodes_visited as u64,
    ]
}

/// Modeled totals of one slice (summed over its points) plus the
/// replay's work counts.
#[derive(Clone, Copy, Debug, Default)]
struct Modeled {
    points: usize,
    search_readsets: usize,
    engine_passes: usize,
    oracle_queries: usize,
    stream_queries: usize,
    pipelined_cycles: u64,
    bank_conflicts: u64,
    elided_conflicts: u64,
    dram_bytes: u64,
}

impl Modeled {
    fn add(self, o: &Modeled) -> Modeled {
        Modeled {
            points: self.points + o.points,
            search_readsets: self.search_readsets + o.search_readsets,
            engine_passes: self.engine_passes + o.engine_passes,
            oracle_queries: self.oracle_queries + o.oracle_queries,
            stream_queries: self.stream_queries + o.stream_queries,
            pipelined_cycles: self.pipelined_cycles + o.pipelined_cycles,
            bank_conflicts: self.bank_conflicts + o.bank_conflicts,
            elided_conflicts: self.elided_conflicts + o.elided_conflicts,
            dram_bytes: self.dram_bytes + o.dram_bytes,
        }
    }
}

fn render(slice: &SweepSpec) -> Vec<Frame> {
    let mut wcfg = slice.workload;
    wcfg.scenario = slice.scenarios[0];
    FrameStream::new(&wcfg).collect()
}

/// The sweep runner's single-worker pass over one slice, rebuilt from
/// the layers' public functions with a span around each call: scenario
/// prologue (render, recall oracle, frame 0's tree), then per point the
/// memoized tree maintenance, the streaming pass, the memoized engine
/// cross-check, and finally the report render.
fn replay(slice: &SweepSpec, tr: &mut Tracer) -> (Vec<SweepRow>, Modeled) {
    let w = slice.workload;
    let frames = tr.span("core.render", |_| render(slice));
    let exact = tr.span("pointcloud.oracle", |_| exact_sets(&frames, w.radius, w.max_neighbors));
    let tree0 = tr.span("kdtree.build", |_| KdTree::build(&frames[0].cloud));
    let inputs: Vec<(&PointCloud, &[Point3])> =
        frames.iter().map(|f| (&f.cloud, f.queries.as_slice())).collect();
    let clouds: Vec<&PointCloud> = frames.iter().map(|f| &f.cloud).collect();

    // Memos keyed on what each pass reads: the tree sequence on policy
    // (and, for refit, the granted h_t); the h_e = 0 result columns on
    // the sequence plus the granted h_t; the engine pass on every axis
    // but maintenance and aggregation elision.
    let mut trees = HashMap::new();
    let mut results = HashMap::new();
    let mut engine = HashMap::new();
    let mut readsets = HashSet::new();
    let mut modeled =
        Modeled { oracle_queries: exact.iter().map(Vec::len).sum(), ..Modeled::default() };
    let mut rows = Vec::new();
    for point in slice.expand() {
        let mut config = point.config().expect("validated in set-up");
        let engine_elision_level = tree0.height().saturating_sub(point.elision_depth);
        if let Some(e) = config.search_elision.as_mut() {
            e.elision_height = engine_elision_level;
        }
        let h_t = match config.top_height_range(tree0.height()) {
            Some((lo, hi)) => point.top_height.clamp(lo, hi),
            None => point.top_height,
        };
        let knobs = CrescentKnobs { top_height: h_t, elision_height: engine_elision_level };
        let search = StreamSearchConfig {
            radius: w.radius,
            max_neighbors: w.max_neighbors,
            maintenance: point.maintenance,
            elision_depth: point.elision_depth,
            descendant_reuse: point.scenario.descendant_reuse(),
        };
        let tree_key = match point.maintenance {
            TreeMaintenance::RebuildEveryFrame => (false, 0, 0),
            TreeMaintenance::Refit { rebuild_threshold } => {
                (true, rebuild_threshold.to_bits(), h_t)
            }
        };
        let seq = trees.entry(tree_key).or_insert_with(|| {
            tr.span("accel.maintain", |_| maintain_tree_sequence(&clouds, point.maintenance, h_t))
        });
        readsets.insert((tree_key, h_t, point.num_pes, point.tree_banks, point.elision_depth));
        let (sets, report) = tr.span("accel.stream", |_| {
            run_frame_stream_on_trees(&inputs, seq, &search, knobs, &config)
        });

        let result_key = (tree_key.0, tree_key.1, h_t);
        let stats = |sets: &[Vec<Vec<Neighbor>>]| {
            (sets.iter().flatten().map(Vec::len).sum(), recall(sets, &exact), digest(sets))
        };
        let (neighbors, recall_v, digest_v) = if point.elision_depth == 0 {
            *results.entry(result_key).or_insert_with(|| stats(&sets))
        } else {
            stats(&sets)
        };

        let engine_key = (
            point.num_pes,
            point.tree_kb,
            point.tree_banks,
            point.dram_bytes_per_cycle.to_bits(),
            h_t,
            point.elision_depth,
        );
        let e = *engine.entry(engine_key).or_insert_with(|| {
            modeled.engine_passes += 1;
            let (hits, r) = tr.span("accel.engine", |_| {
                run_crescent_search(
                    &tree0,
                    h_t,
                    &frames[0].queries,
                    w.radius,
                    w.max_neighbors,
                    &config,
                )
            });
            let one = std::slice::from_ref(&hits);
            [
                r.cycles,
                r.dram_streaming_bytes,
                r.stats.nodes_visited as u64,
                r.stats.nodes_elided as u64,
                recall(one, &exact[..1]).to_bits(),
                digest(one),
            ]
        });

        modeled.stream_queries += report.total_queries();
        modeled.pipelined_cycles += report.pipelined_cycles;
        modeled.bank_conflicts += report.total_bank_conflicts();
        modeled.elided_conflicts += report.total_elided_conflicts();
        modeled.dram_bytes += report.total_dram_bytes();
        rows.push(SweepRow {
            index: point.index,
            scenario: point.scenario.label(),
            maintenance: maintenance_label(point.maintenance),
            num_pes: point.num_pes,
            tree_kb: point.tree_kb,
            tree_banks: point.tree_banks,
            dram_bytes_per_cycle: point.dram_bytes_per_cycle,
            aggregation_elision: point.aggregation_elision,
            top_height: point.top_height,
            elision_depth: point.elision_depth,
            descendant_reuse: point.scenario.descendant_reuse(),
            engine_elision_level,
            top_height_used: h_t,
            frames: frames.len(),
            queries: report.total_queries(),
            neighbors,
            pipelined_cycles: report.pipelined_cycles,
            serial_cycles: report.serial_cycles,
            build_cycles: report.total_build_cycles(),
            dram_bytes: report.total_dram_bytes(),
            mean_reuse: report.mean_reuse_fraction(),
            arb_rounds: report.total_arb_rounds(),
            bank_conflicts: report.total_bank_conflicts(),
            conflict_stall_cycles: report.total_conflict_stall_cycles(),
            elided_conflicts: report.total_elided_conflicts(),
            conflict_reuses: report.total_conflict_reuses(),
            agg_cycles: report.total_agg_cycles(),
            agg_elided: report.total_agg_elided(),
            full_rebuilds: report.frames.iter().filter(|f| f.full_rebuild).count(),
            subtrees_rebuilt: report.frames.iter().map(|f| f.subtrees_rebuilt).sum(),
            energy: *report.ledger.total(),
            recall: recall_v,
            digest: digest_v,
            engine_cycles: e[0],
            engine_dram_bytes: e[1],
            nodes_visited: e[2] as usize,
            nodes_elided: e[3] as usize,
            engine_recall: f64::from_bits(e[4]),
            engine_digest: e[5],
        });
    }
    modeled.points = rows.len();
    modeled.search_readsets = readsets.len();
    let report = SweepReport { spec: slice.clone(), shard: None, rows };
    std::hint::black_box(tr.span("explorer.report", |_| report.to_json()));
    (report.rows, modeled)
}

/// Exact neighbor-index sets per frame per query, through the
/// incremental grid oracle (built on frame 0, advanced frame to frame).
fn exact_sets(frames: &[Frame], radius: f32, max_neighbors: Option<usize>) -> Vec<Vec<Vec<usize>>> {
    let mut oracle: Option<OracleIndex> = None;
    let mut hits: Vec<Neighbor> = Vec::new();
    frames
        .iter()
        .map(|frame| {
            match oracle.as_mut() {
                None => oracle = Some(OracleIndex::build(&frame.cloud, radius)),
                Some(o) => {
                    o.advance(&frame.cloud);
                }
            }
            let oracle = oracle.as_ref().expect("oracle built on the first frame");
            frame
                .queries
                .iter()
                .map(|&q| {
                    oracle.radius_search_into(q, max_neighbors, &mut hits);
                    let mut idx: Vec<usize> = hits.iter().map(|n| n.index).collect();
                    idx.sort_unstable();
                    idx
                })
                .collect()
        })
        .collect()
}

/// Mean per-query recall over queries with a non-empty exact set (the
/// sweep report's `recall` column).
fn recall(approx: &[Vec<Vec<Neighbor>>], exact: &[Vec<Vec<usize>>]) -> f64 {
    let mut sum = 0.0;
    let mut counted = 0_usize;
    for (frame_approx, frame_exact) in approx.iter().zip(exact) {
        for (hits, truth) in frame_approx.iter().zip(frame_exact) {
            if truth.is_empty() {
                continue;
            }
            let found = hits.iter().filter(|n| truth.binary_search(&n.index).is_ok()).count();
            sum += found as f64 / truth.len() as f64;
            counted += 1;
        }
    }
    if counted == 0 {
        1.0
    } else {
        sum / counted as f64
    }
}

/// FNV-1a over every neighbor set (the sweep report's `digest` column).
fn digest(sets: &[Vec<Vec<Neighbor>>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(sets.len() as u64);
    for frame in sets {
        eat(frame.len() as u64);
        for hits in frame {
            eat(hits.len() as u64);
            for n in hits {
                eat(n.index as u64);
                eat(u64::from(n.dist2.to_bits()));
            }
        }
    }
    h
}
