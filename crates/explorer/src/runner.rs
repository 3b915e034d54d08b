//! The parallel sweep executor: expands a [`SweepSpec`], renders and
//! brute-force-solves each scenario's frame stream once, then fans the
//! grid points out over the shared worker pool ([`run_pool`]).
//!
//! Since the streaming wavefront learned the unified banked-arbitration
//! model, ONE `h_e`-sensitive streaming pass per point carries every
//! axis — maintenance, `h_t`, `h_e`, PE count, tree banks, aggregation
//! elision, cache geometry, DRAM bandwidth. The standalone engine pass
//! survives only as a *cross-check column*: the same `h = <h_t, h_e>`
//! point evaluated on frame 0 by the per-query lock-step model, so a
//! divergence between the two implementations of the same hardware
//! shows up as baseline drift instead of going unnoticed.
//!
//! # Determinism
//!
//! The report is a pure function of the spec, whatever the worker count:
//! every grid point is simulated independently (single-threaded, seeded,
//! entirely modeled — no wall-clock anywhere), and the pool hands the
//! rows back in grid order whatever order the workers finished them in.
//! Two runs — or a 1-worker and an N-worker run — therefore serialize
//! to byte-identical JSON, which is what lets the CI gate compare
//! reports with an exact comparator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crescent::workload::{Frame, FrameStream};
use crescent_accel::{
    maintain_tree_sequence, run_crescent_search, run_frame_stream_on_trees, CrescentKnobs,
    MaintainedTree, StreamSearchConfig, TreeMaintenance,
};
use crescent_kdtree::KdTree;
use crescent_pointcloud::{Neighbor, OracleIndex, Point3, PointCloud};

use crate::fnv::Fnv1a;
use crate::pool::run_pool;
use crate::report::{ShardInfo, SweepReport, SweepRow};
use crate::spec::{maintenance_label, SweepPoint, SweepSpec};
use crate::timings::SweepTimings;

/// Exact neighbor-index sets (sorted) per frame per query — the recall
/// oracle, computed once per scenario by brute force.
type ExactSets = Vec<Vec<Vec<usize>>>;

/// Everything about a scenario that no architecture knob can change,
/// rendered/solved once and shared read-only by every grid point of the
/// scenario: the frames, the brute-force recall oracle, and frame 0's
/// K-d tree (the standalone-engine workload).
struct ScenarioCache {
    frames: Vec<Frame>,
    exact: ExactSets,
    tree0: KdTree,
}

/// Memo key for the standalone engine cross-check pass: every axis
/// EXCEPT the maintenance policy (which cannot influence a single-tree
/// search) and aggregation elision (the engine pass has no aggregation
/// stage). The DRAM bandwidth is keyed by its bit pattern — only
/// identity matters.
///
/// The `h_t` component is the **granted** `top_height_used`, not the
/// requested `point.top_height`: the pass is computed with the granted
/// height, so two grid points whose requested heights clamp to the same
/// grant run byte-identical passes and must share one memo entry.
/// (Keying on the request used to silently re-run those passes.)
type EngineKey = (usize, usize, usize, usize, u64, usize, usize);

/// Memo key for a scenario's maintained-tree sequence: the only knobs
/// [`maintain_tree_sequence`] reads are the maintenance policy (variant
/// plus rebuild threshold, keyed by its bit pattern — only identity
/// matters) and, for refit, the granted `h_t` (the refit validator's
/// `check_height`). Rebuild sequences are height-independent, so they
/// key `h_t` as 0 and every grant shares one entry. All remaining axes
/// — PE count, banking, elision, DRAM bandwidth, aggregation — cannot
/// touch maintenance, which is exactly why the quick grid's 16 points
/// per scenario collapse onto 2 tree sequences.
///
/// The key names what maintenance reads, not what a search over the
/// trees reads: two-stage search results also depend on the granted
/// `h_t`, so nothing derived from a point's neighbor sets may be keyed
/// on it.
type TreeKey = (usize, bool, u64, usize);

fn tree_key(scenario_idx: usize, maintenance: TreeMaintenance, granted_h_t: usize) -> TreeKey {
    match maintenance {
        TreeMaintenance::RebuildEveryFrame => (scenario_idx, false, 0, 0),
        TreeMaintenance::Refit { rebuild_threshold } => {
            (scenario_idx, true, rebuild_threshold.to_bits(), granted_h_t)
        }
    }
}

/// The engine pass's contribution to a row, shared by the sibling rows
/// that differ only in maintenance policy.
#[derive(Clone, Copy)]
struct EnginePass {
    cycles: u64,
    dram_bytes: u64,
    nodes_visited: usize,
    nodes_elided: usize,
    recall: f64,
    digest: u64,
}

/// Execution statistics of one sweep (or shard) run — operational
/// facts about the run itself, deliberately kept OUT of the report
/// bytes (the report is a pure function of the spec; these are not).
#[derive(Clone, Copy, Debug)]
pub struct SweepRunStats {
    /// Grid points actually simulated (the whole grid, or the shard's
    /// round-robin subset).
    pub points: usize,
    /// The **effective** worker count: the requested pool clamped to
    /// the point count — what the CLI reports, so "8 workers" is never
    /// printed for a 4-point run.
    pub workers: usize,
    /// Standalone engine cross-check passes actually executed (memo
    /// misses). With the memo keyed on the granted `h_t`, sibling grid
    /// points whose requested heights clamp to the same grant share one
    /// pass — the regression this counter pins down.
    pub engine_passes: usize,
    /// Total **wall-clock** nanoseconds spent in the serial scenario
    /// prologue (frame rendering + recall oracle + frame 0's tree). A
    /// measured quantity — it lives here and in the `--timings` sidecar
    /// precisely because it can never live in the report bytes.
    pub setup_nanos: u64,
    /// Total **wall-clock** nanoseconds spent simulating grid points,
    /// summed across workers (so up to `workers`× the elapsed time of
    /// the pool phase). Measured, never part of the report.
    pub point_nanos: u64,
}

/// Runs the full sweep on `workers` OS threads and returns the report.
///
/// Fails (with a message naming the offending axis or grid point) if the
/// spec does not validate; never panics on a validated spec.
pub fn run_sweep(spec: &SweepSpec, workers: usize) -> Result<SweepReport, String> {
    run_sweep_with_stats(spec, workers).map(|(report, _)| report)
}

/// [`run_sweep`], also returning the run's execution statistics.
pub fn run_sweep_with_stats(
    spec: &SweepSpec,
    workers: usize,
) -> Result<(SweepReport, SweepRunStats), String> {
    run_sweep_timed(spec, workers).map(|(report, stats, _)| (report, stats))
}

/// [`run_sweep_with_stats`], also returning the run's wall-clock
/// measurements ([`SweepTimings`]) — the `repro sweep --timings`
/// sidecar's data source. The report bytes are identical to the
/// untimed variants': timing is observed, never fed back.
pub fn run_sweep_timed(
    spec: &SweepSpec,
    workers: usize,
) -> Result<(SweepReport, SweepRunStats, SweepTimings), String> {
    spec.validate()?;
    let points = spec.expand();
    let (rows, stats, timings) = run_points(spec, &points, workers);
    Ok((SweepReport { spec: spec.clone(), shard: None, rows }, stats, timings))
}

/// Runs shard `index` of `count` (1-based): the round-robin point subset
/// of [`SweepSpec::shard_points`], producing a shard report whose rows
/// keep their global grid indices and are bit-identical to the same rows
/// of a whole-grid run — the property [`crate::merge_shards`] turns into
/// a byte-identical merged report.
pub fn run_sweep_shard(
    spec: &SweepSpec,
    index: usize,
    count: usize,
    workers: usize,
) -> Result<(SweepReport, SweepRunStats), String> {
    run_sweep_shard_timed(spec, index, count, workers).map(|(report, stats, _)| (report, stats))
}

/// [`run_sweep_shard`], also returning the shard run's wall-clock
/// measurements — row indices in the timings stay global, matching the
/// shard report's rows.
pub fn run_sweep_shard_timed(
    spec: &SweepSpec,
    index: usize,
    count: usize,
    workers: usize,
) -> Result<(SweepReport, SweepRunStats, SweepTimings), String> {
    spec.validate()?;
    let points = spec.shard_points(index, count)?;
    let (rows, stats, timings) = run_points(spec, &points, workers);
    Ok((
        SweepReport { spec: spec.clone(), shard: Some(ShardInfo { index, count }), rows },
        stats,
        timings,
    ))
}

/// Simulates `points` (any subset of the expanded grid, in grid order)
/// over a worker pool and returns their rows in the same order, plus
/// the run's wall-clock measurements. The clocks only *observe* the run
/// (each measurement brackets work that happens regardless), so the
/// rows — and therefore the report bytes — cannot depend on them.
fn run_points(
    spec: &SweepSpec,
    points: &[SweepPoint],
    workers: usize,
) -> (Vec<SweepRow>, SweepRunStats, SweepTimings) {
    let run_start = Instant::now();
    // Per-scenario caches, computed once up front (per-point
    // recomputation would be pure waste — none of this depends on the
    // architecture knobs). Only scenarios the subset actually visits are
    // rendered and brute-force-solved: a shard must not pay the oracle
    // cost of scenarios it never simulates.
    let mut needed = vec![false; spec.scenarios.len()];
    for point in points {
        needed[point.scenario_idx] = true;
    }
    let mut setup: Vec<(String, u64)> = Vec::new();
    let caches: Vec<Option<ScenarioCache>> = spec
        .scenarios
        .iter()
        .zip(&needed)
        .map(|(&scenario, &needed)| {
            needed.then(|| {
                let build_start = Instant::now();
                let mut wcfg = spec.workload;
                wcfg.scenario = scenario;
                let frames: Vec<Frame> = FrameStream::new(&wcfg).collect();
                let exact = exact_baseline(&frames, wcfg.radius, wcfg.max_neighbors);
                let tree0 = KdTree::build(&frames[0].cloud);
                setup.push((scenario.label().to_string(), build_start.elapsed().as_nanos() as u64));
                ScenarioCache { frames, exact, tree0 }
            })
        })
        .collect();

    let engine_runs = AtomicUsize::new(0);
    let engine_memo: Mutex<HashMap<EngineKey, EnginePass>> = Mutex::new(HashMap::new());
    let tree_memo: Mutex<HashMap<TreeKey, Arc<Vec<MaintainedTree>>>> = Mutex::new(HashMap::new());
    let pooled = run_pool(points, workers, |point| {
        let cache = caches[point.scenario_idx].as_ref().expect("needed scenario cache built");
        run_point(spec, point, cache, &engine_memo, &tree_memo, &engine_runs)
    });

    let timings = SweepTimings {
        total_nanos: run_start.elapsed().as_nanos() as u64,
        setup,
        points: points.iter().map(|point| point.index).zip(pooled.nanos).collect(),
    };
    let stats = SweepRunStats {
        points: points.len(),
        workers: pooled.workers,
        engine_passes: engine_runs.load(Ordering::Relaxed),
        setup_nanos: timings.setup_nanos(),
        point_nanos: timings.point_nanos(),
    };
    (pooled.results, stats, timings)
}

/// Simulates one grid point and derives its report row.
///
/// The **streaming pass** (the `run_frame_stream` driver behind
/// `Crescent::run_stream`) over every cached frame is the pass of
/// record: with the unified banked-arbitration model every axis moves it
/// — maintenance, `h_t`, PE count, tree banks, DRAM bandwidth, `h_e`
/// (which trades stream recall for arbitration rounds), and aggregation
/// elision (which trades nothing for gather rounds, Sec 4.2).
///
/// The **engine cross-check** (`run_crescent_search` on frame 0's tree
/// and queries) evaluates the same `h = <h_t, h_e>` point on the
/// per-query lock-step model — its columns exist so the two
/// implementations of the same hardware are diffed by the CI gate, not
/// because the sweep needs a second pass for `h_e` sensitivity anymore.
/// The depth-based `h_e` is converted to the engine's level threshold
/// `height(frame 0 tree) − h_e` (`SweepRow::engine_elision_level`).
///
/// The requested `h_t` is first clamped into the Sec 3.3 feasibility
/// range for the point's tree buffer against frame 0's tree
/// (`top_height_range`), so the cache-geometry axis constrains the
/// split depth exactly the way the real hardware would. Both engines
/// still re-clamp against each actual tree's height, so `h_t_used` is
/// the *granted* height — individual shallow frames may run below it
/// (see [`SweepRow::top_height_used`](crate::SweepRow)).
///
/// The engine pass is memoized across the maintenance and
/// aggregation-elision axes (it searches one fixed tree and has no
/// gather stage, so neither can touch it), keyed on the **granted**
/// `top_height_used` so requested heights that clamp to the same grant
/// also share one pass. A racing recompute of the same key is harmless:
/// the pass is deterministic, so both writers insert identical values.
fn run_point(
    spec: &SweepSpec,
    point: &SweepPoint,
    cache: &ScenarioCache,
    engine_memo: &Mutex<HashMap<EngineKey, EnginePass>>,
    tree_memo: &Mutex<HashMap<TreeKey, Arc<Vec<MaintainedTree>>>>,
    engine_runs: &AtomicUsize,
) -> SweepRow {
    let mut config = point.config().expect("spec validation checked every grid point");
    // the engine cross-check's level threshold is a per-tree quantity:
    // depth-from-leaves h_e on frame 0's tree
    let engine_elision_level = cache.tree0.height().saturating_sub(point.elision_depth);
    if let Some(e) = config.search_elision.as_mut() {
        e.elision_height = engine_elision_level;
    }
    let top_height_used = match config.top_height_range(cache.tree0.height()) {
        Some((lo, hi)) => point.top_height.clamp(lo, hi),
        None => point.top_height,
    };
    let knobs = CrescentKnobs { top_height: top_height_used, elision_height: engine_elision_level };
    let search = StreamSearchConfig {
        radius: spec.workload.radius,
        max_neighbors: spec.workload.max_neighbors,
        maintenance: point.maintenance,
        elision_depth: point.elision_depth,
        // scenario-derived, like the stream facade: only the
        // descendant-reuse workload turns the salvage knob on, so every
        // other scenario's rows stay on the stall/elide-only model
        descendant_reuse: point.scenario.descendant_reuse(),
    };
    let inputs: Vec<(&PointCloud, &[Point3])> =
        cache.frames.iter().map(|f| (&f.cloud, f.queries.as_slice())).collect();
    // The maintained-tree sequence is shared across every sibling point
    // whose maintenance inputs coincide (see [`TreeKey`]) — in the quick
    // grid that is 8 points per sequence. Like the engine memo, a racing
    // recompute is harmless: the sequence is deterministic, so both
    // writers insert byte-identical values.
    let tkey = tree_key(point.scenario_idx, point.maintenance, top_height_used);
    let memoized_trees = tree_memo.lock().expect("tree memo poisoned").get(&tkey).cloned();
    let trees = memoized_trees.unwrap_or_else(|| {
        let clouds: Vec<&PointCloud> = cache.frames.iter().map(|f| &f.cloud).collect();
        let seq = Arc::new(maintain_tree_sequence(&clouds, point.maintenance, top_height_used));
        tree_memo.lock().expect("tree memo poisoned").insert(tkey, Arc::clone(&seq));
        seq
    });
    let (neighbor_sets, report) =
        run_frame_stream_on_trees(&inputs, &trees, &search, knobs, &config);

    let key: EngineKey = (
        point.scenario_idx,
        point.num_pes,
        point.tree_kb,
        point.tree_banks,
        point.dram_bytes_per_cycle.to_bits(),
        // the pass runs at the GRANTED height — keying the requested
        // height would re-run identical passes for every request that
        // clamps to the same grant
        top_height_used,
        point.elision_depth,
    );
    let memoized = engine_memo.lock().expect("engine memo poisoned").get(&key).copied();
    let engine = memoized.unwrap_or_else(|| {
        engine_runs.fetch_add(1, Ordering::Relaxed);
        let (engine_results, engine) = run_crescent_search(
            &cache.tree0,
            top_height_used,
            &cache.frames[0].queries,
            spec.workload.radius,
            spec.workload.max_neighbors,
            &config,
        );
        let pass = EnginePass {
            cycles: engine.cycles,
            dram_bytes: engine.dram_streaming_bytes,
            nodes_visited: engine.stats.nodes_visited,
            nodes_elided: engine.stats.nodes_elided,
            recall: recall(std::slice::from_ref(&engine_results), &cache.exact[..1]),
            digest: digest(std::slice::from_ref(&engine_results)),
        };
        engine_memo.lock().expect("engine memo poisoned").insert(key, pass);
        pass
    });

    SweepRow {
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
        top_height_used,
        frames: cache.frames.len(),
        queries: report.total_queries(),
        neighbors: neighbor_sets.iter().flatten().map(Vec::len).sum(),
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
        recall: recall(&neighbor_sets, &cache.exact),
        digest: digest(&neighbor_sets),
        engine_cycles: engine.cycles,
        engine_dram_bytes: engine.dram_bytes,
        nodes_visited: engine.nodes_visited,
        nodes_elided: engine.nodes_elided,
        engine_recall: engine.recall,
        engine_digest: engine.digest,
    }
}

/// Exact neighbor sets for every query of every frame, reduced to sorted
/// index sets (membership is what recall needs).
///
/// Solved through the incremental [`OracleIndex`] instead of a per-frame
/// naive scan: the grid is built on frame 0 and advanced frame to frame
/// (patched for exactly-rigid frames, rebuilt otherwise), and each query
/// scans only the cells overlapping its search ball — with answers
/// bit-identical to `radius_search_bruteforce`, so nothing about the
/// recall or digest columns can move. One hits buffer is recycled across
/// all queries of the scenario.
fn exact_baseline(frames: &[Frame], radius: f32, max_neighbors: Option<usize>) -> ExactSets {
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
            let oracle = oracle.as_ref().expect("oracle built on first frame");
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

/// Mean per-query recall of the approximate sets against the exact
/// baseline, over queries whose exact set is non-empty (1.0 for an
/// all-empty workload — there was nothing to miss).
fn recall(approx: &[Vec<Vec<Neighbor>>], exact: &[Vec<Vec<usize>>]) -> f64 {
    let mut sum = 0.0;
    let mut counted = 0usize;
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

/// FNV-1a fingerprint of every neighbor set: frame/query structure,
/// per-query result counts, and each neighbor's index and exact distance
/// bits. Equal digests ⇔ bit-identical results (up to 64-bit collision).
fn digest(neighbor_sets: &[Vec<Vec<Neighbor>>]) -> u64 {
    let mut h = Fnv1a::default();
    h.word(neighbor_sets.len() as u64);
    for frame in neighbor_sets {
        h.neighbor_lists(frame);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crescent::workload::FrameStreamConfig;
    use crescent::workload::StreamScenario;
    use crescent_accel::TreeMaintenance;
    use crescent_pointcloud::datasets::LidarSceneConfig;

    /// A 4-point spec small enough for unit tests (the full quick grid
    /// is exercised by `tests/explorer_matrix.rs` at the workspace root).
    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            label: "tiny".to_string(),
            workload: FrameStreamConfig {
                scene: LidarSceneConfig {
                    total_points: 800,
                    num_cars: 2,
                    num_poles: 4,
                    num_walls: 1,
                    half_extent: 20.0,
                    seed: 11,
                },
                num_frames: 3,
                queries_per_frame: 16,
                radius: 0.5,
                max_neighbors: Some(8),
                ..FrameStreamConfig::default()
            },
            scenarios: vec![StreamScenario::Registered],
            maintenance: vec![TreeMaintenance::RebuildEveryFrame, TreeMaintenance::refit()],
            num_pes: vec![2, 4],
            tree_kb: vec![6],
            tree_banks: vec![4],
            dram_bytes_per_cycle: vec![20.48],
            aggregation_elision: vec![true],
            top_heights: vec![3],
            elision_depths: vec![2],
        }
    }

    #[test]
    fn report_is_byte_identical_across_runs_and_worker_counts() {
        let spec = tiny_spec();
        let a = run_sweep(&spec, 1).expect("sweep runs");
        let b = run_sweep(&spec, 1).expect("sweep runs");
        let c = run_sweep(&spec, 4).expect("sweep runs");
        assert_eq!(a.to_json(), b.to_json(), "two runs must match");
        assert_eq!(a.to_json(), c.to_json(), "worker count must not leak into the report");
    }

    #[test]
    fn rows_are_in_grid_order_with_real_metrics() {
        let report = run_sweep(&tiny_spec(), 2).expect("sweep runs");
        assert_eq!(report.rows.len(), 4);
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert!(row.pipelined_cycles > 0);
            assert!(row.pipelined_cycles <= row.serial_cycles);
            assert!(row.dram_bytes > 0);
            assert!(row.energy.total() > 0.0);
            assert!(row.recall > 0.0 && row.recall <= 1.0, "recall {}", row.recall);
            assert!(row.neighbors > 0);
        }
        // more PEs never slow the modeled stream down
        let slow = &report.rows[0]; // 2 PEs, rebuild
        let fast = &report.rows[1]; // 4 PEs, rebuild
        assert_eq!(slow.num_pes, 2);
        assert_eq!(fast.num_pes, 4);
        assert!(fast.pipelined_cycles <= slow.pipelined_cycles);
    }

    #[test]
    fn maintenance_policy_changes_cycles_but_never_results() {
        let report = run_sweep(&tiny_spec(), 2).expect("sweep runs");
        // rows 0..2 are rebuild, rows 2..4 are refit (same PE order)
        for pe in 0..2 {
            let rebuild = &report.rows[pe];
            let refit = &report.rows[2 + pe];
            assert_eq!(rebuild.maintenance, "rebuild");
            assert_eq!(refit.maintenance, "refit");
            assert_eq!(rebuild.num_pes, refit.num_pes);
            assert_eq!(
                rebuild.digest, refit.digest,
                "maintenance must be results-invariant (PE count {})",
                rebuild.num_pes
            );
            assert_eq!(rebuild.recall, refit.recall);
        }
    }

    #[test]
    fn digest_distinguishes_different_results() {
        let a = vec![vec![vec![Neighbor { index: 1, dist2: 0.5 }]]];
        let mut b = a.clone();
        b[0][0][0].index = 2;
        let mut c = a.clone();
        c[0][0][0].dist2 = 0.25;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert_eq!(digest(&a), digest(&a.clone()));
        // structure matters: [[x],[]] != [[],[x]]
        let d = vec![vec![vec![Neighbor { index: 1, dist2: 0.5 }], vec![]]];
        let e = vec![vec![vec![], vec![Neighbor { index: 1, dist2: 0.5 }]]];
        assert_ne!(digest(&d), digest(&e));
    }

    #[test]
    fn recall_is_exact_on_matching_sets() {
        let truth: ExactSets = vec![vec![vec![1, 3, 5], vec![]]];
        let hit = |i: usize| Neighbor { index: i, dist2: 0.0 };
        let perfect = vec![vec![vec![hit(1), hit(3), hit(5)], vec![]]];
        assert_eq!(recall(&perfect, &truth), 1.0);
        let partial = vec![vec![vec![hit(1), hit(7)], vec![]]];
        assert!((recall(&partial, &truth) - 1.0 / 3.0).abs() < 1e-12);
        let empty: ExactSets = vec![vec![vec![], vec![]]];
        assert_eq!(recall(&[vec![vec![], vec![]]], &empty), 1.0);
    }

    #[test]
    fn invalid_spec_is_rejected_not_panicked() {
        let mut spec = tiny_spec();
        spec.num_pes = vec![0];
        assert!(run_sweep(&spec, 2).is_err());
    }

    #[test]
    fn clamped_heights_share_one_engine_pass() {
        // 6 KiB tree buffer -> the feasibility range caps well below
        // either request, so h_t = 20 and h_t = 30 clamp to the SAME
        // granted height and must share one memoized engine pass.
        let mut spec = tiny_spec();
        spec.top_heights = vec![20, 30];
        let (report, stats) = run_sweep_with_stats(&spec, 1).expect("sweep runs");
        assert_eq!(report.rows.len(), 8, "2 policies x 2 PE counts x 2 requested heights");
        let grants: Vec<usize> = report.rows.iter().map(|r| r.top_height_used).collect();
        assert!(
            grants.windows(2).all(|w| w[0] == w[1]),
            "both requests must clamp to one grant: {grants:?}"
        );
        // unique passes = PE counts only: maintenance, aggregation, and
        // the two clamped h_t requests all collapse onto the same key
        assert_eq!(
            stats.engine_passes, 2,
            "requested heights clamping to the same grant must not re-run the engine"
        );
        // ... and the deduplication is observable in the rows: sibling
        // rows differing only in requested h_t carry identical engine
        // columns (they ARE the same pass)
        for pe_rows in report.rows.chunks(2) {
            assert_eq!(pe_rows[0].engine_cycles, pe_rows[1].engine_cycles);
            assert_eq!(pe_rows[0].engine_digest, pe_rows[1].engine_digest);
            assert_eq!(pe_rows[0].engine_recall, pe_rows[1].engine_recall);
        }
    }

    #[test]
    fn timings_cover_every_point_without_touching_the_report() {
        let spec = tiny_spec();
        let (report, stats, timings) = run_sweep_timed(&spec, 2).expect("sweep runs");
        // one clock per row, keyed by the row's global grid index
        assert_eq!(timings.points.len(), report.rows.len());
        for ((index, _), row) in timings.points.iter().zip(&report.rows) {
            assert_eq!(*index, row.index);
        }
        // one setup entry per visited scenario, in scenario order
        let labels: Vec<&str> = timings.setup.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(labels, vec!["registered"]);
        // the stats totals are the timings totals
        assert_eq!(stats.setup_nanos, timings.setup_nanos());
        assert_eq!(stats.point_nanos, timings.point_nanos());
        assert!(timings.total_nanos >= timings.setup_nanos());
        // observing the clock must not perturb the bytes
        let untimed = run_sweep(&spec, 2).expect("sweep runs");
        assert_eq!(report.to_json(), untimed.to_json());
        // a shard's timings carry the shard rows' GLOBAL indices
        let (shard, _, shard_timings) = run_sweep_shard_timed(&spec, 2, 3, 1).expect("shard runs");
        assert_eq!(shard_timings.points.len(), shard.rows.len());
        for ((index, _), row) in shard_timings.points.iter().zip(&shard.rows) {
            assert_eq!(*index, row.index);
        }
    }

    #[test]
    fn shard_rows_keep_global_indices_and_match_the_whole_run() {
        let spec = tiny_spec();
        let whole = run_sweep(&spec, 1).expect("sweep runs");
        let mut seen = vec![false; whole.rows.len()];
        for index in 1..=3 {
            let (shard, _) = run_sweep_shard(&spec, index, 3, 2).expect("shard runs");
            let info = shard.shard.expect("shard report carries its coordinates");
            assert_eq!((info.index, info.count), (index, 3));
            for row in &shard.rows {
                assert_eq!(row.index % 3, index - 1, "round-robin projection");
                assert!(!seen[row.index], "row {} covered twice", row.index);
                seen[row.index] = true;
                let reference = &whole.rows[row.index];
                assert_eq!(row.digest, reference.digest);
                assert_eq!(row.pipelined_cycles, reference.pipelined_cycles);
                assert_eq!(row.engine_digest, reference.engine_digest);
                assert_eq!(row.to_json().to_compact(), reference.to_json().to_compact());
            }
        }
        assert!(seen.iter().all(|&s| s), "three shards cover the whole grid");
        assert!(run_sweep_shard(&spec, 4, 3, 1).is_err(), "index out of range");
        assert!(run_sweep_shard(&spec, 0, 3, 1).is_err(), "indices are 1-based");
    }
}
