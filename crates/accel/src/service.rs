//! Fleet instance model for the multi-tenant streaming service: one
//! modeled Crescent accelerator per instance, executing cross-tenant
//! *wavefronts* (tenant-tagged query batches against a shared map tree).
//!
//! An instance runs the same wavefront kernel as the single-stream
//! driver ([`crate::run_frame_stream_on_trees`]) — one resplit, banked
//! search, Point-Buffer gather, double-buffered slot and energy charge
//! — on the flat concatenated query slice of a [`TaggedBatch`], then
//! demultiplexes the results per segment with
//! [`TaggedBatch::split_results`]. Only the schedule differs: a service
//! dispatches wavefronts when tenants are ready and pays the pipeline
//! fill per wavefront, a stream runs frames back to back.
//!
//! Tree **maintenance** is not modeled here: the service maintains one
//! shared map tree per tick (via [`crate::maintain_tree_sequence`]) and
//! charges it once, fleet-wide — an instance only ever *searches*.

use crescent_kdtree::{BatchSearchStats, KdTree, TaggedBatch, TaggedResults};
use crescent_memsim::EnergyLedger;

use crate::config::AcceleratorConfig;
use crate::engine::PE_PIPELINE_DEPTH;
use crate::pipeline::CrescentKnobs;
use crate::streaming::StreamSearchConfig;
use crate::wavefront::WavefrontKernel;

/// Modeled outcome of one cross-tenant wavefront on one instance.
#[derive(Clone, Debug)]
pub struct WavefrontReport {
    /// Queries in the wavefront (all tenants).
    pub queries: usize,
    /// Neighbors returned across all queries.
    pub neighbors: usize,
    /// Search compute: amortized top-tree fetches + lock-step sub-tree
    /// rounds (bank conflicts already serialized in).
    pub compute_cycles: u64,
    /// Aggregation-unit gather rounds through the banked Point Buffer.
    pub agg_cycles: u64,
    /// Streaming-DMA cycles for the wavefront's DRAM bytes.
    pub dma_cycles: u64,
    /// Occupancy of the instance: `max(compute + agg, dma)` — the
    /// double-buffered slot, excluding pipeline fill.
    pub slot_cycles: u64,
    /// Dispatch-to-completion latency: the slot plus the PE pipeline
    /// fill (a service wavefront is latency-critical, so unlike the
    /// back-to-back stream bound the fill is paid per wavefront).
    pub latency_cycles: u64,
    /// The underlying batched-search statistics (amortization, conflict,
    /// and DRAM counters).
    pub search: BatchSearchStats,
    /// Energy of the wavefront (search + aggregation + leakage during
    /// the slot; map maintenance is charged fleet-wide by the service).
    pub energy: EnergyLedger,
}

/// One modeled accelerator instance of the service fleet: recycled
/// search state plus its dispatch schedule.
#[derive(Debug, Default)]
pub struct ServiceInstance {
    kernel: WavefrontKernel,
    /// The modeled cycle at which this instance finishes its current
    /// wavefront and can accept the next one.
    pub free_at: u64,
    /// Total cycles this instance has been occupied: each wavefront's
    /// slot plus its pipeline fill.
    pub busy_cycles: u64,
    /// Wavefronts dispatched to this instance.
    pub wavefronts: usize,
}

impl ServiceInstance {
    /// Creates an idle instance.
    pub fn new() -> Self {
        ServiceInstance::default()
    }

    /// Executes one tenant-tagged wavefront against the shared map
    /// `tree`, returning per-segment neighbor lists (the engine sees
    /// only the flat query slice, so tags cannot perturb it) and the
    /// wavefront's modeled timing/energy.
    ///
    /// The caller owns the dispatch schedule: this method models the
    /// wavefront in isolation and updates only the instance-local
    /// counters (`busy_cycles`, `wavefronts`); set [`Self::free_at`]
    /// from the returned latency at the chosen start cycle.
    pub fn run_wavefront(
        &mut self,
        tree: &KdTree,
        batch: &TaggedBatch,
        search: &StreamSearchConfig,
        knobs: CrescentKnobs,
        config: &AcceleratorConfig,
    ) -> (TaggedResults, WavefrontReport) {
        self.run_wavefront_at(tree, batch, search, search.elision_depth, knobs, config)
    }

    /// [`Self::run_wavefront`] with a per-dispatch elision-depth
    /// override: the wavefront runs at `elision_depth` instead of
    /// `search.elision_depth`. This is the actuator of `crescent-serve`'s
    /// SLO controller — the controller moves `h_e` dispatch by dispatch
    /// while every other search parameter stays pinned by the spec.
    /// `run_wavefront(..)` ≡ `run_wavefront_at(.., search.elision_depth, ..)`.
    pub fn run_wavefront_at(
        &mut self,
        tree: &KdTree,
        batch: &TaggedBatch,
        search: &StreamSearchConfig,
        elision_depth: usize,
        knobs: CrescentKnobs,
        config: &AcceleratorConfig,
    ) -> (TaggedResults, WavefrontReport) {
        let pass = self.kernel.run(tree, batch.queries(), search, elision_depth, knobs, config);
        let has_work = !batch.is_empty() && !tree.is_empty();
        let latency = if has_work { pass.slot + PE_PIPELINE_DEPTH } else { 0 };
        self.busy_cycles += latency;
        self.wavefronts += 1;
        let energy = pass.energy(&config.energy, 0, 0, 0);
        let report = WavefrontReport {
            queries: batch.len(),
            neighbors: pass.neighbors(),
            compute_cycles: pass.compute,
            agg_cycles: pass.agg.rounds,
            dma_cycles: pass.dma,
            slot_cycles: pass.slot,
            latency_cycles: latency,
            search: pass.stats,
            energy,
        };
        (batch.split_results(pass.results), report)
    }
}

/// A fleet of [`ServiceInstance`]s with deterministic earliest-free
/// selection (ties broken by lowest index).
#[derive(Debug, Default)]
pub struct Fleet {
    instances: Vec<ServiceInstance>,
}

impl Fleet {
    /// Creates `size` idle instances.
    pub fn new(size: usize) -> Self {
        Fleet { instances: (0..size).map(|_| ServiceInstance::new()).collect() }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the fleet has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The instances, for read-only inspection.
    pub fn instances(&self) -> &[ServiceInstance] {
        &self.instances
    }

    /// Index and free time of the instance that frees up first; ties go
    /// to the lowest index so dispatch is deterministic. `None` on an
    /// empty fleet.
    pub fn earliest_free(&self) -> Option<(usize, u64)> {
        self.instances
            .iter()
            .enumerate()
            .min_by_key(|&(i, inst)| (inst.free_at, i))
            .map(|(i, inst)| (i, inst.free_at))
    }

    /// Mutable access to one instance for dispatch.
    pub fn instance_mut(&mut self, index: usize) -> &mut ServiceInstance {
        &mut self.instances[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crescent_pointcloud::{Point3, PointCloud};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random::<f32>() * 2.0,
                    rng.random::<f32>() * 2.0,
                    rng.random::<f32>() * 2.0,
                )
            })
            .collect()
    }

    fn random_queries(n: usize, seed: u64) -> Vec<Point3> {
        random_cloud(n, seed).into_points()
    }

    fn search() -> StreamSearchConfig {
        StreamSearchConfig {
            radius: 0.3,
            max_neighbors: Some(16),
            elision_depth: 0,
            ..Default::default()
        }
    }

    #[test]
    fn wavefront_matches_the_stream_drivers_search_physics() {
        // a one-segment wavefront must agree with the single-stream
        // driver on a zero-build frame — results, slot timing, and every
        // energy category — across h_e, aggregation elision and
        // descendant reuse
        let cloud = random_cloud(3000, 11);
        let queries = random_queries(96, 12);
        let tree = KdTree::build(&cloud);
        let knobs = CrescentKnobs::default();
        let zero_build = [crate::streaming::MaintainedTree {
            tree: tree.clone(),
            build_cycles: 0,
            build_dram_bytes: 0,
            subtrees_rebuilt: 0,
            full_rebuild: true,
        }];
        let frames: Vec<(&PointCloud, &[Point3])> = vec![(&cloud, queries.as_slice())];
        let mut batch = TaggedBatch::new();
        batch.push_segment(0, &queries);

        for h_e in [0usize, 4] {
            for aggregation_elision in [false, true] {
                for descendant_reuse in [false, true] {
                    let case =
                        format!("h_e {h_e} agg {aggregation_elision} reuse {descendant_reuse}");
                    let cfg = AcceleratorConfig { aggregation_elision, ..Default::default() };
                    let search =
                        StreamSearchConfig { elision_depth: h_e, descendant_reuse, ..search() };
                    let mut inst = ServiceInstance::new();
                    let (tagged, wf) = inst.run_wavefront(&tree, &batch, &search, knobs, &cfg);
                    let (stream_results, report) = crate::streaming::run_frame_stream_on_trees(
                        &frames,
                        &zero_build,
                        &search,
                        knobs,
                        &cfg,
                    );
                    let frame = &report.frames[0];

                    assert_eq!(tagged[0].1, stream_results[0], "{case}: neighbor sets");
                    assert_eq!(wf.neighbors, frame.neighbors, "{case}");
                    assert_eq!(wf.search, frame.search, "{case}");
                    assert_eq!(wf.compute_cycles, frame.compute_cycles, "{case}");
                    assert_eq!(wf.agg_cycles, frame.agg_cycles, "{case}");
                    assert_eq!(wf.dma_cycles, frame.dma_cycles, "{case}");
                    assert_eq!(wf.slot_cycles, frame.slot_cycles, "{case}");
                    assert_eq!(wf.latency_cycles, frame.slot_cycles + PE_PIPELINE_DEPTH, "{case}");
                    assert_eq!(frame.build_slot_cycles, 0, "{case}");
                    assert!(wf.energy.dram_streaming > 0.0, "{case}");
                    assert_eq!(wf.energy.dram_streaming, frame.energy.dram_streaming, "{case}");
                    assert_eq!(wf.energy, frame.energy, "{case}: every energy category");
                    assert_eq!(inst.busy_cycles, wf.latency_cycles, "{case}");
                    assert_eq!(inst.wavefronts, 1, "{case}");
                }
            }
        }
    }

    #[test]
    fn per_dispatch_elision_override_matches_the_config_path() {
        // run_wavefront_at(h_e) must be indistinguishable from baking
        // the same h_e into the search config — the controller's
        // actuator cannot be a second timing model
        let cloud = random_cloud(2_000, 17);
        let queries = random_queries(64, 18);
        let tree = KdTree::build(&cloud);
        let cfg = AcceleratorConfig::default();
        let knobs = CrescentKnobs::default();
        let mut batch = TaggedBatch::new();
        batch.push_segment(0, &queries);
        for h_e in [0usize, 2, 4] {
            let baked = StreamSearchConfig { elision_depth: h_e, ..search() };
            let mut a = ServiceInstance::new();
            let (res_a, wf_a) = a.run_wavefront(&tree, &batch, &baked, knobs, &cfg);
            let mut b = ServiceInstance::new();
            let (res_b, wf_b) = b.run_wavefront_at(&tree, &batch, &search(), h_e, knobs, &cfg);
            assert_eq!(res_a, res_b, "override must not change answers at h_e = {h_e}");
            assert_eq!(wf_a.slot_cycles, wf_b.slot_cycles);
            assert_eq!(wf_a.latency_cycles, wf_b.latency_cycles);
            assert_eq!(wf_a.search.conflicts_elided, wf_b.search.conflicts_elided);
            assert_eq!(wf_a.energy.total(), wf_b.energy.total());
        }
    }

    #[test]
    fn empty_wavefront_costs_nothing() {
        let cloud = random_cloud(500, 13);
        let tree = KdTree::build(&cloud);
        let mut inst = ServiceInstance::new();
        let (tagged, wf) = inst.run_wavefront(
            &tree,
            &TaggedBatch::new(),
            &search(),
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert!(tagged.is_empty());
        assert_eq!(wf.latency_cycles, 0, "no work, no fill");
        assert_eq!(wf.neighbors, 0);
    }

    #[test]
    fn fleet_picks_the_earliest_instance_with_stable_ties() {
        let mut fleet = Fleet::new(3);
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.earliest_free(), Some((0, 0)), "ties break to the lowest index");
        fleet.instance_mut(0).free_at = 100;
        fleet.instance_mut(1).free_at = 40;
        fleet.instance_mut(2).free_at = 40;
        assert_eq!(fleet.earliest_free(), Some((1, 40)));
        assert!(Fleet::new(0).earliest_free().is_none());
        assert!(Fleet::new(0).is_empty());
        assert!(fleet.instances()[0].free_at == 100);
    }
}
