//! The one per-batch search kernel of the Fig 12 engine: resplit below
//! the clamped `h_t`, banked two-stage [`SplitTree::search_batch`],
//! Point-Buffer gather ([`simulate_aggregation`]), the double-buffered
//! slot `max(compute + aggregation, DMA)`, and energy. The stream driver
//! runs it once per frame and every [`crate::ServiceInstance`] once per
//! wavefront; the callers own only their schedules.

use crescent_kdtree::{
    BatchSearchConfig, BatchSearchStats, BatchState, KdTree, SplitTree, NODE_BYTES,
};
use crescent_memsim::{EnergyLedger, EnergyModel};
use crescent_pointcloud::{Neighbor, Point3, POINT_BYTES};

use crate::aggregation::{simulate_aggregation, AggregationReport};
use crate::config::AcceleratorConfig;
use crate::pipeline::CrescentKnobs;
use crate::streaming::StreamSearchConfig;

/// Recycled working memory of one modeled engine (descent buffers and
/// cross-batch locality, sub-tree roots, per-query gather index lists).
#[derive(Debug, Default)]
pub(crate) struct WavefrontKernel {
    state: BatchState,
    roots_pool: Vec<usize>,
    neighbor_lists: Vec<Vec<usize>>,
}

/// One batch through [`WavefrontKernel::run`]; the cycle fields mean
/// what the same-named [`crate::FrameReport`] fields mean.
#[derive(Debug)]
pub(crate) struct BatchOutcome {
    pub results: Vec<Vec<Neighbor>>,
    pub stats: BatchSearchStats,
    pub agg: AggregationReport,
    pub compute: u64,
    pub dma: u64,
    pub slot: u64,
    pub reads: u64,
}

impl WavefrontKernel {
    /// Runs `queries` against `tree` at `elision_depth`; every other
    /// search parameter comes from `search`.
    pub fn run(
        &mut self,
        tree: &KdTree,
        queries: &[Point3],
        search: &StreamSearchConfig,
        elision_depth: usize,
        knobs: CrescentKnobs,
        config: &AcceleratorConfig,
    ) -> BatchOutcome {
        // a degenerate tree grants h_t = 0
        let ht =
            if tree.is_empty() { 0 } else { knobs.top_height.min(tree.height().saturating_sub(1)) };
        let split = SplitTree::resplit(tree, ht, std::mem::take(&mut self.roots_pool))
            .expect("clamped top height is valid");
        let batch_cfg = BatchSearchConfig::banked(
            search.radius,
            search.max_neighbors,
            config.num_pes,
            config.tree_buffer.num_banks,
            elision_depth,
        )
        .with_descendant_reuse(search.descendant_reuse);
        let (results, stats) = split.search_batch(queries, &batch_cfg, &mut self.state);
        self.roots_pool = split.into_subtree_roots();

        // the gather unit reads every query's neighbor list from the
        // banked Point Buffer; conflicts serialize unless aggregation
        // elision replicates the winner's neighbor
        let n = results.len();
        if self.neighbor_lists.len() < n {
            self.neighbor_lists.resize_with(n, Vec::new);
        }
        for (list, hits) in self.neighbor_lists.iter_mut().zip(&results) {
            list.clear();
            list.extend(hits.iter().map(|h| h.index));
        }
        let agg = simulate_aggregation(
            &self.neighbor_lists[..n],
            config.point_buffer,
            config.point_buffer.num_banks,
            config.aggregation_elision,
        );

        // one shared fetch per touched top-tree node, then lock-step
        // sub-tree rounds that already carry PE parallelism and conflict
        // serialization; the pipeline fill is the caller's to schedule
        let compute = stats.top_fetches as u64 + stats.subtree_rounds as u64;
        let dma = config.dram.stream_cycles(stats.dram_bytes);
        let slot = (compute + agg.rounds).max(dma);
        // only honored fetches read data out of the tree buffer
        let reads = (stats.top_fetches + stats.subtree_visits) as u64;
        BatchOutcome { results, stats, agg, compute, dma, slot, reads }
    }
}

impl BatchOutcome {
    pub fn neighbors(&self) -> usize {
        self.results.iter().map(Vec::len).sum()
    }

    /// Energy of the batch plus the caller's maintenance terms (zeros
    /// for a service wavefront). Build DRAM bytes and the build slot
    /// share the search's streaming and leakage charges: charging them
    /// separately would round differently and shift reported energies.
    pub fn energy(
        &self,
        em: &EnergyModel,
        build_dram_bytes: u64,
        build_cycles: u64,
        build_slot: u64,
    ) -> EnergyLedger {
        let mut energy = EnergyLedger::new();
        energy.charge_dram_streaming(em, self.stats.dram_bytes + build_dram_bytes);
        energy.charge_tree_build(em, build_cycles);
        energy.charge_sram_search(em, self.reads * NODE_BYTES as u64);
        // one point record per granted gather plus one 4-byte index word
        // per issue; elided gathers reuse the winner's data for free
        let gathered = self.agg.grants * POINT_BYTES as u64 + self.agg.requests * 4;
        energy.charge_sram_aggregation(em, gathered);
        energy.charge_leakage(em, build_slot + self.slot);
        energy
    }
}
