//! `train_approx`: one epoch of approximation-aware (mixed `h_t`/`h_e`)
//! training of a fresh PointNet++ classifier per op.
//!
//! `nn`'s MLP and Adam math dominates. The `kdtree` use differs from the
//! other workloads: thousands of tiny fresh builds, each searched once,
//! so a tree change that speeds search but slows build shows as a loss
//! here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crescent_models::{
    neighbor_lists, train_classifier, ApproxSetting, GlobalFeature, PointNet2Cls, TrainConfig,
};
use crescent_nn::{softmax_cross_entropy, Adam, GroupMaxPool, Layer, Mlp, Param, Tensor};
use crescent_pointcloud::datasets::{
    ClassificationConfig, ClassificationDataset, ClassificationSample,
};
use crescent_pointcloud::{farthest_point_sample, PointCloud};

use crate::trace::Tracer;
use crate::{derive_seed, Metric, Workload};

/// Model initialisation seed (as in the criterion training bench).
const MODEL_SEED: u64 = 1;

fn config() -> TrainConfig {
    TrainConfig::mixed((1, 6), Some((4, 7)), 1)
}

/// The training workload.
pub struct Train {
    data: ClassificationDataset,
    /// Bits of the first op's epoch loss; every later op, traced or not,
    /// must reproduce them.
    loss_bits: Option<u32>,
}

impl Train {
    fn check_loss(&mut self, loss: f32) -> Result<(), String> {
        if !loss.is_finite() {
            return Err(format!("epoch loss {loss} is not finite"));
        }
        match self.loss_bits {
            None => self.loss_bits = Some(loss.to_bits()),
            Some(bits) if bits != loss.to_bits() => {
                return Err(format!(
                    "epoch loss {loss} differs from the first op's {}",
                    f32::from_bits(bits)
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }
}

impl Workload for Train {
    const NAME: &'static str = "train_approx";
    type Output = f32;

    /// Generates the criterion training bench's dataset: 10 classes × 2
    /// training clouds of 128 points (plus one test cloud per class).
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Train, String> {
        let cfg = ClassificationConfig {
            points_per_cloud: 128,
            train_per_class: 2,
            test_per_class: 1,
            jitter_sigma: 0.01,
            seed: derive_seed(0xB3, seed),
        };
        let data = tr.span("pointcloud.dataset", |_| ClassificationDataset::generate(&cfg));
        if data.train.is_empty() {
            return Err("empty training set".to_string());
        }
        Ok(Train { data, loss_bits: None })
    }

    fn round(&self) -> usize {
        1
    }

    fn op(&self, _: usize) -> f32 {
        let mut model = PointNet2Cls::new(self.data.num_classes, MODEL_SEED);
        train_classifier(&mut model, &self.data.train, &config()).final_loss()
    }

    fn check(&mut self, _: usize, loss: f32) -> Result<(), String> {
        self.check_loss(loss)
    }

    /// Replays the epoch on a layer-by-layer copy of `PointNet2Cls`;
    /// its loss must equal `train_classifier`'s bit for bit.
    fn traced_op(&mut self, _: usize, tr: &mut Tracer) -> Result<(), String> {
        let loss = tr.span("models.op", |tr| replay_epoch(&self.data, tr));
        self.check_loss(loss)
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<Metric> {
        let agg = tr.aggregate(Self::NAME, false);
        let setup = tr.aggregate(Self::NAME, true);
        vec![
            Metric::new("models.forward_ms", agg.ms("models.forward"), "ms"),
            Metric::new("models.backward_ms", agg.ms("models.backward"), "ms"),
            Metric::new("nn.loss_ms", agg.ms("nn.loss"), "ms"),
            Metric::new("nn.adam_ms", agg.ms("nn.adam"), "ms"),
            Metric::new("models.neighbor_lists_ms", agg.ms("models.neighbor_lists"), "ms"),
            Metric::new("models.neighbor_lists_calls", agg.calls("models.neighbor_lists"), "count"),
            Metric::new("pointcloud.dataset_ms", setup.ms("pointcloud.dataset"), "ms"),
            Metric::new("train.samples", self.data.train.len() as f64, "count"),
            Metric::new(
                "train.loss_final",
                self.loss_bits.map_or(f64::NAN, |b| f64::from(f32::from_bits(b))),
                "loss",
            ),
        ]
    }
}

/// `train_classifier`'s loop for one epoch, span by span.
fn replay_epoch(data: &ClassificationDataset, tr: &mut Tracer) -> f32 {
    let cfg = config();
    let train: &[ClassificationSample] = &data.train;
    let mut model = Replica::new(data.num_classes, MODEL_SEED);
    let mut opt = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut epoch_loss = 0.0;
    for i in order {
        let sample = &train[i];
        let setting = cfg.sampler.sample(&mut rng);
        let logits = tr.span("models.forward", |tr| model.forward(&sample.cloud, &setting, tr));
        let (loss, grad) = tr.span("nn.loss", |_| softmax_cross_entropy(&logits, &[sample.label]));
        epoch_loss += loss;
        model.visit_params(&mut |p| p.zero_grad());
        tr.span("models.backward", |_| model.backward(&grad));
        tr.span("nn.adam", |_| {
            opt.begin_step();
            model.visit_params(&mut |p| opt.update(p));
        });
    }
    epoch_loss / train.len().max(1) as f32
}

/// `PointNet2Cls` rebuilt from public parts (same widths, same seeds,
/// hence the same weights), so the neighbor search inside each set
/// abstraction can be timed as its own span.
struct Replica {
    sa1: Sa,
    sa2: Sa,
    global: GlobalFeature,
    head: Mlp,
}

impl Replica {
    fn new(num_classes: usize, seed: u64) -> Replica {
        Replica {
            sa1: Sa::new(64, 12, 0.25, &[3, 24, 48], seed),
            sa2: Sa::new(16, 8, 0.5, &[51, 48, 96], seed + 1),
            global: GlobalFeature::new(&[99, 96, 128], seed + 2),
            head: Mlp::new(&[128, 64, num_classes], false, seed + 3),
        }
    }

    fn forward(&mut self, cloud: &PointCloud, setting: &ApproxSetting, tr: &mut Tracer) -> Tensor {
        let (p1, f1) = self.sa1.forward(cloud, None, setting, tr);
        let (p2, f2) = self.sa2.forward(&p1, Some(&f1), setting, tr);
        let g = self.global.forward(&p2, Some(&f2), true);
        self.head.forward(&g, true)
    }

    fn backward(&mut self, grad: &Tensor) {
        let g = self.head.backward(grad);
        let g2 = self.global.backward(&g);
        let g1 = self.sa2.backward(&g2);
        self.sa1.backward(&g1);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.sa1.mlp.visit_params(f);
        self.sa2.mlp.visit_params(f);
        self.global.visit_params(f);
        self.head.visit_params(f);
    }
}

/// `SetAbstraction` with FPS centroids, rebuilt from public parts.
struct Sa {
    m: usize,
    k: usize,
    radius: f32,
    mlp: Mlp,
    pool: GroupMaxPool,
    neighbor_flat: Vec<usize>,
    in_rows: usize,
    in_channels: usize,
}

impl Sa {
    fn new(m: usize, k: usize, radius: f32, mlp_dims: &[usize], seed: u64) -> Sa {
        Sa {
            m,
            k,
            radius,
            mlp: Mlp::new(mlp_dims, true, seed),
            pool: GroupMaxPool::new(k),
            neighbor_flat: Vec::new(),
            in_rows: 0,
            in_channels: mlp_dims[0] - 3,
        }
    }

    fn forward(
        &mut self,
        points: &PointCloud,
        features: Option<&Tensor>,
        setting: &ApproxSetting,
        tr: &mut Tracer,
    ) -> (PointCloud, Tensor) {
        let c = features.map_or(0, Tensor::cols);
        let centroids = farthest_point_sample(points, self.m);
        let lists = tr.span("models.neighbor_lists", |_| {
            neighbor_lists(points, &centroids, self.radius, self.k, setting)
        });
        self.neighbor_flat.clear();
        let mut rows = Tensor::zeros(centroids.len() * self.k, 3 + c);
        for (ci, (&cidx, list)) in centroids.iter().zip(&lists).enumerate() {
            let cp = points.point(cidx);
            for (j, &nidx) in list.iter().enumerate() {
                let rel = points.point(nidx) - cp;
                let row = rows.row_mut(ci * self.k + j);
                row[0] = rel.x;
                row[1] = rel.y;
                row[2] = rel.z;
                if let Some(f) = features {
                    row[3..].copy_from_slice(f.row(nidx));
                }
                self.neighbor_flat.push(nidx);
            }
        }
        self.in_rows = points.len();
        let y = self.mlp.forward(&rows, true);
        let pooled = self.pool.forward(&y);
        (centroids.iter().map(|&i| points.point(i)).collect(), pooled)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g_in = self.mlp.backward(&self.pool.backward(grad));
        let mut g_feat = Tensor::zeros(self.in_rows, self.in_channels);
        if self.in_channels > 0 {
            let (_, g_feature_cols) = g_in.split_cols(3);
            g_feat.scatter_add_rows(&self.neighbor_flat, &g_feature_cols);
        }
        g_feat
    }
}
