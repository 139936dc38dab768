//! The FIGRET model: a history-window MLP trained with the burst-aware loss.
//!
//! FIGRET maps the flattened history window `{D_{t-H}, …, D_{t-1}}` to split
//! ratios `R_t` (§4.3 / §4.4 of the paper).  Training minimizes
//!
//! ```text
//! L(R_t, D_t) = M(R_t, D_t) + α · Σ_sd σ²_sd · Sᵐᵃˣ_sd(R_t)
//! ```
//!
//! where `σ²_sd` is the per-pair demand variance measured on the training
//! prefix and normalized to `[0, 1]` (the paper normalizes the variances when
//! analysing them; the normalization also keeps the two loss terms on
//! comparable scales).  Setting `α = 0` recovers DOTE.

use figret_nn::{
    Adam, AdamConfig, Graph, InferencePlan, Mlp, MlpConfig, Optimizer, OutputActivation, Tensor,
    WorkerTapes,
};
use figret_te::{DiffTe, MluAggregation, PathSet, TeConfig};
use figret_traffic::{DemandMatrix, FlatWindowDataset, WindowDataset};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::FigretConfig;

/// Fixed number of samples per data-parallel gradient task.  Chunk boundaries
/// depend only on this constant (never on the worker-thread count), and the
/// per-chunk gradients are summed in chunk order, so training is bit-for-bit
/// deterministic for a given seed on any machine.
const MICROBATCH: usize = 8;

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Mean total loss over the epoch.
    pub mean_loss: f64,
    /// Mean MLU term over the epoch.
    pub mean_mlu: f64,
    /// Mean robustness penalty (already weighted by α).
    pub mean_penalty: f64,
}

/// Summary of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
    /// Wall-clock training time in seconds.
    pub wall_seconds: f64,
    /// Number of samples per epoch.
    pub samples_per_epoch: usize,
}

impl TrainingReport {
    /// Loss of the final epoch (`None` if no epochs ran).
    pub fn final_loss(&self) -> Option<f64> {
        self.epochs.last().map(|e| e.mean_loss)
    }
}

/// A trained (or trainable) FIGRET model bound to a specific path set.
pub struct FigretModel {
    config: FigretConfig,
    graph: Graph,
    mlp: Mlp,
    diff: DiffTe,
    num_pairs: usize,
    /// Normalized per-pair variance weights used by the robustness term.
    variance_weights: Vec<f64>,
    /// Scale applied to input features so they are O(1).
    feature_scale: f64,
}

impl std::fmt::Debug for FigretModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FigretModel")
            .field("config", &self.config)
            .field("num_pairs", &self.num_pairs)
            .field("feature_scale", &self.feature_scale)
            .finish()
    }
}

impl FigretModel {
    /// Creates an untrained model for the given path set.
    ///
    /// `variances` are the per-SD-pair demand variances over the training
    /// prefix (Equation 8); they are normalized internally.  Pass all zeros
    /// (or use [`FigretConfig::dote`]) for the DOTE baseline.
    pub fn new(paths: &PathSet, variances: &[f64], config: FigretConfig) -> FigretModel {
        assert_eq!(variances.len(), paths.num_pairs(), "one variance per SD pair is required");
        let num_pairs = paths.num_pairs();
        let input_dim = config.history_window * num_pairs;
        let mut graph = Graph::new();
        let mlp = Mlp::new(
            &mut graph,
            MlpConfig {
                input_dim,
                hidden: config.hidden.clone(),
                output_dim: paths.num_paths(),
                output_activation: OutputActivation::Sigmoid,
                seed: config.seed,
            },
        );
        graph.seal();
        let diff = DiffTe::new(paths);
        let max_var = variances.iter().cloned().fold(0.0, f64::max);
        let variance_weights: Vec<f64> = if max_var > 0.0 {
            variances.iter().map(|v| v / max_var).collect()
        } else {
            vec![0.0; num_pairs]
        };
        FigretModel { config, graph, mlp, diff, num_pairs, variance_weights, feature_scale: 1.0 }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &FigretConfig {
        &self.config
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.mlp.num_parameters(&self.graph)
    }

    fn features_from_history(&self, history: &[DemandMatrix]) -> Vec<f64> {
        assert_eq!(
            history.len(),
            self.config.history_window,
            "history must contain exactly H demand matrices"
        );
        let mut features = Vec::with_capacity(self.config.history_window * self.num_pairs);
        for m in history {
            push_pairs(m, &mut features);
        }
        self.scale_features(&mut features);
        features
    }

    /// Columnar counterpart of [`FigretModel::features_from_history`]: the
    /// same concatenate-and-scale arithmetic over flat per-tick columns, so
    /// the two paths produce bit-identical features for equivalent data.
    fn features_from_columns(&self, history: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(
            history.len(),
            self.config.history_window,
            "history must contain exactly H demand columns"
        );
        let mut features = Vec::with_capacity(self.config.history_window * self.num_pairs);
        for row in history {
            assert_eq!(row.len(), self.num_pairs, "one demand value per pair is required");
            features.extend_from_slice(row);
        }
        self.scale_features(&mut features);
        features
    }

    fn scale_features(&self, features: &mut [f64]) {
        for f in features {
            *f /= self.feature_scale;
        }
    }

    /// Trains the model on a window dataset (as produced by
    /// [`WindowDataset::from_trace`] over the training split) with shuffled
    /// mini-batch SGD.
    ///
    /// Each mini-batch of [`FigretConfig::batch_size`] samples is split into
    /// fixed-size microbatches whose gradients are computed in parallel
    /// (rayon) on reusable worker tapes, summed in stable chunk order,
    /// averaged, and applied with one Adam step.  `batch_size = 1` recovers
    /// the original per-sample update rule exactly.
    pub fn train(&mut self, dataset: &WindowDataset) -> TrainingReport {
        assert_eq!(
            dataset.window, self.config.history_window,
            "dataset window must match the configured history window"
        );
        self.train_on(dataset)
    }

    /// Trains the model on a flat columnar dataset (observed demand columns,
    /// e.g. drained from a serving controller's history window) with the
    /// same epoch loop as [`FigretModel::train`].  On a dense universe the
    /// two trainers are bit-identical for equivalent data: same shuffle
    /// order, same chunk boundaries, same feature and gradient arithmetic.
    /// This is the online-retraining path of the serving recovery subsystem
    /// — and it works on restricted shard universes, where no dense `N×N`
    /// matrices exist to build a [`WindowDataset`] from.
    pub fn train_flat(&mut self, dataset: &FlatWindowDataset) -> TrainingReport {
        assert_eq!(
            dataset.window(),
            self.config.history_window,
            "dataset window must match the configured history window"
        );
        assert_eq!(dataset.num_pairs(), self.num_pairs, "one demand value per pair is required");
        self.train_on(dataset)
    }

    /// The epoch loop of every trainer.
    ///
    /// One [`WorkerTapes`] pool lives for the whole run, one tape per
    /// microbatch slot of a batch.  A step runs the batch's microbatches on
    /// those tapes in parallel, straight off the model's parameter values,
    /// sums their gradients in chunk order into the model's parameter
    /// gradients, scales by `1 / batch` and takes one Adam step.  Chunk
    /// boundaries depend only on [`MICROBATCH`], so the result is
    /// bit-identical for any thread count.
    fn train_on(&mut self, samples: &impl Samples) -> TrainingReport {
        let n = samples.len();
        assert!(n > 0, "the training dataset is empty");
        let start = std::time::Instant::now();
        // Feature scale: the largest demand seen in training, so inputs are O(1).
        let max_demand = samples.max_history_entry();
        self.feature_scale = if max_demand > 0.0 { max_demand } else { 1.0 };

        let params = self.mlp.parameters();
        let mut adam = Adam::new(
            &self.graph,
            params.clone(),
            AdamConfig { learning_rate: self.config.learning_rate, ..Default::default() },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x7a11_5eed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut report = TrainingReport { samples_per_epoch: n, ..Default::default() };
        let batch_size = self.config.batch_size.max(1);
        let mut workers = WorkerTapes::new(&self.graph, batch_size.min(n).div_ceil(MICROBATCH));

        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut sum_loss = 0.0;
            let mut sum_mlu = 0.0;
            let mut sum_penalty = 0.0;
            for batch in order.chunks(batch_size) {
                let chunks: Vec<&[usize]> = batch.chunks(MICROBATCH).collect();
                let partials = workers
                    .run(&self.graph, chunks, |tape, chunk| self.microbatch(tape, samples, chunk));
                workers.reduce_into(&mut self.graph, &params, 1.0 / batch.len() as f64);
                adam.step(&mut self.graph);
                let (mut loss, mut mlu, mut penalty) = (0.0, 0.0, 0.0);
                for partial in &partials {
                    loss += partial.loss;
                    mlu += partial.mlu;
                    penalty += partial.penalty;
                }
                sum_loss += loss;
                sum_mlu += mlu;
                sum_penalty += penalty;
            }
            let n = n as f64;
            report.epochs.push(EpochStats {
                mean_loss: sum_loss / n,
                mean_mlu: sum_mlu / n,
                mean_penalty: sum_penalty / n,
            });
        }
        report.wall_seconds = start.elapsed().as_secs_f64();
        report
    }

    /// Runs one batched forward/backward pass over a microbatch on a worker
    /// tape, leaving the *sums* (not means) of the parameter gradients over
    /// its samples on the tape, and returns the sums of the loss terms.
    fn microbatch(&self, tape: &mut Graph, samples: &impl Samples, chunk: &[usize]) -> LossSums {
        let width = self.config.history_window * self.num_pairs;
        let mut features = Vec::with_capacity(chunk.len() * width);
        let mut demand_rows = Vec::with_capacity(chunk.len() * self.num_pairs);
        for &i in chunk {
            samples.push_history(i, &mut features);
            samples.push_target(i, &mut demand_rows);
        }
        self.scale_features(&mut features);
        let input = tape.constant(Tensor::from_vec(chunk.len(), width, features));
        let raw = self.mlp.forward(tape, input);
        let ratios = self.diff.normalize(tape, raw);
        let mlu_col = self.diff.mlu_batch(tape, ratios, &demand_rows, MluAggregation::Max);
        let mlu: f64 = tape.value(mlu_col).data().iter().sum();
        let (loss_col, penalty) = if self.config.robustness_weight > 0.0 {
            let per_sample = self.diff.sensitivity_penalty(tape, ratios, &self.variance_weights);
            let weighted = tape.scale(per_sample, self.config.robustness_weight);
            let penalty: f64 = tape.value(weighted).data().iter().sum();
            (tape.add(mlu_col, weighted), penalty)
        } else {
            (mlu_col, 0.0)
        };
        let loss = tape.sum(loss_col);
        let loss_sum = tape.value(loss).as_scalar();
        tape.backward(loss);
        LossSums { loss: loss_sum, mlu, penalty }
    }

    /// Compiles the trained weights into an allocation-free f32
    /// [`InferencePlan`] for the serving hot path (see `figret_nn::plan`).
    ///
    /// The plan folds the feature scale into its input load and performs the
    /// per-pair normalization itself, so callers feed it *raw* flattened
    /// history features and obtain normalized split ratios.  Compile once
    /// after training; the plan snapshots the weights and does not track
    /// later updates.
    pub fn compile_plan(&self) -> InferencePlan {
        InferencePlan::compile(
            &self.graph,
            &self.mlp,
            self.diff.segments().to_vec(),
            self.feature_scale,
        )
    }

    /// Computes the TE configuration for the next snapshot from a history
    /// window of `H` demand matrices (most recent last).
    pub fn predict(&mut self, paths: &PathSet, history: &[DemandMatrix]) -> TeConfig {
        let features = self.features_from_history(history);
        self.forward_one(paths, features)
    }

    /// Computes the TE configuration from a history window of `H` flat
    /// demand columns (most recent last), one value per pair of the path
    /// set's universe in slot order.
    ///
    /// Feature construction runs the same arithmetic as
    /// [`FigretModel::predict`] (concatenate, divide by the feature scale),
    /// so on a dense universe this is bit-identical to `predict` fed the
    /// matrices those columns flatten to.  This is the serving controller's
    /// path — it keeps columnar history and never materializes `N×N`
    /// matrices, which is what lets learned serving scale to restricted
    /// fabric universes.
    pub fn predict_flat(&mut self, paths: &PathSet, history: &[Vec<f64>]) -> TeConfig {
        let features = self.features_from_columns(history);
        self.forward_one(paths, features)
    }

    /// The forward pass of one scaled feature row (no gradient buffers).
    fn forward_one(&mut self, paths: &PathSet, features: Vec<f64>) -> TeConfig {
        self.graph.reset();
        let input = self.graph.constant(Tensor::from_vec(1, features.len(), features));
        let raw = self.mlp.forward(&mut self.graph, input);
        let ratios = self.diff.normalize(&mut self.graph, raw);
        TeConfig::from_raw(paths, self.graph.value(ratios).data())
    }

    /// Computes TE configurations for many history windows with a single
    /// batch-major forward pass (the fast path of the evaluation runner).
    pub fn predict_batch(
        &mut self,
        paths: &PathSet,
        histories: &[Vec<DemandMatrix>],
    ) -> Vec<TeConfig> {
        if histories.is_empty() {
            return Vec::new();
        }
        let feature_rows: Vec<Vec<f64>> =
            histories.iter().map(|h| self.features_from_history(h)).collect();
        let feature_refs: Vec<&[f64]> = feature_rows.iter().map(|r| r.as_slice()).collect();
        self.graph.reset();
        let input = self.graph.constant(Tensor::stack_rows(&feature_refs));
        let raw = self.mlp.forward(&mut self.graph, input);
        let ratios = self.diff.normalize(&mut self.graph, raw);
        let out = self.graph.value(ratios);
        (0..out.rows()).map(|r| TeConfig::from_raw(paths, out.row_slice(r))).collect()
    }
}

/// Per-microbatch sums of the loss terms (the gradient sums stay on the
/// worker tape).
struct LossSums {
    loss: f64,
    mlu: f64,
    penalty: f64,
}

/// Training samples as the epoch loop reads them: a history window and a
/// target demand row per sample index.
trait Samples: Sync {
    fn len(&self) -> usize;
    /// Largest demand in any history window: the feature scale.
    fn max_history_entry(&self) -> f64;
    /// Appends sample `i`'s history window, oldest first, one value per pair.
    fn push_history(&self, i: usize, out: &mut Vec<f64>);
    /// Appends sample `i`'s target demand row.
    fn push_target(&self, i: usize, out: &mut Vec<f64>);
}

/// Appends a matrix's flattened pair demands.
fn push_pairs(m: &DemandMatrix, out: &mut Vec<f64>) {
    let start = out.len();
    out.resize(start + m.num_pairs(), 0.0);
    m.flatten_pairs_into(&mut out[start..]);
}

impl Samples for WindowDataset {
    fn len(&self) -> usize {
        self.samples.len()
    }

    fn max_history_entry(&self) -> f64 {
        self.samples
            .iter()
            .flat_map(|s| s.history.iter().map(|m| m.max_entry()))
            .fold(0.0f64, f64::max)
    }

    fn push_history(&self, i: usize, out: &mut Vec<f64>) {
        for m in &self.samples[i].history {
            push_pairs(m, out);
        }
    }

    fn push_target(&self, i: usize, out: &mut Vec<f64>) {
        push_pairs(&self.samples[i].target, out);
    }
}

impl Samples for FlatWindowDataset {
    fn len(&self) -> usize {
        FlatWindowDataset::len(self)
    }

    fn max_history_entry(&self) -> f64 {
        FlatWindowDataset::max_history_entry(self)
    }

    fn push_history(&self, i: usize, out: &mut Vec<f64>) {
        for column in self.history(i) {
            out.extend_from_slice(column);
        }
    }

    fn push_target(&self, i: usize, out: &mut Vec<f64>) {
        out.extend_from_slice(self.target(i));
    }
}

/// The TEAL-like baseline's view of a dataset: every sample's one-matrix
/// "history" is its own target snapshot.
struct SameSnapshot<'a>(&'a WindowDataset);

impl Samples for SameSnapshot<'_> {
    fn len(&self) -> usize {
        self.0.samples.len()
    }

    fn max_history_entry(&self) -> f64 {
        self.0.samples.iter().map(|s| s.target.max_entry()).fold(0.0f64, f64::max)
    }

    fn push_history(&self, i: usize, out: &mut Vec<f64>) {
        push_pairs(&self.0.samples[i].target, out);
    }

    fn push_target(&self, i: usize, out: &mut Vec<f64>) {
        push_pairs(&self.0.samples[i].target, out);
    }
}

/// A TEAL-like baseline: the same architecture, but it receives only the most
/// recent demand matrix and is trained to optimize the MLU of *that same*
/// matrix (an amortized per-demand optimizer).  At evaluation time the
/// configuration computed from `D_{t-1}` is applied to `D_t`, exactly as the
/// paper does ("we apply the TE solution computed from the traffic demand of
/// the preceding time snapshot to the next time snapshot", §5.1).  See
/// DESIGN.md §5 for the substitution rationale (no GNN/RL).
pub struct TealLikeModel {
    inner: FigretModel,
}

impl std::fmt::Debug for TealLikeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TealLikeModel").field("inner", &self.inner).finish()
    }
}

impl TealLikeModel {
    /// Creates an untrained TEAL-like model.
    pub fn new(paths: &PathSet, config: FigretConfig) -> TealLikeModel {
        let cfg = FigretConfig { history_window: 1, robustness_weight: 0.0, ..config };
        TealLikeModel { inner: FigretModel::new(paths, &vec![0.0; paths.num_pairs()], cfg) }
    }

    /// Trains the model to minimize the MLU of the snapshot it receives.
    pub fn train(&mut self, dataset: &WindowDataset) -> TrainingReport {
        self.inner.train_on(&SameSnapshot(dataset))
    }

    /// Computes a configuration for the *given* demand matrix (apply it to the
    /// following snapshot to reproduce the paper's evaluation protocol).
    pub fn predict(&mut self, paths: &PathSet, demand: &DemandMatrix) -> TeConfig {
        self.inner.predict(paths, std::slice::from_ref(demand))
    }

    /// Batched counterpart of [`TealLikeModel::predict`]: one configuration
    /// per demand matrix via a single forward pass.
    pub fn predict_batch(&mut self, paths: &PathSet, demands: &[DemandMatrix]) -> Vec<TeConfig> {
        let histories: Vec<Vec<DemandMatrix>> = demands.iter().map(|d| vec![d.clone()]).collect();
        self.inner.predict_batch(paths, &histories)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_te::max_link_utilization;
    use figret_topology::{Topology, TopologySpec};
    use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
    use figret_traffic::{per_pair_variance_range, TrainTestSplit};

    fn setup() -> (PathSet, figret_traffic::TrafficTrace) {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let trace = pod_trace(&g, &PodTrafficConfig { num_snapshots: 120, ..Default::default() });
        (ps, trace)
    }

    #[test]
    fn training_reduces_the_loss() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 6, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
        let mut model = FigretModel::new(&ps, &variances, config);
        assert!(model.num_parameters() > 0);
        let report = model.train(&dataset);
        assert_eq!(report.epochs.len(), 6);
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.final_loss().unwrap();
        assert!(last < first, "training must reduce the loss ({first} -> {last})");
        assert!(report.wall_seconds > 0.0);
        assert_eq!(report.samples_per_epoch, dataset.len());
    }

    #[test]
    fn trained_model_beats_uniform_splitting() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig::fast_test();
        let h = config.history_window;
        let train = WindowDataset::from_trace(&trace, h, split.train.clone());
        let test = WindowDataset::from_trace(&trace, h, split.test.clone());
        let mut model = FigretModel::new(&ps, &variances, config);
        model.train(&train);
        let uniform = TeConfig::uniform(&ps);
        let mut model_total = 0.0;
        let mut uniform_total = 0.0;
        for sample in &test.samples {
            let cfg = model.predict(&ps, &sample.history);
            assert!(cfg.is_valid(&ps));
            model_total += max_link_utilization(&ps, &cfg, &sample.target);
            uniform_total += max_link_utilization(&ps, &uniform, &sample.target);
        }
        assert!(
            model_total < uniform_total,
            "trained FIGRET ({model_total:.3}) should beat uniform splitting ({uniform_total:.3})"
        );
    }

    #[test]
    fn dote_is_figret_without_penalty() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config =
            FigretConfig { robustness_weight: 0.0, epochs: 2, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
        let mut dote = FigretModel::new(&ps, &variances, config);
        let report = dote.train(&dataset);
        for e in &report.epochs {
            assert_eq!(e.mean_penalty, 0.0, "DOTE must not accumulate a robustness penalty");
            assert!((e.mean_loss - e.mean_mlu).abs() < 1e-12);
        }
    }

    #[test]
    fn figret_penalizes_sensitive_configs_more_than_dote() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let figret_cfg =
            FigretConfig { robustness_weight: 2.0, epochs: 3, ..FigretConfig::fast_test() };
        let h = figret_cfg.history_window;
        let dataset = WindowDataset::from_trace(&trace, h, split.train.clone());
        let mut figret = FigretModel::new(&ps, &variances, figret_cfg);
        let report = figret.train(&dataset);
        // The penalty term must be active (non-zero) for FIGRET.
        assert!(report.epochs.iter().any(|e| e.mean_penalty > 0.0));
    }

    #[test]
    fn teal_like_model_trains_and_predicts() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let config = FigretConfig { epochs: 3, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
        let mut teal = TealLikeModel::new(&ps, config);
        let report = teal.train(&dataset);
        assert!(!report.epochs.is_empty());
        let cfg = teal.predict(&ps, trace.matrix(trace.len() - 2));
        assert!(cfg.is_valid(&ps));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 2, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
        let run = |cfg: FigretConfig| {
            let mut model = FigretModel::new(&ps, &variances, cfg);
            let report = model.train(&dataset);
            report.epochs.iter().map(|e| e.mean_loss).collect::<Vec<_>>()
        };
        // Identical loss trajectories regardless of when/where the parallel
        // microbatch gradients were computed.
        assert_eq!(run(config.clone()), run(config));
    }

    #[test]
    fn train_flat_bit_matches_dense_training() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 3, ..FigretConfig::fast_test() };
        let h = config.history_window;
        let dense = WindowDataset::from_trace(&trace, h, split.train.clone());
        // The same training range as flat columns: matrices 0..cut flattened
        // in slot order, so flat sample `i` is dense sample `i` exactly.
        let columns: Vec<Vec<f64>> =
            split.train.clone().map(|t| trace.matrix(t).flatten_pairs()).collect();
        let flat = FlatWindowDataset::from_columns(h, columns);
        assert_eq!(flat.len(), dense.len());

        let mut dense_model = FigretModel::new(&ps, &variances, config.clone());
        let dense_report = dense_model.train(&dense);
        let mut flat_model = FigretModel::new(&ps, &variances, config);
        let flat_report = flat_model.train_flat(&flat);

        // Same shuffle, same chunking, same arithmetic: per-epoch stats are
        // bit-equal, not merely close.
        for (d, f) in dense_report.epochs.iter().zip(&flat_report.epochs) {
            assert_eq!(d.mean_loss, f.mean_loss);
            assert_eq!(d.mean_mlu, f.mean_mlu);
            assert_eq!(d.mean_penalty, f.mean_penalty);
        }
        // And so are the trained predictors.
        let t = trace.len() - 1;
        let history: Vec<DemandMatrix> = (t - h..t).map(|i| trace.matrix(i).clone()).collect();
        let flat_history: Vec<Vec<f64>> = history.iter().map(|m| m.flatten_pairs()).collect();
        let dense_cfg = dense_model.predict(&ps, &history);
        let flat_cfg = flat_model.predict_flat(&ps, &flat_history);
        assert_eq!(dense_cfg.ratios(), flat_cfg.ratios());
    }

    #[test]
    fn mini_batch_training_tracks_single_sample_training() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let base = FigretConfig { epochs: 6, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, base.history_window, split.train.clone());

        let final_loss = |batch_size: usize| {
            let cfg = FigretConfig { batch_size, ..base.clone() };
            let mut model = FigretModel::new(&ps, &variances, cfg);
            model.train(&dataset).final_loss().unwrap()
        };
        let single = final_loss(1);
        let batched = final_loss(8);
        // Both settings optimize the same objective from the same
        // initialization; the final mean losses must agree within a loose
        // tolerance even though the update trajectories differ.
        let gap = (single - batched).abs() / single.max(1e-9);
        assert!(
            gap < 0.35,
            "batch=8 final loss {batched} strays too far from batch=1 final loss {single}"
        );
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 1, ..FigretConfig::fast_test() };
        let h = config.history_window;
        let dataset = WindowDataset::from_trace(&trace, h, split.train.clone());
        let mut model = FigretModel::new(&ps, &variances, config);
        model.train(&dataset);
        let histories: Vec<Vec<figret_traffic::DemandMatrix>> =
            (h..h + 5).map(|t| (t - h..t).map(|i| trace.matrix(i).clone()).collect()).collect();
        let batched = model.predict_batch(&ps, &histories);
        assert_eq!(batched.len(), histories.len());
        for (history, batched_cfg) in histories.iter().zip(&batched) {
            let single = model.predict(&ps, history);
            assert!(batched_cfg.is_valid(&ps));
            for p in 0..ps.num_paths() {
                assert!(
                    (single.ratio(p) - batched_cfg.ratio(p)).abs() < 1e-12,
                    "batched prediction must equal the single-sample prediction"
                );
            }
        }
    }

    #[test]
    fn compiled_plan_matches_graph_prediction() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 2, ..FigretConfig::fast_test() };
        let h = config.history_window;
        let dataset = WindowDataset::from_trace(&trace, h, split.train.clone());
        let mut model = FigretModel::new(&ps, &variances, config);
        model.train(&dataset);
        let mut plan = model.compile_plan();
        assert_eq!(plan.input_dim(), h * ps.num_pairs());
        assert_eq!(plan.output_dim(), ps.num_paths());

        let mut raw = vec![0.0; ps.num_paths()];
        for t in h..h + 4 {
            let history: Vec<DemandMatrix> = (t - h..t).map(|i| trace.matrix(i).clone()).collect();
            // The plan takes *raw* features; scaling happens inside.
            let mut features = Vec::new();
            for m in &history {
                features.extend(m.flatten_pairs());
            }
            plan.forward(&features, &mut raw);
            let plan_cfg = TeConfig::from_raw(&ps, &raw);
            let graph_cfg = model.predict(&ps, &history);
            assert!(plan_cfg.is_valid(&ps));
            for p in 0..ps.num_paths() {
                let (a, b) = (plan_cfg.ratio(p), graph_cfg.ratio(p));
                assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                    "path {p}: plan ratio {a} vs graph ratio {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly H demand matrices")]
    fn predict_checks_history_length() {
        let (ps, trace) = setup();
        let mut model =
            FigretModel::new(&ps, &vec![0.0; ps.num_pairs()], FigretConfig::fast_test());
        let _ = model.predict(&ps, &trace.matrices()[..2]);
    }
}
