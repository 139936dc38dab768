//! Table 2 — precomputation (training) time.
//!
//! Benchmarks one FIGRET training epoch and one TEAL-like training epoch on
//! the PoD-level fabric, the quantities behind the "Precomp. time" columns of
//! Table 2 (FIGRET vs. TEAL).  Full training multiplies the per-epoch cost by
//! the configured epoch count.  `figret_train_geant_default` is a full
//! training run: the default configuration on a 64-snapshot GEANT prefix,
//! the set-up a learned GEANT controller pays before its first decision.

use criterion::{criterion_group, criterion_main, Criterion};

use figret::{FigretConfig, FigretModel, TealLikeModel};
use figret_bench::bench_setup;
use figret_te::PathSet;
use figret_topology::{Topology, TopologySpec};
use figret_traffic::wan::{wan_trace, WanTrafficConfig};
use figret_traffic::{per_pair_variance_range, WindowDataset};

fn training_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_training_time");
    group.sample_size(10);

    let scenario = bench_setup(Topology::MetaDbPod, 120);
    let window = 8;
    let variances = per_pair_variance_range(&scenario.trace, scenario.split.train.clone());
    let dataset = WindowDataset::from_trace(&scenario.trace, window, scenario.split.train.clone());
    let one_epoch = FigretConfig { history_window: window, epochs: 1, ..FigretConfig::fast_test() };

    group.bench_function("figret_one_epoch_pod_db", |b| {
        b.iter(|| {
            let mut model = FigretModel::new(&scenario.paths, &variances, one_epoch.clone());
            model.train(&dataset)
        })
    });
    group.bench_function("teal_like_one_epoch_pod_db", |b| {
        b.iter(|| {
            let mut model = TealLikeModel::new(&scenario.paths, one_epoch.clone());
            model.train(&dataset)
        })
    });

    // The speedup the batched execution core buys: a forced serial
    // single-sample configuration (the seed's original update rule, one Adam
    // step per sample) against the batched data-parallel path.
    let batch1_serial = FigretConfig { batch_size: 1, ..one_epoch.clone() };
    group.bench_function("figret_one_epoch_batch1_serial", |b| {
        b.iter(|| {
            let mut model = FigretModel::new(&scenario.paths, &variances, batch1_serial.clone());
            model.train(&dataset)
        })
    });
    let batched_parallel = FigretConfig { batch_size: 32, ..one_epoch.clone() };
    group.bench_function("figret_one_epoch_batch32_parallel", |b| {
        b.iter(|| {
            let mut model = FigretModel::new(&scenario.paths, &variances, batched_parallel.clone());
            model.train(&dataset)
        })
    });

    // Full default training on GEANT (506 pairs, H = 12): the first layer's
    // 6072×128 weight dominates, the regime the weight-stationary step is for.
    let geant = TopologySpec::reduced(Topology::Geant).build();
    let geant_paths = PathSet::k_shortest(&geant, 3);
    let prefix = 64;
    let geant_trace =
        wan_trace(&geant, &WanTrafficConfig { num_snapshots: prefix, ..Default::default() });
    let default_config = FigretConfig::default();
    let geant_variances = per_pair_variance_range(&geant_trace, 0..prefix);
    let geant_dataset =
        WindowDataset::from_trace(&geant_trace, default_config.history_window, 0..prefix);
    group.bench_function("figret_train_geant_default", |b| {
        b.iter(|| {
            let mut model =
                FigretModel::new(&geant_paths, &geant_variances, default_config.clone());
            model.train(&geant_dataset)
        })
    });
    group.finish();
}

criterion_group!(benches, training_time);
criterion_main!(benches);
