//! Golden training digests: the pinned proof that the trainer's arithmetic
//! does not move.
//!
//! Each case trains a `fast_test`-sized model on GEANT or PoD DB with
//! `batch_size = 32` (so one optimizer step spans four microbatches, and the
//! last batch of an epoch is a partial one), then pins two numbers:
//!
//! * the `to_bits()` of the final epoch's mean loss, and
//! * an FNV-1a checksum over the `to_bits()` of a prediction's split ratios.
//!
//! A refactor of the tensor kernels, the autograd tape, the optimizer or the
//! training loop must leave this table untouched — bit for bit, not merely
//! close.  CI runs this test at `RAYON_NUM_THREADS=1` and `=4`; both must
//! match the same table.

use figret::{FigretConfig, FigretModel, TealLikeModel};
use figret_te::{PathSet, TeConfig};
use figret_topology::{Topology, TopologySpec};
use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
use figret_traffic::wan::{wan_trace, WanTrafficConfig};
use figret_traffic::{
    per_pair_variance_range, DemandMatrix, FlatWindowDataset, TrafficTrace, TrainTestSplit,
    WindowDataset,
};

const SNAPSHOTS: usize = 56;

fn scenario(topology: Topology) -> (PathSet, TrafficTrace) {
    let g = TopologySpec::full_scale(topology).build();
    let paths = PathSet::k_shortest(&g, 3);
    let trace = match topology {
        Topology::Geant => {
            wan_trace(&g, &WanTrafficConfig { num_snapshots: SNAPSHOTS, ..Default::default() })
        }
        _ => pod_trace(&g, &PodTrafficConfig { num_snapshots: SNAPSHOTS, ..Default::default() }),
    };
    (paths, trace)
}

fn config() -> FigretConfig {
    FigretConfig { batch_size: 32, ..FigretConfig::fast_test() }
}

/// FNV-1a over the bit patterns of a configuration's split ratios.
fn checksum(cfg: &TeConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in cfg.ratios() {
        for b in r.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The last `H` matrices of the trace: a history window the model never
/// trained on as a whole.
fn last_history(trace: &TrafficTrace, h: usize) -> Vec<DemandMatrix> {
    let t = trace.len();
    (t - h..t).map(|i| trace.matrix(i).clone()).collect()
}

/// `(final loss bits, prediction checksum)` of `train` on the dense dataset.
fn train_dense(topology: Topology) -> (u64, u64) {
    let (paths, trace) = scenario(topology);
    let split = TrainTestSplit::chronological(trace.len(), 0.75);
    let variances = per_pair_variance_range(&trace, split.train.clone());
    let cfg = config();
    let h = cfg.history_window;
    let dataset = WindowDataset::from_trace(&trace, h, split.train);
    assert!(dataset.len() > 32, "one epoch must span a full and a partial batch");
    let mut model = FigretModel::new(&paths, &variances, cfg);
    let report = model.train(&dataset);
    let loss = report.final_loss().expect("epochs ran").to_bits();
    (loss, checksum(&model.predict(&paths, &last_history(&trace, h))))
}

/// `(final loss bits, prediction checksum)` of `train_flat` on the same
/// training range as flat columns.
fn train_flat(topology: Topology) -> (u64, u64) {
    let (paths, trace) = scenario(topology);
    let split = TrainTestSplit::chronological(trace.len(), 0.75);
    let variances = per_pair_variance_range(&trace, split.train.clone());
    let cfg = config();
    let h = cfg.history_window;
    let columns: Vec<Vec<f64>> = split.train.map(|t| trace.matrix(t).flatten_pairs()).collect();
    let dataset = FlatWindowDataset::from_columns(h, columns);
    let mut model = FigretModel::new(&paths, &variances, cfg);
    let report = model.train_flat(&dataset);
    let loss = report.final_loss().expect("epochs ran").to_bits();
    let history: Vec<Vec<f64>> =
        last_history(&trace, h).iter().map(|m| m.flatten_pairs()).collect();
    (loss, checksum(&model.predict_flat(&paths, &history)))
}

/// `(final loss bits, prediction checksum)` of the TEAL-like baseline.
fn train_teal(topology: Topology) -> (u64, u64) {
    let (paths, trace) = scenario(topology);
    let split = TrainTestSplit::chronological(trace.len(), 0.75);
    let cfg = config();
    let dataset = WindowDataset::from_trace(&trace, cfg.history_window, split.train);
    let mut model = TealLikeModel::new(&paths, cfg);
    let report = model.train(&dataset);
    let loss = report.final_loss().expect("epochs ran").to_bits();
    (loss, checksum(&model.predict(&paths, trace.matrix(trace.len() - 1))))
}

fn assert_golden(case: &str, got: (u64, u64), expected: (u64, u64)) {
    assert_eq!(
        (format!("{:#018x}", got.0), format!("{:#018x}", got.1)),
        (format!("{:#018x}", expected.0), format!("{:#018x}", expected.1)),
        "{case} moved off its golden (final loss bits, prediction checksum)"
    );
}

#[test]
fn geant_train() {
    assert_golden(
        "GEANT train",
        train_dense(Topology::Geant),
        (0x4014_6aa3_bced_457e, 0x8635_1fba_c32d_a687),
    );
}

#[test]
fn geant_train_flat() {
    assert_golden(
        "GEANT train_flat",
        train_flat(Topology::Geant),
        (0x4014_6aa3_bced_457e, 0x8635_1fba_c32d_a687),
    );
}

#[test]
fn geant_teal_like() {
    assert_golden(
        "GEANT TealLikeModel::train",
        train_teal(Topology::Geant),
        (0x4014_d375_dae0_54b1, 0x5f01_7d93_ca0c_5c28),
    );
}

#[test]
fn poddb_train() {
    assert_golden(
        "PoD DB train",
        train_dense(Topology::MetaDbPod),
        (0x3fe8_8858_d5fe_717d, 0xa95d_08cc_fb38_6f86),
    );
}

#[test]
fn poddb_train_flat() {
    assert_golden(
        "PoD DB train_flat",
        train_flat(Topology::MetaDbPod),
        (0x3fe8_8858_d5fe_717d, 0xa95d_08cc_fb38_6f86),
    );
}

#[test]
fn poddb_teal_like() {
    assert_golden(
        "PoD DB TealLikeModel::train",
        train_teal(Topology::MetaDbPod),
        (0x3fe7_f102_1fc0_2bac, 0xdd20_f50e_f599_1912),
    );
}
