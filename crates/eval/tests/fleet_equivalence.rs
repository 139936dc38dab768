//! Fleet acceptance contracts of the sharded serving harness (DESIGN.md §8):
//!
//! * a one-shard fleet replays the unsharded controller bit for bit, on a
//!   Table 1 network (GEANT) and on a two-tier pod fabric — equal records
//!   and equal digests, so CI can diff the printed digest lines between
//!   `--shards 1` and the unsharded path;
//! * a multi-shard fleet on the pod fabric is bit-deterministic across
//!   *processes* with different `RAYON_NUM_THREADS` (the vendored rayon
//!   caches its thread count per process, so the variation must cross a
//!   process boundary — this test drives the real `serve_sim` binary).

use figret_eval::experiments::ExperimentOptions;
use figret_eval::fleet::serve_fleet;
use figret_eval::serving::{serve, ServeEngine, ServeSimOptions, ServeTopology};
use figret_serve::{FallbackPolicy, PredictorKind, ReconfigPolicy, UpdateBudget};
use figret_topology::{FabricSpec, Topology};

fn gated_policy() -> ReconfigPolicy {
    // Real gates to exercise: hysteresis holds and a budget that exhausts,
    // so the admission layer must reproduce the controller's sequence.
    ReconfigPolicy {
        hysteresis: 0.02,
        budget: Some(UpdateBudget::per_window(2, 6)),
        fallback: FallbackPolicy::disabled(),
    }
}

fn geant_options() -> ServeSimOptions {
    ServeSimOptions {
        experiment: ExperimentOptions { window: 4, snapshots: 60, ..Default::default() },
        topology: ServeTopology::Table1(Topology::Geant),
        engine: ServeEngine::Lp,
        predictor: PredictorKind::LastValue,
        policy: gated_policy(),
        online_ticks: 0,
        max_ticks: Some(12),
        use_plan: false,
        shards: 0,
        ..ServeSimOptions::new(ExperimentOptions::default())
    }
}

#[test]
fn one_shard_fleet_replays_unsharded_geant() {
    let options = geant_options();
    let solo = serve(&options);
    let fleet = serve_fleet(&options, 1);
    assert_eq!(fleet.logs.len(), 1);
    assert_eq!(fleet.ticks(), solo.log.len());
    assert_eq!(fleet.logs[0].records, solo.log.records, "one-shard fleet must replay GEANT");
    assert_eq!(fleet.digest, solo.log.digest());
    assert_eq!(fleet.decision_digest, solo.log.decision_digest());
    assert!(solo.log.update_count() > 0, "the comparison must exercise real updates");
    assert!(
        solo.log.update_count() < solo.log.len(),
        "the gates must hold at least one tick for the admission layer to prove itself"
    );
}

#[test]
fn one_shard_fleet_replays_unsharded_pod_fabric() {
    let spec = FabricSpec::two_tier(16);
    let options = ServeSimOptions {
        experiment: ExperimentOptions {
            fast: true,
            snapshots: 12,
            window: 2,
            ..Default::default()
        },
        topology: ServeTopology::Fabric(spec),
        engine: ServeEngine::Lp,
        policy: gated_policy(),
        max_ticks: Some(8),
        ..ServeSimOptions::new(ExperimentOptions::default())
    };
    let solo = serve(&options);
    let fleet = serve_fleet(&options, 1);
    assert_eq!(fleet.logs.len(), 1);
    assert_eq!(fleet.logs[0].records, solo.log.records, "one-shard fleet must replay the fabric");
    assert_eq!(fleet.digest, solo.log.digest());
    assert_eq!(fleet.decision_digest, solo.log.decision_digest());
    assert_eq!(fleet.total_pairs, solo.pairs_per_tick);
}

#[test]
fn multi_shard_pod_fabric_fleet_is_deterministic() {
    let spec = FabricSpec::two_tier(16);
    let options = ServeSimOptions {
        experiment: ExperimentOptions {
            fast: true,
            snapshots: 12,
            window: 2,
            ..Default::default()
        },
        topology: ServeTopology::Fabric(spec),
        engine: ServeEngine::Lp,
        policy: gated_policy(),
        max_ticks: Some(8),
        ..ServeSimOptions::new(ExperimentOptions::default())
    };
    let a = serve_fleet(&options, 4);
    let b = serve_fleet(&options, 4);
    assert_eq!(a.logs.len(), 4);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.decision_digest, b.decision_digest);
    for (x, y) in a.global_mlus.iter().zip(&b.global_mlus) {
        assert_eq!(x.to_bits(), y.to_bits(), "global MLU series must be bit-identical");
    }
    assert_eq!(a.admission, b.admission);
}

/// Extracts the digest report lines (`decision_log_digest,…` and
/// `decision_digest,…`) from a `serve_sim` run.
fn digest_lines(output: &str) -> Vec<&str> {
    output
        .lines()
        .filter(|l| l.starts_with("decision_log_digest,") || l.starts_with("decision_digest,"))
        .collect()
}

#[test]
fn serve_sim_fleet_digests_agree_across_thread_counts_and_with_unsharded() {
    let run = |threads: &str, shards: &str| -> String {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve_sim"))
            .args([
                "--topology",
                "podfab16",
                "--engine",
                "lp",
                "--fast",
                "--snapshots",
                "10",
                "--window",
                "2",
                "--max-eval",
                "6",
                "--shards",
                shards,
            ])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("serve_sim must run");
        assert!(out.status.success(), "serve_sim failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let sharded_1t = run("1", "4");
    let sharded_4t = run("4", "4");
    let d1 = digest_lines(&sharded_1t);
    assert_eq!(d1.len(), 2, "the fleet report must print both digest lines");
    assert_eq!(d1, digest_lines(&sharded_4t), "fleet digests must not depend on the thread count");
    // `--shards 1` must print the exact digests of the unsharded path.
    let fleet_one = run("4", "1");
    let unsharded = run("4", "0");
    assert_eq!(
        digest_lines(&fleet_one),
        digest_lines(&unsharded),
        "a one-shard fleet must reproduce the unsharded digests"
    );
}

/// Without `--fast` the fabric fan-out (16 destinations per source) exceeds
/// a 16-ToR pod fabric's 15 possible destinations; the inputs builder clamps
/// it, so the run serves every ToR pair.
#[test]
fn podfab16_serves_without_fast() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .args(["--topology", "podfab16", "--engine", "lp", "--snapshots", "6"])
        .args(["--window", "2", "--max-eval", "2"])
        .output()
        .expect("serve_sim must run");
    assert!(out.status.success(), "serve_sim failed: {}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(report.contains("240 (100.00% of ToR pairs)"), "unexpected pair universe:\n{report}");
    assert_eq!(digest_lines(&report).len(), 2, "the report must print both digests:\n{report}");
}
