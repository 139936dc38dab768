//! Sharded-fleet serving harness and report (`serve_sim --shards N`;
//! DESIGN.md §8).
//!
//! Drives a [`figret_serve::FleetController`] through the same inputs
//! builder and driver loop as the single-controller path
//! ([`crate::serving`]) — same pair universe, path set, columns, warmup and
//! tick schedule — so a one-shard fleet replays the unsharded run bit for
//! bit (the golden digests pin both).  Shards are balanced contiguous
//! source blocks ([`figret_traffic::ShardPlan::source_blocks`]); every
//! shard serves the warm-started LP.
//!
//! The report answers the fleet-scaling questions: aggregate decisions/sec
//! and wall-clock ticks/sec, per-shard decision-latency percentiles, and
//! the shared admission layer's grant/hold statistics under the joint
//! update budget.

use figret_serve::{AdmissionStats, FleetController, HoldReason, ServeLog, Transition};
use figret_solvers::SeriesStats;
use figret_telemetry::Registry;
use figret_traffic::{ShardPlan, StreamAnnotation};

use crate::profile::print_profile_report;
use crate::report::{
    latency_histogram, latency_us, lp_work_columns, lp_work_header, print_csv_series, print_table,
};
use crate::serving::{
    drive, engine_name, print_fabric_memory, FabricMemory, ServeEngine, ServeInputs,
    ServeSimOptions, Server,
};

/// The result of one sharded fleet serving run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Display name (topology, shard count, predictor).
    pub name: String,
    /// Shard labels, in stable shard order.
    pub shard_labels: Vec<String>,
    /// Pairs owned by each shard, in stable shard order.
    pub shard_pairs: Vec<usize>,
    /// Per-shard decision logs, in stable shard order.
    pub logs: Vec<ServeLog>,
    /// Exact global realized MLU per fleet tick (merged shard loads).
    pub global_mlus: Vec<f64>,
    /// Aggregate admission counters of the joint budget/hysteresis layer.
    pub admission: AdmissionStats,
    /// LP solver work summed over all shards.
    pub lp_stats: SeriesStats,
    /// Wall-clock seconds of the serving loop end to end.
    pub serve_seconds: f64,
    /// Pairs decided per fleet tick (the parent-universe size).
    pub total_pairs: usize,
    /// Fleet log digest ([`FleetController::digest`]): equals the unsharded
    /// log digest for a one-shard fleet.
    pub digest: u64,
    /// Fleet decision digest ([`FleetController::decision_digest`]).
    pub decision_digest: u64,
    /// Fabric runs only: demand-storage accounting.
    pub memory: Option<FabricMemory>,
    /// Final merged telemetry snapshot (fleet phases + every shard's
    /// registry, merged in stable shard order), when the run was armed.
    pub telemetry: Option<Registry>,
}

impl FleetRun {
    /// Fleet ticks served (every shard ticks once per fleet tick).
    pub fn ticks(&self) -> usize {
        self.logs.first().map_or(0, ServeLog::len)
    }

    /// Wall-clock fleet ticks per second.
    pub fn ticks_per_second(&self) -> f64 {
        self.ticks() as f64 / self.serve_seconds.max(1e-12)
    }

    /// Aggregate per-pair routing decisions per second: each fleet tick
    /// decides a split ratio for every active pair.
    pub fn decisions_per_second(&self) -> f64 {
        self.ticks() as f64 * self.total_pairs as f64 / self.serve_seconds.max(1e-12)
    }

    /// Deployed updates summed over all shards.
    pub fn update_count(&self) -> usize {
        self.logs.iter().map(ServeLog::update_count).sum()
    }
}

/// A fleet and the exact global-MLU series the driver records.
struct Fleet {
    fleet: FleetController,
    global_mlus: Vec<f64>,
}

impl Server for Fleet {
    fn warm(&mut self, column: &[f64]) {
        self.fleet.observe_column(column);
    }

    fn tick(&mut self, column: &[f64], _: Option<StreamAnnotation>) -> (usize, Vec<Transition>) {
        let out = self.fleet.step_column(column);
        self.global_mlus.push(out.global_mlu);
        // LP shards raise no recovery transitions.
        (out.tick, Vec::new())
    }

    fn enable_telemetry(&mut self) {
        self.fleet.enable_telemetry();
    }

    fn telemetry_snapshot(&self) -> Option<Registry> {
        self.fleet.telemetry_snapshot()
    }
}

/// Runs a sharded LP fleet over the options' scenario; see the module docs.
///
/// # Panics
///
/// Panics without at least one shard, with the learned engine, or on
/// options [`ServeSimOptions::validate`] rejects.
pub fn serve_fleet(options: &ServeSimOptions, shards: usize) -> FleetRun {
    assert!(shards >= 1, "a fleet needs at least one shard");
    assert_eq!(options.engine, ServeEngine::Lp, "fleet shards serve the LP engine");
    let mut inputs = ServeInputs::build(options);
    let plan = ShardPlan::source_blocks(&inputs.active, inputs.num_tors, shards);
    let fleet = FleetController::lp(
        &plan,
        &inputs.paths,
        options.experiment.window,
        options.predictor,
        &options.policy,
    );
    let mut served = Fleet { fleet, global_mlus: Vec::with_capacity(inputs.indices.len()) };
    let serve_seconds = drive(&mut inputs, &mut served, options);
    let Fleet { fleet, global_mlus } = served;
    FleetRun {
        name: format!(
            "{} ({}, fleet, {} shards, {}, {} predictor)",
            inputs.network,
            inputs.kind,
            fleet.num_shards(),
            engine_name(options),
            options.predictor.build().name()
        ),
        shard_labels: fleet.shard_labels().into_iter().map(str::to_string).collect(),
        shard_pairs: fleet.shard_pairs(),
        global_mlus,
        admission: fleet.admission_stats(),
        lp_stats: fleet.lp_stats(),
        serve_seconds,
        total_pairs: fleet.total_pairs(),
        digest: fleet.digest(),
        decision_digest: fleet.decision_digest(),
        memory: inputs.memory(),
        telemetry: fleet.telemetry_snapshot(),
        logs: fleet.into_logs(),
    }
}

/// Prints the fleet report: aggregate throughput, admission statistics,
/// per-shard latency percentiles, the global-MLU series and the fleet
/// digests (key-compatible with the unsharded report for CI diffs).
pub fn print_fleet_report(run: &FleetRun) {
    println!("\n# serve_sim — {}", run.name);
    let ticks = run.ticks();
    let updates = run.update_count();
    let adm = run.admission;
    let global_max = run.global_mlus.iter().copied().fold(0.0f64, f64::max);
    let global_mean = if run.global_mlus.is_empty() {
        0.0
    } else {
        run.global_mlus.iter().sum::<f64>() / run.global_mlus.len() as f64
    };
    let rows = vec![
        vec!["shards".to_string(), format!("{}", run.logs.len())],
        vec!["active pairs (total)".to_string(), format!("{}", run.total_pairs)],
        vec!["fleet ticks".to_string(), format!("{ticks}")],
        vec!["ticks/sec (wall clock)".to_string(), format!("{:.1}", run.ticks_per_second())],
        vec![
            "aggregate decisions/sec".to_string(),
            format!("{:.0} ({} pairs/tick)", run.decisions_per_second(), run.total_pairs),
        ],
        vec!["updates deployed".to_string(), format!("{updates}")],
        vec![
            "admission bids/wants/grants".to_string(),
            format!("{} / {} / {}", adm.bids, adm.wants, adm.grants),
        ],
        vec![
            "admission holds hysteresis/budget".to_string(),
            format!("{} / {}", adm.holds_hysteresis, adm.holds_budget),
        ],
        vec!["global MLU mean/max".to_string(), format!("{global_mean:.4} / {global_max:.4}")],
    ];
    print_table("fleet summary", &["metric", "value"], &rows);

    let shard_rows: Vec<Vec<String>> = run
        .logs
        .iter()
        .enumerate()
        .map(|(i, log)| {
            let lat = latency_histogram(&log.latencies_seconds);
            vec![
                run.shard_labels[i].clone(),
                format!("{}", run.shard_pairs[i]),
                format!("{}", log.update_count()),
                format!("{}", log.hold_count(HoldReason::BelowHysteresis)),
                format!("{}", log.hold_count(HoldReason::BudgetExhausted)),
                latency_us(&lat, 0.5),
                latency_us(&lat, 0.99),
            ]
        })
        .collect();
    print_table(
        "per-shard serving",
        &["shard", "pairs", "updates", "holds hys", "holds budget", "lat p50", "lat p99"],
        &shard_rows,
    );

    let mut work_header = vec!["engine"];
    work_header.extend(lp_work_header());
    let mut work_row = vec!["fleet LP (all shards)".to_string()];
    work_row.extend(lp_work_columns(&run.lp_stats));
    print_table("LP solver work (shard re-solves)", &work_header, &[work_row]);

    if let Some(mem) = &run.memory {
        print_fabric_memory(mem);
    }

    if let Some(registry) = &run.telemetry {
        print_profile_report(registry, run.serve_seconds);
    }

    print_csv_series("global_mlu", &run.global_mlus);
    // Same keys as the unsharded report: for `--shards 1` both digests must
    // equal the single-controller run's, and CI diffs the lines directly.
    println!("decision_log_digest,{:#018x}", run.digest);
    println!("decision_digest,{:#018x}", run.decision_digest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentOptions;
    use crate::serving::{serve, ServeTopology};
    use figret_serve::ReconfigPolicy;
    use figret_topology::FabricSpec;

    fn fabric_options(spec: FabricSpec) -> ServeSimOptions {
        let experiment =
            ExperimentOptions { fast: true, snapshots: 10, window: 2, ..Default::default() };
        ServeSimOptions {
            engine: ServeEngine::Lp,
            policy: ReconfigPolicy::default(),
            max_ticks: Some(5),
            topology: ServeTopology::Fabric(spec),
            ..ServeSimOptions::new(experiment)
        }
    }

    #[test]
    fn one_shard_fabric_fleet_matches_the_unsharded_run() {
        let spec = FabricSpec::jellyfish(48);
        let options = fabric_options(spec);
        let solo = serve(&options);
        let fleet = serve_fleet(&options, 1);
        assert_eq!(fleet.logs.len(), 1);
        assert_eq!(fleet.logs[0].records, solo.log.records);
        assert_eq!(fleet.digest, solo.log.digest());
        assert_eq!(fleet.decision_digest, solo.log.decision_digest());
        // The merged global MLU of one shard is the shard's realized MLU.
        for (g, r) in fleet.global_mlus.iter().zip(&solo.log.records) {
            assert_eq!(g.to_bits(), r.realized_mlu.to_bits());
        }
        print_fleet_report(&fleet); // must not panic
    }

    #[test]
    fn multi_shard_fleet_partitions_and_reports() {
        let spec = FabricSpec::jellyfish(48);
        let options = fabric_options(spec);
        let fleet = serve_fleet(&options, 4);
        assert_eq!(fleet.logs.len(), 4);
        assert_eq!(fleet.shard_pairs.iter().sum::<usize>(), fleet.total_pairs);
        assert_eq!(fleet.ticks(), 5);
        assert!(fleet.global_mlus.iter().all(|m| m.is_finite() && *m > 0.0));
        assert_eq!(fleet.admission.ticks, 5);
        assert!(fleet.serve_seconds > 0.0);
        assert!(fleet.decisions_per_second() > 0.0);
        print_fleet_report(&fleet); // must not panic
    }

    #[test]
    fn table1_fleet_replay_runs_on_source_blocks() {
        let experiment = ExperimentOptions {
            fast: true,
            snapshots: 60,
            window: 4,
            max_eval: 8,
            ..Default::default()
        };
        let options = ServeSimOptions {
            engine: ServeEngine::Lp,
            policy: ReconfigPolicy::always_update(),
            max_ticks: Some(4),
            topology: ServeTopology::Table1(figret_topology::Topology::MetaDbPod),
            ..ServeSimOptions::new(experiment)
        };
        let fleet = serve_fleet(&options, 2);
        assert_eq!(fleet.logs.len(), 2);
        assert_eq!(fleet.ticks(), 4);
        assert_eq!(fleet.update_count(), 2 * 4, "always-update deploys every shard every tick");
    }
}
