//! The serving driver and its report (`serve_sim` binary; DESIGN.md §6).
//!
//! Every serving run goes through one loop, `drive`: `warmup` observation
//! columns, then one decision tick per scheduled demand column.
//! `ServeInputs::build` turns the options into that schedule — the path
//! set, the pair universe, the warmup and tick schedule, and a per-tick
//! pair-column source:
//!
//! * a replay of a Table 1 scenario's test split, converted to pair columns
//!   once at load (so every batch scenario is also a serving scenario, and
//!   results are directly comparable to [`crate::run_scheme`]);
//! * the unbounded online generator (diurnal + drift + flash crowds +
//!   failure storms), pulled one column per tick;
//! * a generated 512–4096-ToR fabric's sparse trace, on its restricted pair
//!   universe (nothing on that path materializes an `N×N` object).
//!
//! A single [`ServeController`] ([`serve`]) and a sharded fleet
//! ([`crate::fleet::serve_fleet`]) differ only in the per-tick call.  The
//! report scores what a production controller is judged by: MLU regret vs.
//! the omniscient per-tick optimum (one pass over the same columns), update
//! count against the budget, routing churn, and per-decision latency
//! percentiles.
//!
//! **Batch-equivalence contract:** with [`ReconfigPolicy::always_update`],
//! the LP engine and the last-value predictor, the replay re-solves exactly
//! the per-snapshot series of `run_scheme(Prediction(LastSnapshot))` through
//! an identical warm-started template, so its per-tick MLUs match the batch
//! path bit for bit (`tests/serve_equivalence.rs` enforces 1e-9).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use figret::FigretModel;
use figret_serve::{
    PredictorKind, ReconfigPolicy, RecoveryConfig, RecoveryStats, ServeController, ServeLog,
    Transition,
};
use figret_solvers::{MluTemplate, SeriesStats};
use figret_te::{max_link_utilization_pairs, normalize_by, PathSet, SchemeQuality};
use figret_telemetry::{exposition, JsonlSink, Registry};
use figret_topology::{FabricSpec, Topology};
use figret_traffic::{
    datacenter::{tor_trace_sparse, TorTrafficConfig},
    per_pair_variance_range, ActivePairs, OnlineStream, OnlineStreamConfig, SparseDemand,
    SparseDemandStream, SparseTrace, StepShiftConfig, StreamAnnotation, WindowDataset,
};

use crate::experiments::ExperimentOptions;
use crate::profile::print_profile_report;
use crate::report::{
    latency_histogram, latency_us, lp_work_columns, lp_work_header, print_csv_series, print_table,
};
use crate::scenario::Scenario;

/// Which engine the controller serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEngine {
    /// Warm-started LP re-solves only.
    Lp,
    /// Learned inference (trained on the scenario's train split) with the
    /// LP as audit reference and degradation fallback.
    Learned,
}

/// What network the controller serves: one of the paper's Table 1 networks
/// (dense pair universe), or a generated 512–4096-ToR fabric (restricted
/// pair universe, sparse end to end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTopology {
    /// One of the eight Table 1 networks.
    Table1(Topology),
    /// A large generated fabric; serving is LP-engine and sparse-columnar.
    Fabric(FabricSpec),
}

/// Options of one `serve_sim` run.
#[derive(Debug, Clone)]
pub struct ServeSimOptions {
    /// Common experiment options (scenario scale, window, fast mode).
    pub experiment: ExperimentOptions,
    /// Network to serve.
    pub topology: ServeTopology,
    /// Engine the controller serves from.
    pub engine: ServeEngine,
    /// Online predictor feeding the controller.
    pub predictor: PredictorKind,
    /// Reconfiguration policy (hysteresis, budget, fallback).
    pub policy: ReconfigPolicy,
    /// When > 0, serve this many ticks from the unbounded online generator
    /// (after warming up on it) instead of replaying the test split.
    pub online_ticks: usize,
    /// Cap on the number of replay decision ticks (`None` = the whole test
    /// split).  Streaming is contiguous, so the cap truncates rather than
    /// subsamples.
    pub max_ticks: Option<usize>,
    /// Learned engine only: serve from the compiled f32 inference plan
    /// (zero-alloc hot path) instead of the f64 autodiff graph.  Policy
    /// decisions must not change — CI diffs `decision_digest` between the
    /// two inference paths.
    pub use_plan: bool,
    /// When > 0, serve through a sharded [`figret_serve::FleetController`]
    /// with this many source-block shards under one global admission budget
    /// (`crate::fleet`).  `--shards 1` runs a one-shard fleet, whose digests
    /// must equal the unsharded path's.  0 = the single-controller path.
    pub shards: usize,
    /// Learned engine only: when > 0, enable the self-healing recovery
    /// ladder (DESIGN.md §9) and retrain a challenger every this many ticks
    /// while degraded.  0 leaves degradation terminal (PR 5 behavior).
    pub retrain_every: usize,
    /// Recovery: observed demand columns kept as the challenger's sliding
    /// training window.
    pub retrain_window: usize,
    /// Recovery: consecutive shadow-audit wins before a challenger is
    /// promoted back to live serving.
    pub promotion_patience: usize,
    /// Online mode only: when > 0, inject a deterministic step shift into
    /// the generated stream this many decision ticks into the run (the
    /// distribution-shift drill the recovery ladder is judged on).
    pub shift_tick: usize,
    /// Step-shift magnitude: even pair slots scale by the factor, odd slots
    /// by its reciprocal (aggregate volume is roughly preserved).
    pub shift_factor: f64,
    /// When set, arm out-of-band telemetry (DESIGN.md §10) and write a
    /// JSONL event stream to `<PATH>.jsonl` plus a final Prometheus-style
    /// exposition snapshot to `<PATH>.prom`.  Decision digests are
    /// bit-identical with telemetry armed or disarmed.
    pub metrics_out: Option<PathBuf>,
    /// Snapshot cadence of the JSONL stream, in decision ticks (transition
    /// events are always streamed as they happen).
    pub metrics_every: usize,
}

impl ServeSimOptions {
    /// Defaults: replay GEANT with the learned engine, last-value predictor
    /// and the default policy.
    pub fn new(experiment: ExperimentOptions) -> ServeSimOptions {
        ServeSimOptions {
            experiment,
            topology: ServeTopology::Table1(Topology::Geant),
            engine: ServeEngine::Learned,
            predictor: PredictorKind::LastValue,
            policy: ReconfigPolicy::default(),
            online_ticks: 0,
            max_ticks: None,
            use_plan: false,
            shards: 0,
            retrain_every: 0,
            retrain_window: 32,
            promotion_patience: 3,
            shift_tick: 0,
            shift_factor: 4.0,
            metrics_out: None,
            metrics_every: 10,
        }
    }

    /// Checks that the driver can serve this combination of options.  The
    /// error names the offending `serve_sim` flags; nothing is ever
    /// silently ignored.
    pub fn validate(&self) -> Result<(), String> {
        let learned = self.engine == ServeEngine::Learned;
        let fabric = matches!(self.topology, ServeTopology::Fabric(_));
        let error = if self.use_plan && !learned {
            "--inference plan requires --engine learned"
        } else if self.retrain_every > 0 && !learned {
            "--retrain-every requires --engine learned (recovery retrains a model)"
        } else if self.shift_tick > 0 && self.online_ticks == 0 {
            "--shift-tick shifts the generated stream; it requires --online-ticks"
        } else if learned && self.shards > 0 {
            "--shards serves a fleet of LP shards; pass --engine lp"
        } else if learned && fabric {
            "fabric topologies (torN, podfabN) serve the LP engine; pass --engine lp"
        } else if fabric && self.online_ticks > 0 {
            "--online-ticks generates traffic on Table 1 networks; fabrics replay their trace"
        } else {
            return Ok(());
        };
        Err(error.to_string())
    }

    /// The recovery configuration of the run, when recovery is on.
    fn recovery_config(&self) -> Option<RecoveryConfig> {
        (self.retrain_every > 0).then(|| RecoveryConfig {
            retrain_window: self.retrain_window,
            retrain_every: self.retrain_every,
            promotion_patience: self.promotion_patience,
            // Challengers train on a handful of recent columns, so rounds
            // are cheap even at serving-grade depth; shallow retraining
            // plateaus far above the LP and never clears the audit margin.
            retrain_epochs: 150,
            ..RecoveryConfig::default()
        })
    }
}

/// The live metrics stream of an armed run: transition events as they
/// happen, registry snapshots every `every` decision ticks, a final
/// snapshot at end of run, and the Prometheus-style exposition file written
/// by [`MetricsStream::finish`].
struct MetricsStream {
    sink: JsonlSink,
    every: usize,
    prom_path: PathBuf,
    served: usize,
}

impl MetricsStream {
    /// Opens `<base>.jsonl` for the options' `--metrics-out` base path;
    /// `None` when metrics are off.  The serve_sim entry point validated
    /// the parent directory, so file creation failing here is a race (the
    /// directory vanished), reported as a panic with the path.
    fn create(options: &ServeSimOptions) -> Option<MetricsStream> {
        let base = options.metrics_out.as_ref()?;
        let jsonl_path = PathBuf::from(format!("{}.jsonl", base.display()));
        let prom_path = PathBuf::from(format!("{}.prom", base.display()));
        let sink = JsonlSink::create(&jsonl_path).unwrap_or_else(|e| {
            panic!("cannot create metrics stream '{}': {e}", jsonl_path.display())
        });
        Some(MetricsStream { sink, every: options.metrics_every.max(1), prom_path, served: 0 })
    }

    /// Streams one finished tick: every transition as its own event line,
    /// and a registry snapshot every `every` ticks.  The registry is built
    /// lazily — a fleet's merged snapshot is only materialized on the ticks
    /// that emit one.
    fn on_tick(
        &mut self,
        tick: usize,
        transitions: &[Transition],
        registry: impl FnOnce() -> Registry,
    ) {
        for t in transitions {
            self.sink
                .event("transition", tick as u64, &[("kind", &format!("{t:?}"))])
                .expect("metrics stream write failed");
        }
        self.served += 1;
        if self.served.is_multiple_of(self.every) {
            self.sink.snapshot(tick as u64, &registry()).expect("metrics stream write failed");
        }
    }

    /// Writes the final snapshot, the exposition file, and flushes.
    fn finish(&mut self, registry: &Registry) {
        self.sink.snapshot(self.served as u64, registry).expect("metrics stream write failed");
        self.sink.flush().expect("metrics stream flush failed");
        std::fs::write(&self.prom_path, exposition(registry))
            .unwrap_or_else(|e| panic!("cannot write '{}': {e}", self.prom_path.display()));
        println!("metrics_out,{},{}", self.sink.path().display(), self.prom_path.display());
    }
}

/// The result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Display name (scenario, engine, predictor).
    pub name: String,
    /// Replay: the trace snapshot index served at each tick.  Online: the
    /// tick numbers themselves.
    pub indices: Vec<usize>,
    /// The controller's event/decision log.
    pub log: ServeLog,
    /// Omniscient (per-tick optimal) MLU over the same demands, the
    /// normalizer of the regret metric.
    pub omniscient: Vec<f64>,
    /// Accumulated LP solver work of the controller's template re-solves.
    pub lp_stats: SeriesStats,
    /// Whether the controller abandoned learned inference for the LP.
    pub fell_back: bool,
    /// Fabric runs only: demand-storage accounting (sparse vs. the dense
    /// `N×N` equivalent).
    pub memory: Option<FabricMemory>,
    /// Wall-clock seconds of the serving loop end to end (decisions +
    /// ingestion, setup excluded).
    pub serve_seconds: f64,
    /// SD pairs decided per tick (the pair-universe size): each tick makes
    /// one routing decision per active pair, so aggregate throughput is
    /// `ticks · pairs_per_tick / serve_seconds` decisions/sec.
    pub pairs_per_tick: usize,
    /// Recovery counters, when the self-healing ladder was enabled.
    pub recovery: Option<RecoveryStats>,
    /// Final telemetry registry snapshot, when the run was armed
    /// (`--metrics-out`); feeds the end-of-run profile report.
    pub telemetry: Option<Registry>,
}

/// Demand-storage accounting of a fabric serving run.
#[derive(Debug, Clone, Copy)]
pub struct FabricMemory {
    /// Nodes of the fabric graph (ToRs + any aggregation switches).
    pub num_nodes: usize,
    /// Traffic-bearing ToRs.
    pub num_tors: usize,
    /// Active SD pairs (`nnz` of every snapshot).
    pub active_pairs: usize,
    /// Bytes held by the shared pair index.
    pub index_bytes: usize,
    /// Bytes held by the sparse trace's value columns.
    pub sparse_trace_bytes: usize,
    /// Bytes an equivalent dense `DemandMatrix` trace would hold
    /// (`snapshots · n² · 8`).
    pub dense_trace_bytes: usize,
    /// Peak resident set size of the process so far (`VmHWM`), when the
    /// platform exposes it.
    pub peak_rss_bytes: Option<usize>,
}

/// Peak resident set size (`VmHWM`) of the current process in bytes, read
/// from `/proc/self/status`; `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

impl ServeRun {
    /// Normalized-MLU (regret) summary vs. the omniscient series.
    pub fn regret(&self) -> SchemeQuality {
        let normalized = normalize_by(&self.log.realized_mlus(), &self.omniscient);
        SchemeQuality::from_normalized(&self.name, &normalized)
    }

    /// Recovery-loop summary derived from the transition log and the
    /// controller's recovery counters; `None` when recovery was off.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        let stats = self.recovery?;
        let end = self.log.records.last().map(|r| r.tick + 1).unwrap_or(0);
        let mut fallback_ticks = 0;
        let mut degraded_since: Option<usize> = None;
        for t in &self.log.transitions {
            match t.transition {
                Transition::Degraded | Transition::Demoted => {
                    degraded_since.get_or_insert(t.tick);
                }
                Transition::Promoted => {
                    if let Some(since) = degraded_since.take() {
                        fallback_ticks += t.tick - since;
                    }
                }
                Transition::PlanRetired | Transition::RetrainStarted => {}
            }
        }
        if let Some(since) = degraded_since {
            fallback_ticks += end.saturating_sub(since);
        }
        let first_degraded = self
            .log
            .transitions
            .iter()
            .find(|t| matches!(t.transition, Transition::Degraded | Transition::Demoted))
            .map(|t| t.tick);
        let time_to_recovery = match (first_degraded, self.log.recovery_tick()) {
            (Some(d), Some(p)) => Some(p - d),
            _ => None,
        };
        let post_recovery_regret = self.log.recovery_tick().and_then(|p| {
            let post: Vec<f64> = self
                .log
                .records
                .iter()
                .zip(&self.omniscient)
                .filter(|(r, _)| r.tick >= p)
                .map(|(r, &o)| r.realized_mlu / o.max(1e-12))
                .collect();
            (!post.is_empty()).then(|| post.iter().sum::<f64>() / post.len() as f64)
        });
        Some(RecoveryReport {
            degraded_events: self.log.transition_count(Transition::Degraded)
                + self.log.transition_count(Transition::Demoted),
            retrains: stats.retrains,
            promotions: stats.promotions,
            detector_trips: stats.detector_trips,
            fallback_ticks,
            time_to_recovery,
            post_recovery_regret,
            retrain_seconds: stats.retrain_seconds,
            retrain_cost_per_tick: stats.retrain_seconds / self.log.len().max(1) as f64,
        })
    }
}

/// What the self-healing ladder did over one serving run — the numbers a
/// recovery story is judged by: how long the controller sat on the LP, how
/// fast it got back to model serving, and how good serving was afterwards.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// `Degraded` plus `Demoted` transitions (drift episodes entered).
    pub degraded_events: usize,
    /// Challenger training rounds completed.
    pub retrains: usize,
    /// Challengers promoted back to live serving.
    pub promotions: usize,
    /// CUSUM drift-detector trips.
    pub detector_trips: usize,
    /// Decision ticks spent serving the LP fallback.
    pub fallback_ticks: usize,
    /// Ticks from the first degradation to the first promotion, when the
    /// run recovered.
    pub time_to_recovery: Option<usize>,
    /// Mean realized/omniscient MLU over the ticks after the first
    /// promotion (the post-recovery serving quality).
    pub post_recovery_regret: Option<f64>,
    /// Wall-clock seconds spent retraining challengers (off the decision
    /// path's latency accounting).
    pub retrain_seconds: f64,
    /// Retraining cost amortized over every decision tick of the run.
    pub retrain_cost_per_tick: f64,
}

/// Parses a CLI topology spelling: the Table 1 names lowercased with `-`
/// for spaces (`geant`, `pod-db`, `tor-web`, …) or the enum variant name,
/// plus the generated large fabrics — `torN` for an N-ToR Jellyfish fabric
/// (`tor512` … `tor4096`) and `podfabN` for an N-ToR two-tier pod fabric.
pub fn parse_topology(spec: &str) -> Result<ServeTopology, String> {
    let key = spec.to_ascii_lowercase();
    if let Some(tors) = key.strip_prefix("podfab").and_then(|n| n.parse::<usize>().ok()) {
        // Mirror `two_tier_pod_size`: 64-ToR pods at scale, 8-ToR pods for
        // CI-sized fabrics (podfab16 is the smoke-test topology).
        let sized =
            (tors >= 128 && tors.is_multiple_of(64)) || (tors >= 16 && tors.is_multiple_of(8));
        if !sized {
            return Err(format!(
                "podfab fabrics need 8-ToR pods (multiples of 8, ≥ 16) or 64-ToR pods \
                 (multiples of 64, ≥ 128), got {tors}"
            ));
        }
        return Ok(ServeTopology::Fabric(FabricSpec::two_tier(tors)));
    }
    if let Some(tors) = key.strip_prefix("tor").and_then(|n| n.parse::<usize>().ok()) {
        if tors < 32 {
            return Err(format!("torN fabrics need at least 32 ToRs, got {tors}"));
        }
        return Ok(ServeTopology::Fabric(FabricSpec::jellyfish(tors)));
    }
    Topology::all()
        .into_iter()
        .find(|t| {
            t.name().to_ascii_lowercase().replace(' ', "-") == key
                || format!("{t:?}").to_ascii_lowercase() == key
        })
        .map(ServeTopology::Table1)
        .ok_or_else(|| {
            let known: Vec<String> = Topology::all()
                .iter()
                .map(|t| t.name().to_ascii_lowercase().replace(' ', "-"))
                .collect();
            format!("unknown topology '{spec}' (known: {}, torN, podfabN)", known.join(", "))
        })
}

/// Where a run's demand columns come from.
enum ColumnSource {
    /// Recorded snapshots on the pair universe, one per column: a Table 1
    /// trace converted once at load, or a generated fabric's sparse trace.
    Trace(SparseTrace),
    /// The unbounded online generator, pulled one column per tick.  Pulled
    /// columns and their episode annotations are kept for the omniscient
    /// pass.
    Online { stream: Box<OnlineStream>, pulled: Vec<(SparseDemand, StreamAnnotation)> },
}

impl ColumnSource {
    /// Column `k` of the run (the warmup columns first, then one per
    /// decision tick) and, online, the generator's annotation of it.
    /// Online columns are generated in order on first use.
    fn column(&mut self, k: usize) -> (&[f64], Option<StreamAnnotation>) {
        match self {
            ColumnSource::Trace(trace) => (trace.snapshot(k).values(), None),
            ColumnSource::Online { stream, pulled } => {
                while pulled.len() <= k {
                    let column = stream.next_column().expect("the online stream is endless");
                    pulled.push((column, stream.annotation()));
                }
                let (column, annotation) = &pulled[k];
                (column.values(), Some(*annotation))
            }
        }
    }
}

/// Everything a serving run needs besides its controller: the network, the
/// warmup and tick schedule, and the per-tick pair-column source.  Built
/// identically for a single controller and a fleet, so `--shards 1` serves
/// the exact scenario of the unsharded run and must match its digests.
pub(crate) struct ServeInputs {
    /// Network display name (Table 1 name or fabric graph name).
    pub network: String,
    /// Run kind for display: `replay`, `online` or `N ToRs, fabric`.
    pub kind: String,
    /// Candidate paths of every pair of `active`.
    pub paths: PathSet,
    /// The pair universe of every column (what a fleet shards).
    pub active: Arc<ActivePairs>,
    /// Traffic-bearing nodes: the source-block partitioning granularity.
    pub num_tors: usize,
    /// Observation-only columns before the first decision.
    pub warmup: usize,
    /// Replay: the snapshot index served at each decision tick.  Online:
    /// the tick numbers themselves.
    pub indices: Vec<usize>,
    source: ColumnSource,
    /// The Table 1 scenario a learned engine trains on (`None` on fabrics).
    scenario: Option<Scenario>,
    /// Fabric runs: demand-storage accounting, peak RSS filled in on read.
    memory: Option<FabricMemory>,
}

impl ServeInputs {
    /// The one inputs builder of the serving driver; see the module docs.
    pub(crate) fn build(options: &ServeSimOptions) -> ServeInputs {
        if let Err(e) = options.validate() {
            panic!("unservable options: {e}");
        }
        let window = options.experiment.window;
        // Replay ticks are contiguous, so the cap truncates the schedule.
        let schedule = |first: usize, len: usize| -> Vec<usize> {
            (first..len).take(options.max_ticks.unwrap_or(usize::MAX)).collect()
        };
        match options.topology {
            ServeTopology::Table1(topology) => {
                let scenario = Scenario::build(topology, &options.experiment.scenario_options());
                let n = scenario.trace.num_nodes();
                let active = Arc::new(ActivePairs::all(n));
                let interval = scenario.trace.interval_seconds();
                let (kind, source, indices) = if options.online_ticks > 0 {
                    let config = OnlineStreamConfig {
                        interval_seconds: interval,
                        seed: 0x5eed ^ (options.online_ticks as u64),
                        // Shift ticks count decision ticks, so the
                        // stream-side trigger sits past the warmup.
                        shift: (options.shift_tick > 0).then(|| StepShiftConfig {
                            at_tick: window + options.shift_tick,
                            factor: options.shift_factor,
                        }),
                        ..Default::default()
                    };
                    let stream = Box::new(OnlineStream::from_graph(&scenario.graph, 0.25, config));
                    let source = ColumnSource::Online { stream, pulled: Vec::new() };
                    ("online", source, (0..options.online_ticks).collect())
                } else {
                    let first = scenario.split.test.start.max(window);
                    let indices = schedule(first, scenario.trace.len());
                    // Convert the served snapshots to pair columns once.
                    let columns = (first - window..first + indices.len())
                        .map(|t| SparseDemand::from_matrix(scenario.trace.matrix(t), &active))
                        .collect();
                    let name = scenario.trace.name();
                    let trace = SparseTrace::new(name, interval, Arc::clone(&active), columns);
                    ("replay", ColumnSource::Trace(trace), indices)
                };
                ServeInputs {
                    network: scenario.name.clone(),
                    kind: kind.to_string(),
                    paths: scenario.paths.clone(),
                    active,
                    num_tors: n,
                    warmup: window,
                    indices,
                    source,
                    scenario: Some(scenario),
                    memory: None,
                }
            }
            ServeTopology::Fabric(spec) => {
                let fabric = spec.build();
                let n = fabric.graph.num_nodes();
                // Fixed per-source fan-out: density per_source/(tors-1), i.e.
                // ~1.6% at 1024 ToRs with the default 16.  Small fabrics have
                // fewer destinations than that.
                let per_source = if options.experiment.fast { 8 } else { 16 };
                let per_source = per_source.min(fabric.num_tors - 1);
                let active = Arc::new(ActivePairs::sample_among(
                    n,
                    fabric.num_tors,
                    per_source,
                    spec.seed ^ 0xfab,
                ));
                let paths = PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3);
                let traffic = TorTrafficConfig {
                    num_snapshots: options.experiment.snapshots,
                    seed: spec.seed,
                    ..Default::default()
                };
                let trace = tor_trace_sparse(&fabric.graph, &active, &traffic);
                let warmup = window.max(1).min(trace.len().saturating_sub(1));
                let memory = FabricMemory {
                    num_nodes: n,
                    num_tors: fabric.num_tors,
                    active_pairs: active.len(),
                    index_bytes: active.index_bytes(),
                    sparse_trace_bytes: trace.demand_storage_bytes(),
                    dense_trace_bytes: trace.len() * n * n * std::mem::size_of::<f64>(),
                    peak_rss_bytes: None,
                };
                ServeInputs {
                    network: fabric.graph.name().to_string(),
                    kind: format!("{} ToRs, fabric", fabric.num_tors),
                    paths,
                    active,
                    num_tors: fabric.num_tors,
                    warmup,
                    indices: schedule(warmup, trace.len()),
                    source: ColumnSource::Trace(trace),
                    scenario: None,
                    memory: Some(memory),
                }
            }
        }
    }

    /// The omniscient per-tick optimum over the decision columns, solved
    /// through one warm-started template (sequential, deterministic).
    fn omniscient(&mut self) -> Vec<f64> {
        let paths = &self.paths;
        let source = &mut self.source;
        let mut template = MluTemplate::new(paths);
        (self.warmup..self.warmup + self.indices.len())
            .map(|k| {
                let (column, _) = source.column(k);
                let (config, _) = template
                    .solve(paths, column)
                    .expect("the omniscient min-MLU LP must be solvable");
                max_link_utilization_pairs(paths, &config, column)
            })
            .collect()
    }

    /// Fabric runs: the demand-storage accounting, with the process's peak
    /// RSS so far.
    pub(crate) fn memory(&self) -> Option<FabricMemory> {
        self.memory.map(|m| FabricMemory { peak_rss_bytes: peak_rss_bytes(), ..m })
    }
}

/// What the driver ticks: a single controller or a sharded fleet.  The two
/// differ only in the per-tick call.
pub(crate) trait Server {
    /// Ingests a warmup column without a decision.
    fn warm(&mut self, column: &[f64]);
    /// One decision tick on the realized `column` (with the online
    /// stream's annotation of it, if any); returns the tick index and the
    /// recovery transitions the tick produced.
    fn tick(
        &mut self,
        column: &[f64],
        annotation: Option<StreamAnnotation>,
    ) -> (usize, Vec<Transition>);
    /// Arms out-of-band telemetry.
    fn enable_telemetry(&mut self);
    /// The telemetry registry snapshot, when armed.
    fn telemetry_snapshot(&self) -> Option<Registry>;
}

/// A single [`ServeController`] and the log the driver records into.
struct Solo {
    controller: ServeController,
    log: ServeLog,
}

impl Server for Solo {
    fn warm(&mut self, column: &[f64]) {
        self.controller.observe_pairs(column);
    }

    fn tick(
        &mut self,
        column: &[f64],
        annotation: Option<StreamAnnotation>,
    ) -> (usize, Vec<Transition>) {
        let outcome = self.controller.step_pairs(column);
        if let Some(annotation) = annotation {
            self.log.annotate(outcome.record.tick, annotation);
        }
        self.log.record_outcome(&outcome);
        (outcome.record.tick, outcome.transitions)
    }

    fn enable_telemetry(&mut self) {
        self.controller.enable_telemetry();
    }

    fn telemetry_snapshot(&self) -> Option<Registry> {
        self.controller.telemetry_snapshot()
    }
}

/// The one serving loop: arms metrics when asked, feeds the warmup columns,
/// then makes one decision tick per scheduled column.  Returns the
/// wall-clock seconds of the loop (warmup and ingestion included, setup
/// and the omniscient pass excluded).
pub(crate) fn drive(
    inputs: &mut ServeInputs,
    server: &mut dyn Server,
    options: &ServeSimOptions,
) -> f64 {
    let mut metrics = MetricsStream::create(options);
    if metrics.is_some() {
        server.enable_telemetry();
    }
    let start = Instant::now();
    for k in 0..inputs.warmup {
        server.warm(inputs.source.column(k).0);
    }
    for k in inputs.warmup..inputs.warmup + inputs.indices.len() {
        let (column, annotation) = inputs.source.column(k);
        let (tick, transitions) = server.tick(column, annotation);
        if let Some(m) = metrics.as_mut() {
            m.on_tick(tick, &transitions, || server.telemetry_snapshot().expect("armed run"));
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    if let Some(m) = metrics.as_mut() {
        m.finish(&server.telemetry_snapshot().expect("armed run"));
    }
    seconds
}

/// Builds the controller: trains the FIGRET model on the scenario's train
/// split for [`ServeEngine::Learned`], or goes straight to the LP.
fn build_controller(inputs: &ServeInputs, options: &ServeSimOptions) -> ServeController {
    let predictor = options.predictor.build();
    let policy = options.policy.clone();
    if options.engine == ServeEngine::Lp {
        return ServeController::lp(&inputs.paths, options.experiment.window, predictor, policy);
    }
    let scenario = inputs.scenario.as_ref().expect("fabric topologies serve the LP engine");
    let cfg = options.experiment.learning_config();
    let variances = per_pair_variance_range(&scenario.trace, scenario.split.train.clone());
    let dataset = WindowDataset::from_trace(
        &scenario.trace,
        cfg.history_window,
        scenario.split.train.clone(),
    );
    let mut model = FigretModel::new(&scenario.paths, &variances, cfg);
    model.train(&dataset);
    let mut controller = ServeController::learned(&scenario.paths, model, predictor, policy);
    if options.use_plan {
        controller.enable_inference_plan();
    }
    if let Some(recovery) = options.recovery_config() {
        controller.enable_recovery(recovery);
    }
    controller
}

/// The engine part of a run's display name.
pub(crate) fn engine_name(options: &ServeSimOptions) -> &'static str {
    match options.engine {
        ServeEngine::Lp => "lp",
        ServeEngine::Learned if options.use_plan => "learned/plan",
        ServeEngine::Learned => "learned",
    }
}

/// Serves the options' scenario through one [`ServeController`]; see the
/// module docs.
///
/// # Panics
///
/// Panics on options [`ServeSimOptions::validate`] rejects.
pub fn serve(options: &ServeSimOptions) -> ServeRun {
    let mut inputs = ServeInputs::build(options);
    let mut solo = Solo { controller: build_controller(&inputs, options), log: ServeLog::new() };
    let serve_seconds = drive(&mut inputs, &mut solo, options);
    let Solo { controller, log } = solo;
    assert_eq!(log.len(), inputs.indices.len(), "one decision per scheduled column");
    let omniscient = inputs.omniscient();
    ServeRun {
        name: format!(
            "{} ({}, {}, {} predictor)",
            inputs.network,
            inputs.kind,
            engine_name(options),
            options.predictor.build().name()
        ),
        log,
        omniscient,
        lp_stats: *controller.lp_stats(),
        fell_back: controller.fell_back(),
        memory: inputs.memory(),
        serve_seconds,
        pairs_per_tick: inputs.active.len(),
        recovery: controller.recovery_enabled().then(|| controller.recovery_stats()),
        telemetry: controller.telemetry_snapshot(),
        indices: inputs.indices,
    }
}

/// Prints the demand-storage accounting table of a fabric run (shared by
/// the single-controller and fleet reports).
pub fn print_fabric_memory(mem: &FabricMemory) {
    let mib = |bytes: usize| format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0));
    let density =
        mem.active_pairs as f64 / (mem.num_tors as f64 * (mem.num_tors as f64 - 1.0)).max(1.0);
    let mut rows = vec![
        vec!["fabric size".to_string(), format!("{} ToRs / {} nodes", mem.num_tors, mem.num_nodes)],
        vec![
            "active pairs".to_string(),
            format!("{} ({:.2}% of ToR pairs)", mem.active_pairs, 100.0 * density),
        ],
        vec!["pair index".to_string(), mib(mem.index_bytes)],
        vec!["sparse demand trace".to_string(), mib(mem.sparse_trace_bytes)],
        vec!["dense N×N equivalent".to_string(), mib(mem.dense_trace_bytes)],
        vec![
            "dense / sparse ratio".to_string(),
            format!(
                "{:.1}x",
                mem.dense_trace_bytes as f64
                    / (mem.index_bytes + mem.sparse_trace_bytes).max(1) as f64
            ),
        ],
    ];
    if let Some(rss) = mem.peak_rss_bytes {
        rows.push(vec!["peak RSS (VmHWM)".to_string(), mib(rss)]);
    }
    print_table("demand storage (sparse core)", &["metric", "value"], &rows);
}

/// Prints the serving report: decision summary, regret vs. omniscient,
/// latency percentiles, LP work and the determinism digest.
pub fn print_serve_report(run: &ServeRun) {
    use figret_serve::HoldReason;

    println!("\n# serve_sim — {}", run.name);
    let ticks = run.log.len().max(1);
    let updates = run.log.update_count();
    let regret = run.regret();
    let rows = vec![
        vec!["decision ticks".to_string(), format!("{}", run.log.len())],
        vec!["updates deployed".to_string(), format!("{updates}")],
        vec!["update rate".to_string(), format!("{:.1}%", 100.0 * updates as f64 / ticks as f64)],
        vec![
            "holds (hysteresis)".to_string(),
            format!("{}", run.log.hold_count(HoldReason::BelowHysteresis)),
        ],
        vec![
            "holds (budget)".to_string(),
            format!("{}", run.log.hold_count(HoldReason::BudgetExhausted)),
        ],
        vec!["total churn (L1)".to_string(), format!("{:.3}", run.log.total_churn())],
        vec![
            "churn per update".to_string(),
            format!("{:.3}", run.log.total_churn() / updates.max(1) as f64),
        ],
        vec![
            "MLU regret mean/p99/max".to_string(),
            format!(
                "{:.3} / {:.3} / {:.3}",
                regret.normalized_mlu.mean, regret.normalized_mlu.p99, regret.normalized_mlu.max
            ),
        ],
        vec!["decision latency p50/p99".to_string(), {
            let lat = latency_histogram(&run.log.latencies_seconds);
            format!("{} / {}", latency_us(&lat, 0.5), latency_us(&lat, 0.99))
        }],
        vec![
            "ticks/sec (wall clock)".to_string(),
            format!("{:.1}", run.log.len() as f64 / run.serve_seconds.max(1e-12)),
        ],
        vec![
            "aggregate decisions/sec".to_string(),
            format!(
                "{:.0} ({} pairs/tick)",
                run.log.len() as f64 * run.pairs_per_tick as f64 / run.serve_seconds.max(1e-12),
                run.pairs_per_tick
            ),
        ],
        vec![
            "fell back to LP".to_string(),
            match run.log.fallback_tick() {
                Some(t) => format!("yes (tick {t})"),
                None if run.fell_back => "yes".to_string(),
                None => "no".to_string(),
            },
        ],
    ];
    print_table("serving summary", &["metric", "value"], &rows);

    let mut work_header = vec!["engine"];
    work_header.extend(lp_work_header());
    let mut work_row = vec!["controller LP".to_string()];
    work_row.extend(lp_work_columns(&run.lp_stats));
    print_table("LP solver work (controller re-solves)", &work_header, &[work_row]);

    if let Some(rec) = run.recovery_report() {
        let rows = vec![
            vec!["drift episodes entered".to_string(), format!("{}", rec.degraded_events)],
            vec!["detector trips (CUSUM)".to_string(), format!("{}", rec.detector_trips)],
            vec!["challenger retrains".to_string(), format!("{}", rec.retrains)],
            vec!["promotions".to_string(), format!("{}", rec.promotions)],
            vec!["ticks in LP fallback".to_string(), format!("{}", rec.fallback_ticks)],
            vec![
                "time to recovery".to_string(),
                match rec.time_to_recovery {
                    Some(t) => format!("{t} ticks"),
                    None => "never recovered".to_string(),
                },
            ],
            vec![
                "post-recovery regret (mean)".to_string(),
                match rec.post_recovery_regret {
                    Some(r) => format!("{r:.3}"),
                    None => "n/a".to_string(),
                },
            ],
            vec![
                "retrain cost".to_string(),
                format!(
                    "{:.3} s total / {:.1} µs per tick",
                    rec.retrain_seconds,
                    1e6 * rec.retrain_cost_per_tick
                ),
            ],
        ];
        print_table("self-healing recovery", &["metric", "value"], &rows);
    }

    if let Some(mem) = &run.memory {
        print_fabric_memory(mem);
    }

    if let Some(registry) = &run.telemetry {
        print_profile_report(registry, run.serve_seconds);
    }

    // Machine-greppable transition and annotation lines: CI asserts a
    // `,Promoted` line on the recovery smoke run.
    for t in &run.log.transitions {
        println!("transition,{},{:?}", t.tick, t.transition);
    }
    for (tick, ann) in &run.log.annotations {
        println!(
            "stream_event,{tick},storm={},flashes={},drift_spread={:.3},shifted={}",
            ann.storm_victim.map(|v| v as i64).unwrap_or(-1),
            ann.active_flashes,
            ann.drift_spread,
            ann.shifted
        );
    }

    print_csv_series("realized_mlu", &run.log.realized_mlus());
    print_csv_series("omniscient_mlu", &run.omniscient);
    // Stable digests of the decision log: CI replays the same scenario under
    // different RAYON_NUM_THREADS settings and diffs the full digest, and
    // replays graph vs. plan inference and diffs the decision digest (which
    // hashes actions only, so it is invariant to the f32 plan's sub-1e-4
    // output perturbations).
    println!("decision_log_digest,{:#018x}", run.log.digest());
    println!("decision_digest,{:#018x}", run.log.decision_digest());
}

/// Runs the full `serve_sim` experiment for the options and prints the
/// report.  With `--shards N` (> 0) the run goes through the sharded fleet
/// instead of the single controller.
pub fn serve_sim(options: &ServeSimOptions) {
    if options.shards > 0 {
        crate::fleet::print_fleet_report(&crate::fleet::serve_fleet(options, options.shards));
    } else {
        print_serve_report(&serve(options));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options(engine: ServeEngine) -> ServeSimOptions {
        let experiment = ExperimentOptions {
            fast: true,
            snapshots: 60,
            window: 4,
            max_eval: 8,
            ..Default::default()
        };
        ServeSimOptions {
            engine,
            policy: ReconfigPolicy::always_update(),
            max_ticks: Some(6),
            topology: ServeTopology::Table1(Topology::MetaDbPod),
            ..ServeSimOptions::new(experiment)
        }
    }

    #[test]
    fn replay_reports_regret_above_one() {
        let run = serve(&tiny_options(ServeEngine::Lp));
        assert_eq!(run.log.len(), 6);
        assert_eq!(run.indices.len(), 6);
        assert_eq!(run.omniscient.len(), 6);
        let regret = run.regret();
        assert!(regret.normalized_mlu.min >= 1.0 - 1e-6, "{:?}", regret.normalized_mlu);
        assert_eq!(run.log.update_count(), 6);
        print_serve_report(&run); // must not panic
    }

    #[test]
    fn online_mode_serves_generated_ticks() {
        let run = serve(&ServeSimOptions { online_ticks: 5, ..tiny_options(ServeEngine::Lp) });
        assert_eq!(run.log.len(), 5);
        assert!(run.log.realized_mlus().iter().all(|m| m.is_finite() && *m > 0.0));
        let regret = run.regret();
        assert!(regret.normalized_mlu.min >= 1.0 - 1e-6);
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let options = tiny_options(ServeEngine::Lp);
        let a = serve(&options);
        let b = serve(&options);
        assert_eq!(a.log.records, b.log.records);
        assert_eq!(a.log.digest(), b.log.digest());
        assert_eq!(a.omniscient, b.omniscient);
    }

    #[test]
    fn topology_parsing_accepts_table1_names() {
        assert_eq!(parse_topology("geant").unwrap(), ServeTopology::Table1(Topology::Geant));
        assert_eq!(parse_topology("pod-db").unwrap(), ServeTopology::Table1(Topology::MetaDbPod));
        assert_eq!(parse_topology("ToR-WEB").unwrap(), ServeTopology::Table1(Topology::MetaWebTor));
        assert_eq!(
            parse_topology("metadbtor").unwrap(),
            ServeTopology::Table1(Topology::MetaDbTor)
        );
        assert!(parse_topology("atlantis").unwrap_err().contains("known:"));
    }

    #[test]
    fn topology_parsing_accepts_fabric_names() {
        assert_eq!(
            parse_topology("tor512").unwrap(),
            ServeTopology::Fabric(FabricSpec::jellyfish(512))
        );
        assert_eq!(
            parse_topology("podfab1024").unwrap(),
            ServeTopology::Fabric(FabricSpec::two_tier(1024))
        );
        // The small-pod fabric the fleet CI smoke rides on (8-ToR pods).
        assert_eq!(
            parse_topology("podfab16").unwrap(),
            ServeTopology::Fabric(FabricSpec::two_tier(16))
        );
        assert!(parse_topology("tor4").is_err());
        assert!(parse_topology("podfab100").is_err());
    }

    #[test]
    fn fabric_serving_runs_sparse_end_to_end() {
        let spec = FabricSpec::jellyfish(48);
        let experiment =
            ExperimentOptions { fast: true, snapshots: 10, window: 2, ..Default::default() };
        let options = ServeSimOptions {
            engine: ServeEngine::Lp,
            policy: ReconfigPolicy::always_update(),
            max_ticks: Some(4),
            topology: ServeTopology::Fabric(spec),
            ..ServeSimOptions::new(experiment)
        };
        let run = serve(&options);
        assert_eq!(run.log.len(), 4);
        assert!(run.log.realized_mlus().iter().all(|m| m.is_finite() && *m > 0.0));
        let regret = run.regret();
        assert!(regret.normalized_mlu.min >= 1.0 - 1e-6, "{:?}", regret.normalized_mlu);
        let mem = run.memory.expect("fabric runs report memory");
        assert_eq!(mem.num_tors, 48);
        assert_eq!(mem.active_pairs, 48 * 8);
        assert!(mem.sparse_trace_bytes < mem.dense_trace_bytes);
        print_serve_report(&run); // must not panic
    }
}
