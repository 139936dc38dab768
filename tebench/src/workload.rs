//! The four canonical TE-controller workloads, driven through the library's
//! public entry points.
//!
//! Each workload is a closed loop with one driver and no think time: the
//! next demand goes in when the previous tick returns.  One *episode* is a
//! full set-up (scenario, paths, training, plan, controller) followed by a
//! fixed number of decision ticks, so every episode of a workload and seed
//! must reproduce the same decisions and the same counted work.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use figret::{FigretConfig, FigretModel};
use figret_eval::{Scenario, ScenarioOptions, ServeRun};
use figret_serve::{
    Action, DecisionSource, FallbackPolicy, FleetController, HoldReason, LastValue, PredictorKind,
    Proposal, ReconfigPolicy, RecoveryConfig, ServeController, ServeLog, StepOutcome,
};
use figret_solvers::{MluTemplate, SeriesStats};
use figret_te::{max_link_utilization_pairs, PathSet};
use figret_telemetry::Registry;
use figret_topology::{FabricSpec, Graph, Topology, TopologySpec};
use figret_traffic::wan::{wan_trace, WanTrafficConfig};
use figret_traffic::{
    per_pair_variance_range, tor_trace, tor_trace_sparse, ActivePairs, ClusterFlavor, DemandStream,
    OnlineStream, OnlineStreamConfig, ShardPlan, SparseTrace, StepShiftConfig, TorTrafficConfig,
    TrafficTrace, TrainTestSplit, WindowDataset,
};

use crate::spans::Tracer;

/// Hysteresis of every workload's reconfiguration gate.  No workload sets
/// an update budget, so the traced run may split a tick into `propose` +
/// its own hysteresis gate + `finish_pairs` and still decide identically.
const HYSTERESIS: f64 = 0.05;
/// Podfab16 destinations per source.  The non-fast fan-out of 16 panics in
/// `ActivePairs::sample_among` on a 16-ToR fabric (a known defect).
const PODFAB_FAN_OUT: usize = 8;
const PODFAB_SHARDS: usize = 4;
/// Pod-DB drill: the ×4 step shift lands this many decision ticks in.
const DRIFT_SHIFT_TICK: usize = 40;
/// Pod-DB drill: the online generator's load factor (serve_sim's).
const DRIFT_LOAD: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GeantReplay,
    TordbLp,
    Podfab16Fleet,
    PoddbDrift,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::GeantReplay, Workload::TordbLp, Workload::Podfab16Fleet, Workload::PoddbDrift];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GeantReplay => "geant-replay",
            Workload::TordbLp => "tordb-lp",
            Workload::Podfab16Fleet => "podfab16-fleet",
            Workload::PoddbDrift => "poddb-drift",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances per run: independent inputs drawn from the run's seed,
    /// pooled so one run averages over several traffic draws.
    pub fn instances(self, tiny: bool) -> usize {
        match (self, tiny) {
            (_, true) => 1,
            (Workload::GeantReplay, false) => 8,
            (Workload::TordbLp, false) => 6,
            (Workload::Podfab16Fleet, false) => 16,
            (Workload::PoddbDrift, false) => 48,
        }
    }

    /// Decision ticks per episode.  `tiny` is the smoke size the
    /// benchmark's own tests use.
    pub fn ticks(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::GeantReplay, false) => 1000,
            (Workload::TordbLp, false) => 40,
            (Workload::Podfab16Fleet, false) => 250,
            (Workload::PoddbDrift, false) => 80,
            (Workload::PoddbDrift, true) => DRIFT_SHIFT_TICK + 4,
            (_, true) => 6,
        }
    }
}

/// Snapshots FIGRET trains on in `geant-replay` (the trace prefix).
fn geant_train_snapshots(tiny: bool) -> usize {
    if tiny {
        24
    } else {
        64
    }
}

/// Where an episode's demands come from.
// Built once per episode, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Inputs {
    /// Pre-flattened pair columns of a recorded trace: warmup, then ticks.
    Columns { columns: Vec<Vec<f64>>, warmup: usize },
    /// A sparse fabric trace: snapshots `0..warmup` observed, `ticks` decided.
    Sparse { trace: SparseTrace, warmup: usize, ticks: Range<usize> },
    /// The unbounded online generator, pulled inside the serving loop; the
    /// oracle rebuilds it from `graph` and `config`.
    Online {
        stream: Box<OnlineStream>,
        graph: Graph,
        config: OnlineStreamConfig,
        warmup: usize,
        ticks: usize,
    },
}

enum Engine {
    Solo(Box<ServeController>),
    Fleet(Box<FleetController>),
}

/// Everything set-up produced: the controller, its demand source, and the
/// path set the oracle solves over.
pub struct Prepared {
    engine: Engine,
    inputs: Inputs,
    paths: PathSet,
    /// Samples FIGRET trained on during set-up (0 on the LP workloads).
    pub train_samples: usize,
}

/// Counted work of one episode: deterministic, so it must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub updates: usize,
    pub holds_hysteresis: usize,
    pub lp_solves: usize,
    pub lp_warm_solves: usize,
    pub lp_phase1_pivots: usize,
    pub lp_phase2_pivots: usize,
    pub lp_refactorizations: usize,
    pub retrains: usize,
    pub promotions: usize,
    pub fallback_ticks: usize,
    pub bids: usize,
    pub grants: usize,
    /// Ticks whose candidate came from the LP (the LP engine, or a learned
    /// controller serving its fallback), summed over a fleet's shards.
    pub lp_decided_ticks: usize,
}

impl std::ops::Add for Counts {
    type Output = Counts;

    fn add(self, o: Counts) -> Counts {
        Counts {
            updates: self.updates + o.updates,
            holds_hysteresis: self.holds_hysteresis + o.holds_hysteresis,
            lp_solves: self.lp_solves + o.lp_solves,
            lp_warm_solves: self.lp_warm_solves + o.lp_warm_solves,
            lp_phase1_pivots: self.lp_phase1_pivots + o.lp_phase1_pivots,
            lp_phase2_pivots: self.lp_phase2_pivots + o.lp_phase2_pivots,
            lp_refactorizations: self.lp_refactorizations + o.lp_refactorizations,
            retrains: self.retrains + o.retrains,
            promotions: self.promotions + o.promotions,
            fallback_ticks: self.fallback_ticks + o.fallback_ticks,
            bids: self.bids + o.bids,
            grants: self.grants + o.grants,
            lp_decided_ticks: self.lp_decided_ticks + o.lp_decided_ticks,
        }
    }
}

/// One served episode.
pub struct Episode {
    pub armed: bool,
    pub requested: usize,
    /// Duration of each decision tick, timed from outside.
    pub tick_seconds: Vec<f64>,
    /// Wall-clock seconds of the serving loop: warmup observations, demand
    /// ingestion and ticks.
    pub serve_seconds: f64,
    /// Realized MLU per tick (the fleet's exact global MLU).
    pub realized: Vec<f64>,
    pub total_churn: f64,
    pub digest: u64,
    pub decision_digest: u64,
    pub counts: Counts,
    /// LP phase-1, phase-2 and factorization seconds.
    pub lp_seconds: [f64; 3],
    pub retrain_seconds: f64,
    /// The telemetry registry of an armed episode.
    pub registry: Option<Registry>,
}

fn policy() -> ReconfigPolicy {
    ReconfigPolicy { hysteresis: HYSTERESIS, budget: None, ..ReconfigPolicy::default() }
}

fn flatten(trace: &TrafficTrace, pairs: usize, range: Range<usize>) -> Vec<Vec<f64>> {
    range
        .map(|t| {
            let mut column = vec![0.0; pairs];
            trace.matrix(t).flatten_pairs_into(&mut column);
            column
        })
        .collect()
}

/// Trains FIGRET on the scenario's train split (dataset, variances and
/// training all under the tracer); returns the model and the samples it
/// trained on (dataset × epochs).
fn train(scenario: &Scenario, config: FigretConfig, tracer: &mut Tracer) -> (FigretModel, usize) {
    let window = config.history_window;
    let (variances, dataset) = tracer.time("core.dataset", || {
        (
            per_pair_variance_range(&scenario.trace, scenario.split.train.clone()),
            WindowDataset::from_trace(&scenario.trace, window, scenario.split.train.clone()),
        )
    });
    let mut model = FigretModel::new(&scenario.paths, &variances, config);
    tracer.time("core.train", || model.train(&dataset));
    let samples = dataset.len() * model.config().epochs;
    (model, samples)
}

/// A Table 1 scenario on the library's default topology (seed 7), with
/// traffic drawn from `seed`: the network under test stays fixed and only
/// its demands vary, so a run's seed changes the inputs, not the system.
fn pinned_scenario(
    topology: Topology,
    snapshots: usize,
    train: usize,
    tracer: &mut Tracer,
    traffic: impl FnOnce(&Graph) -> TrafficTrace,
) -> Scenario {
    let span = tracer.enter("eval.scenario_build");
    let graph = tracer.time("topology.fabric_build", || TopologySpec::reduced(topology).build());
    let trace = tracer.time("traffic.trace_gen", || traffic(&graph));
    let paths = tracer.time("te.paths", || PathSet::k_shortest(&graph, 3));
    tracer.exit(span);
    Scenario {
        topology,
        name: topology.name().to_string(),
        graph,
        paths,
        split: TrainTestSplit::chronological(snapshots, train as f64 / snapshots as f64),
        trace,
    }
}

/// Builds one episode's controller and inputs.  Returns the prepared
/// episode and the set-up seconds (everything before the first warmup
/// observation), timed whether or not the tracer is armed.
pub fn setup(workload: Workload, seed: u64, tiny: bool, tracer: &mut Tracer) -> (Prepared, f64) {
    let start = Instant::now();
    let span = tracer.enter("setup");
    let ticks = workload.ticks(tiny);
    let prepared = match workload {
        Workload::GeantReplay => {
            let train_len = geant_train_snapshots(tiny);
            let snapshots = train_len + ticks;
            let scenario = pinned_scenario(Topology::Geant, snapshots, train_len, tracer, |g| {
                wan_trace(
                    g,
                    &WanTrafficConfig { num_snapshots: snapshots, seed, ..Default::default() },
                )
            });
            let (model, train_samples) = train(&scenario, FigretConfig::default(), tracer);
            let window = model.config().history_window;
            let first = scenario.split.test.start;
            let columns = tracer.time("traffic.columns", || {
                flatten(&scenario.trace, scenario.paths.num_pairs(), first - window..first + ticks)
            });
            // Audits run every 4th tick as by default, but never trip the
            // terminal fallback: whether (and when) it trips depends on the
            // seed, which would make the workload half LP, half model.
            let audited = ReconfigPolicy {
                fallback: FallbackPolicy { patience: usize::MAX, ..FallbackPolicy::default() },
                ..policy()
            };
            let mut controller = tracer.time("serve.controller_build", || {
                ServeController::learned(
                    &scenario.paths,
                    model,
                    Box::new(LastValue::new()),
                    audited,
                )
            });
            tracer.time("nn.plan_compile", || controller.enable_inference_plan());
            Prepared {
                engine: Engine::Solo(Box::new(controller)),
                inputs: Inputs::Columns { columns, warmup: window },
                paths: scenario.paths,
                train_samples,
            }
        }
        Workload::TordbLp => {
            let window = FigretConfig::default().history_window;
            let snapshots = window + ticks;
            let scenario = pinned_scenario(Topology::MetaDbTor, snapshots, 0, tracer, |g| {
                let config = TorTrafficConfig {
                    num_snapshots: snapshots,
                    flavor: ClusterFlavor::Db,
                    seed,
                    ..TorTrafficConfig::default()
                };
                tor_trace(g, &config)
            });
            let columns = tracer.time("traffic.columns", || {
                flatten(&scenario.trace, scenario.paths.num_pairs(), 0..snapshots)
            });
            let controller = tracer.time("serve.controller_build", || {
                ServeController::lp(&scenario.paths, window, Box::new(LastValue::new()), policy())
            });
            Prepared {
                engine: Engine::Solo(Box::new(controller)),
                inputs: Inputs::Columns { columns, warmup: window },
                paths: scenario.paths,
                train_samples: 0,
            }
        }
        Workload::Podfab16Fleet => {
            let window = FigretConfig::default().history_window;
            // The two-tier shape is deterministic; the seed draws the pair
            // sample and the traffic.
            let spec = FabricSpec { seed, ..FabricSpec::two_tier(16) };
            let build = tracer.enter("eval.scenario_build");
            let fabric = tracer.time("topology.fabric_build", || spec.build());
            let active = tracer.time("traffic.pairs_sample", || {
                Arc::new(ActivePairs::sample_among(
                    fabric.graph.num_nodes(),
                    fabric.num_tors,
                    PODFAB_FAN_OUT,
                    seed ^ 0xfab,
                ))
            });
            let paths = tracer
                .time("te.paths", || PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3));
            let trace = tracer.time("traffic.trace_gen", || {
                let config = TorTrafficConfig {
                    num_snapshots: window + ticks,
                    seed,
                    ..TorTrafficConfig::default()
                };
                tor_trace_sparse(&fabric.graph, &active, &config)
            });
            tracer.exit(build);
            let fleet = tracer.time("serve.controller_build", || {
                let plan = ShardPlan::source_blocks(&active, fabric.num_tors, PODFAB_SHARDS);
                FleetController::lp(&plan, &paths, window, PredictorKind::LastValue, &policy())
            });
            Prepared {
                engine: Engine::Fleet(Box::new(fleet)),
                inputs: Inputs::Sparse { trace, warmup: window, ticks: window..window + ticks },
                paths,
                train_samples: 0,
            }
        }
        Workload::PoddbDrift => {
            // The pod fabric is a full mesh: `Scenario::build` varies only
            // the traffic with the seed.
            let config = FigretConfig { history_window: 4, ..FigretConfig::fast_test() };
            let options = ScenarioOptions { num_snapshots: 60, seed, ..ScenarioOptions::default() };
            let scenario = tracer
                .time("eval.scenario_build", || Scenario::build(Topology::MetaDbPod, &options));
            let (model, train_samples) = train(&scenario, config, tracer);
            let window = model.config().history_window;
            let mut controller = tracer.time("serve.controller_build", || {
                ServeController::learned(
                    &scenario.paths,
                    model,
                    Box::new(LastValue::new()),
                    policy(),
                )
            });
            tracer.time("nn.plan_compile", || controller.enable_inference_plan());
            controller.enable_recovery(RecoveryConfig {
                retrain_every: 4,
                promotion_patience: 2,
                // serve_sim's drill depth: shallow retraining never clears
                // the promotion margin.
                retrain_epochs: 150,
                ..RecoveryConfig::default()
            });
            let config = OnlineStreamConfig {
                interval_seconds: scenario.trace.interval_seconds(),
                seed: 0x5eed ^ seed,
                shift: Some(StepShiftConfig { at_tick: window + DRIFT_SHIFT_TICK, factor: 4.0 }),
                ..OnlineStreamConfig::default()
            };
            let stream = tracer.time("traffic.stream_build", || {
                Box::new(OnlineStream::from_graph(&scenario.graph, DRIFT_LOAD, config.clone()))
            });
            Prepared {
                engine: Engine::Solo(Box::new(controller)),
                inputs: Inputs::Online {
                    stream,
                    graph: scenario.graph,
                    config,
                    warmup: window,
                    ticks,
                },
                paths: scenario.paths,
                train_samples,
            }
        }
    };
    tracer.exit(span);
    (prepared, start.elapsed().as_secs_f64())
}

/// The single-controller tick.  Disarmed: one `step_pairs` call.  Armed:
/// `propose`, the hysteresis gate applied here, and `finish_pairs`, each
/// under its own outside span.
fn solo_tick(controller: &mut ServeController, column: &[f64], tracer: &mut Tracer) -> StepOutcome {
    if !tracer.armed() {
        return controller.step_pairs(column);
    }
    let span = tracer.enter("serve.propose");
    let proposal = controller.propose();
    tracer.exit(span);
    let action = gate(proposal);
    let span = tracer.enter("serve.finish");
    let outcome = controller.finish_pairs(column, action);
    tracer.exit(span);
    outcome
}

/// `ServeController`'s own gate for a policy without an update budget.
fn gate(proposal: Option<Proposal>) -> Action {
    match proposal {
        None => Action::Warmup,
        Some(p) if p.predicted_mlu_deployed > (1.0 + HYSTERESIS) * p.predicted_mlu_candidate => {
            Action::Update
        }
        Some(_) => Action::Hold(HoldReason::BelowHysteresis),
    }
}

/// Serves one episode.  Telemetry is armed exactly when the tracer is.
pub fn serve(prepared: &mut Prepared, tracer: &mut Tracer) -> Episode {
    let armed = tracer.armed();
    let mut tick_seconds = Vec::new();
    let mut realized = Vec::new();
    let mut log = ServeLog::new();
    let requested = match &prepared.inputs {
        Inputs::Columns { columns, warmup } => columns.len() - warmup,
        Inputs::Sparse { ticks, .. } => ticks.len(),
        Inputs::Online { ticks, .. } => *ticks,
    };
    let loop_start = Instant::now();
    let mut time_tick = |tracer: &mut Tracer, f: &mut dyn FnMut(&mut Tracer) -> f64| {
        let span = tracer.enter("tick");
        let start = Instant::now();
        let mlu = f(tracer);
        let seconds = start.elapsed().as_secs_f64();
        tracer.exit(span);
        tick_seconds.push(seconds);
        realized.push(mlu);
    };
    match (&mut prepared.engine, &mut prepared.inputs) {
        (Engine::Solo(controller), Inputs::Columns { columns, warmup }) => {
            if armed {
                controller.enable_telemetry();
            }
            let (observed, decided) = columns.split_at(*warmup);
            for column in observed {
                controller.observe_pairs(column);
            }
            for column in decided {
                time_tick(tracer, &mut |tracer| {
                    let outcome = solo_tick(controller, column, tracer);
                    let mlu = outcome.record.realized_mlu;
                    log.record_outcome(&outcome);
                    mlu
                });
            }
        }
        (Engine::Solo(controller), Inputs::Online { stream, warmup, ticks, .. }) => {
            if armed {
                controller.enable_telemetry();
            }
            let mut column = vec![0.0; controller.num_pairs()];
            let mut next = |tracer: &mut Tracer, column: &mut Vec<f64>| {
                let demand = tracer
                    .time("traffic.online_next", || stream.next_demand())
                    .expect("the online stream is endless");
                demand.flatten_pairs_into(column);
            };
            for _ in 0..*warmup {
                next(tracer, &mut column);
                controller.observe_pairs(&column);
            }
            for _ in 0..*ticks {
                next(tracer, &mut column);
                time_tick(tracer, &mut |tracer| {
                    let outcome = solo_tick(controller, &column, tracer);
                    let mlu = outcome.record.realized_mlu;
                    log.record_outcome(&outcome);
                    mlu
                });
            }
        }
        (Engine::Fleet(fleet), Inputs::Sparse { trace, warmup, ticks }) => {
            if armed {
                fleet.enable_telemetry();
            }
            for t in 0..*warmup {
                fleet.observe_sparse(trace.snapshot(t));
            }
            for t in ticks.clone() {
                time_tick(tracer, &mut |_| fleet.step_sparse(trace.snapshot(t)).global_mlu);
            }
        }
        _ => unreachable!("set-up pairs each engine with its input kind"),
    }
    let serve_seconds = loop_start.elapsed().as_secs_f64();
    match &prepared.engine {
        Engine::Solo(controller) => {
            solo_episode(controller, log, armed, tick_seconds, serve_seconds, realized, requested)
        }
        Engine::Fleet(fleet) => {
            let lp = fleet.lp_stats();
            let admission = fleet.admission_stats();
            Episode {
                armed,
                requested,
                tick_seconds,
                serve_seconds,
                realized,
                total_churn: fleet.logs().iter().map(ServeLog::total_churn).sum(),
                digest: fleet.digest(),
                decision_digest: fleet.decision_digest(),
                counts: Counts {
                    updates: fleet.update_count(),
                    holds_hysteresis: admission.holds_hysteresis,
                    bids: admission.bids,
                    grants: admission.grants,
                    lp_decided_ticks: fleet.logs().iter().map(lp_decided_ticks).sum(),
                    ..lp_counts(&lp)
                },
                lp_seconds: lp_seconds(&lp),
                retrain_seconds: 0.0,
                registry: fleet.telemetry_snapshot(),
            }
        }
    }
}

fn solo_episode(
    controller: &ServeController,
    log: ServeLog,
    armed: bool,
    tick_seconds: Vec<f64>,
    serve_seconds: f64,
    realized: Vec<f64>,
    requested: usize,
) -> Episode {
    let lp = *controller.lp_stats();
    let recovery = controller.recovery_stats();
    let digest = log.digest();
    let decision_digest = log.decision_digest();
    let updates = log.update_count();
    let holds_hysteresis = log.hold_count(HoldReason::BelowHysteresis);
    let lp_decided_ticks = lp_decided_ticks(&log);
    let total_churn = log.total_churn();
    // serve_sim's recovery summary, so `fallback_ticks` means the same here.
    let run = ServeRun {
        name: String::new(),
        indices: Vec::new(),
        log,
        omniscient: Vec::new(),
        lp_stats: lp,
        fell_back: controller.fell_back(),
        memory: None,
        serve_seconds,
        pairs_per_tick: controller.num_pairs(),
        recovery: controller.recovery_enabled().then_some(recovery),
        telemetry: None,
    };
    let fallback_ticks = run.recovery_report().map_or(0, |r| r.fallback_ticks);
    Episode {
        armed,
        requested,
        tick_seconds,
        serve_seconds,
        realized,
        total_churn,
        digest,
        decision_digest,
        counts: Counts {
            updates,
            holds_hysteresis,
            retrains: recovery.retrains,
            promotions: recovery.promotions,
            fallback_ticks,
            lp_decided_ticks,
            ..lp_counts(&lp)
        },
        lp_seconds: lp_seconds(&lp),
        retrain_seconds: recovery.retrain_seconds,
        registry: controller.telemetry_snapshot(),
    }
}

/// Ticks whose candidate came from the LP.
fn lp_decided_ticks(log: &ServeLog) -> usize {
    log.records.iter().filter(|r| r.source == Some(DecisionSource::LpWarm)).count()
}

fn lp_counts(lp: &SeriesStats) -> Counts {
    Counts {
        lp_solves: lp.solves,
        lp_warm_solves: lp.warm_solves,
        lp_phase1_pivots: lp.totals.phase1_iterations,
        lp_phase2_pivots: lp.totals.phase2_iterations,
        lp_refactorizations: lp.totals.refactorizations,
        ..Counts::default()
    }
}

fn lp_seconds(lp: &SeriesStats) -> [f64; 3] {
    [lp.totals.phase1_seconds, lp.totals.phase2_seconds, lp.totals.factor_seconds]
}

/// The benchmark's own omniscient oracle: the min-MLU LP over each decision
/// tick's realized demand, solved through one warm-started template.
pub fn oracle(prepared: &Prepared) -> Vec<f64> {
    let mut template = MluTemplate::new(&prepared.paths);
    let mut solve = |column: &[f64]| {
        let (config, _) = template
            .solve(&prepared.paths, column)
            .expect("the oracle's min-MLU LP must be solvable");
        max_link_utilization_pairs(&prepared.paths, &config, column)
    };
    match &prepared.inputs {
        Inputs::Columns { columns, warmup } => {
            columns[*warmup..].iter().map(|c| solve(c)).collect()
        }
        Inputs::Sparse { trace, ticks, .. } => {
            ticks.clone().map(|t| solve(trace.snapshot(t).values())).collect()
        }
        Inputs::Online { graph, config, warmup, ticks, .. } => {
            // A fresh stream from the same configuration replays the demands
            // the episode served (the generator is deterministic).
            let mut stream = OnlineStream::from_graph(graph, DRIFT_LOAD, config.clone());
            let mut column = vec![0.0; prepared.paths.num_pairs()];
            (0..warmup + ticks)
                .map(|_| stream.next_demand().expect("the online stream is endless"))
                .skip(*warmup)
                .map(|demand| {
                    demand.flatten_pairs_into(&mut column);
                    solve(&column)
                })
                .collect()
        }
    }
}
