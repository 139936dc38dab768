//! telemetry_cost — what arming out-of-band metrics costs (DESIGN.md §10).
//!
//! * `step_plan_disarmed` / `step_plan_armed` — one full controller tick on
//!   the compiled f32 inference plan (the production hot path), with and
//!   without telemetry.  The acceptance bar is ≤ 5 % added p50 latency:
//!   armed ticks pay four `Instant` reads plus a handful of dense-`Vec`
//!   index-adds, nothing else.
//! * `fleet_snapshot_512tor` — cloning the fleet registry and merging all
//!   shard registries in stable order, on a 512-ToR / 4-shard LP fleet.
//! * `fleet_exposition_512tor` — rendering that merged registry as
//!   Prometheus text (what one `--metrics-every` snapshot costs on top of
//!   the merge).
//!
//! Recorded to `BENCH_pr10.json` via `CRITERION_JSON`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use figret::{FigretConfig, FigretModel};
use figret_bench::bench_setup;
use figret_bench::fleet::{fleet_case, warmed_lp_fleet, WINDOW as FLEET_WINDOW};
use figret_serve::{PredictorKind, ReconfigPolicy, ServeController};
use figret_telemetry::exposition;
use figret_traffic::{per_pair_variance_range, WindowDataset};

const WINDOW: usize = 8;

/// The last six snapshots as pair columns, flattened once outside the
/// timed region.
fn cycling_demands(scenario: &figret_bench::Scenario) -> Vec<Vec<f64>> {
    let t = scenario.trace.len();
    (t - 6..t).map(|h| scenario.trace.matrix(h).flatten_pairs()).collect()
}

fn warmed_plan_controller(scenario: &figret_bench::Scenario) -> ServeController {
    let variances = per_pair_variance_range(&scenario.trace, scenario.split.train.clone());
    let dataset = WindowDataset::from_trace(&scenario.trace, WINDOW, scenario.split.train.clone());
    let mut model = FigretModel::new(
        &scenario.paths,
        &variances,
        FigretConfig { history_window: WINDOW, epochs: 2, ..FigretConfig::fast_test() },
    );
    model.train(&dataset);
    let mut controller = ServeController::learned(
        &scenario.paths,
        model,
        PredictorKind::LastValue.build(),
        ReconfigPolicy::always_update(),
    );
    controller.enable_inference_plan();
    for t in 0..WINDOW {
        controller.observe_pairs(&scenario.trace.matrix(t).flatten_pairs());
    }
    controller
}

fn step_plan_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_cost");
    group.sample_size(20);
    for topology in [figret_topology::Topology::Geant, figret_topology::Topology::MetaDbTor] {
        let scenario = bench_setup(topology, 120);
        let demands = cycling_demands(&scenario);
        for armed in [false, true] {
            let mut controller = warmed_plan_controller(&scenario);
            if armed {
                controller.enable_telemetry();
            }
            let label = if armed { "step_plan_armed" } else { "step_plan_disarmed" };
            let mut cursor = 0usize;
            group.bench_with_input(BenchmarkId::new(label, scenario.name.clone()), &(), |b, _| {
                b.iter(|| {
                    cursor = (cursor + 1) % demands.len();
                    controller.step_pairs(&demands[cursor])
                })
            });
        }
    }
    group.finish();
}

fn snapshot_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_cost");
    group.sample_size(10);
    let case = fleet_case(512, true);
    let mut fleet = warmed_lp_fleet(&case, 4);
    fleet.enable_telemetry();
    // Populate every shard registry with real samples before measuring.
    for cursor in FLEET_WINDOW..FLEET_WINDOW + 4 {
        fleet.step_sparse(case.trace.snapshot(cursor));
    }
    group.bench_with_input(BenchmarkId::new("fleet_snapshot_512tor", "4 shards"), &(), |b, _| {
        b.iter(|| fleet.telemetry_snapshot().expect("armed fleet"))
    });
    let registry = fleet.telemetry_snapshot().expect("armed fleet");
    group.bench_with_input(BenchmarkId::new("fleet_exposition_512tor", "4 shards"), &(), |b, _| {
        b.iter(|| exposition(&registry))
    });
    group.finish();
}

criterion_group!(benches, step_plan_cost, snapshot_cost);
criterion_main!(benches);
