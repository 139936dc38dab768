//! serve_step_latency — per-decision latency of the online TE controller.
//!
//! Benchmarks one full controller tick (forecast → candidate → policy gates
//! → deploy → ingest) on GEANT and on the (reduced) ToR-level DB fabric,
//! for both engines:
//!
//! * `step_lp` — the candidate is a warm-started LP re-solve through the
//!   min-MLU template (what the controller pays after a fallback);
//! * `step_model` — the candidate is one forward pass of a trained FIGRET
//!   model through the f64 autodiff graph (audits disabled so no LP is
//!   touched);
//! * `step_model_plan` — the same tick served from the compiled f32
//!   inference plan (the zero-alloc hot path).
//!
//! The policy is `always_update`, so every tick pays the full decision cost
//! — the worst case a serving deployment budgets for.  Recorded to
//! `BENCH_pr6.json` via `CRITERION_JSON`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use figret::{FigretConfig, FigretModel};
use figret_bench::bench_setup;
use figret_serve::{PredictorKind, ReconfigPolicy, ServeController};
use figret_traffic::{per_pair_variance_range, WindowDataset};

const WINDOW: usize = 8;

/// The last six snapshots as pair columns, flattened once outside the
/// timed region.
fn cycling_demands(scenario: &figret_bench::Scenario) -> Vec<Vec<f64>> {
    let t = scenario.trace.len();
    (t - 6..t).map(|h| scenario.trace.matrix(h).flatten_pairs()).collect()
}

fn warmed_lp_controller(scenario: &figret_bench::Scenario) -> ServeController {
    let mut controller = ServeController::lp(
        &scenario.paths,
        WINDOW,
        PredictorKind::LastValue.build(),
        ReconfigPolicy::always_update(),
    );
    for t in 0..WINDOW {
        controller.observe_pairs(&scenario.trace.matrix(t).flatten_pairs());
    }
    controller
}

fn warmed_model_controller(scenario: &figret_bench::Scenario) -> ServeController {
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
    for t in 0..WINDOW {
        controller.observe_pairs(&scenario.trace.matrix(t).flatten_pairs());
    }
    controller
}

fn serve_step_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_step_latency");
    group.sample_size(20);

    for topology in [figret_topology::Topology::Geant, figret_topology::Topology::MetaDbTor] {
        let scenario = bench_setup(topology, 120);
        let demands = cycling_demands(&scenario);

        let mut lp = warmed_lp_controller(&scenario);
        let mut cursor = 0usize;
        group.bench_with_input(BenchmarkId::new("step_lp", scenario.name.clone()), &(), |b, _| {
            b.iter(|| {
                cursor = (cursor + 1) % demands.len();
                lp.step_pairs(&demands[cursor])
            })
        });

        let mut learned = warmed_model_controller(&scenario);
        let mut cursor = 0usize;
        group.bench_with_input(
            BenchmarkId::new("step_model", scenario.name.clone()),
            &(),
            |b, _| {
                b.iter(|| {
                    cursor = (cursor + 1) % demands.len();
                    learned.step_pairs(&demands[cursor])
                })
            },
        );

        // Same tick, but inference runs through the compiled f32 plan — the
        // zero-alloc hot path a production controller would serve from.
        let mut planned = warmed_model_controller(&scenario);
        planned.enable_inference_plan();
        let mut cursor = 0usize;
        group.bench_with_input(
            BenchmarkId::new("step_model_plan", scenario.name.clone()),
            &(),
            |b, _| {
                b.iter(|| {
                    cursor = (cursor + 1) % demands.len();
                    planned.step_pairs(&demands[cursor])
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, serve_step_latency);
criterion_main!(benches);
