//! Turns a run's episodes into the benchmark's named metrics.

use figret_serve::FLEET_PHASES;
use figret_te::{normalize_by, SchemeQuality};
use figret_telemetry::{JsonObject, Registry};
use figret_traffic::stats::percentile;

use crate::spans::{aggregate, durations, Span};
use crate::workload::{Counts, Episode, Workload};
use crate::Instance;

/// One run of one workload, ready to be summarized.
pub struct Run<'a> {
    pub workload: Workload,
    pub tiny: bool,
    pub setups: &'a [f64],
    pub instances: &'a [Instance],
    pub traced_spans: &'a [Span],
    /// Samples FIGRET trained on across the traced set-ups.
    pub traced_train_samples: usize,
}

/// Named metrics with units, plus free-form lines printed beside them.
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report { metrics: Vec::new(), notes: Vec::new() }
    }

    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn print_table(&self, workload: &str) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric,{workload},{name},{value},{unit}");
        }
    }

    /// The worker's result line, read by `run.py`.
    pub fn json(&self, correct: bool, run: &Run) -> String {
        let mut metrics = JsonObject::new();
        for (name, value, unit) in &self.metrics {
            let mut m = JsonObject::new();
            m.field_f64("value", *value).field_str("unit", unit);
            metrics.field_raw(name, &m.finish());
        }
        let attempted: usize = run.episodes().map(|e| e.requested).sum();
        let served: usize = run.episodes().map(|e| e.realized.len()).sum();
        let digests: Vec<String> = run
            .references()
            .map(|e| format!("{:#018x}/{:#018x}", e.digest, e.decision_digest))
            .collect();
        let mut o = JsonObject::new();
        o.field_str("workload", run.workload.name())
            .field_raw("correct", if correct { "true" } else { "false" })
            .field_u64("attempted", attempted as u64)
            .field_u64("failed", (attempted - served) as u64)
            .field_raw("metrics", &metrics.finish())
            .field_str("digests", &digests.join(" "))
            .field_u64("episodes", run.episodes().count() as u64)
            .field_u64("setups", run.setups.len() as u64);
        o.finish()
    }
}

/// Timing statistics are taken per quarter of a cycle.
const BLOCKS_PER_CYCLE: usize = 4;

/// The percentile `tick_tail_us` and the per-layer tails report.  Not
/// higher: on a shared 2-vCPU host, outside load preempts a few percent of
/// ticks by milliseconds, which swings a p99 several-fold between runs of
/// the same code while p95 stays within a few percent.
const TAIL_QUANTILE: f64 = 0.95;

fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The registry histogram of one fleet tick phase.
fn fleet_phase(phase: &str) -> String {
    format!("figret_fleet_phase_seconds{{phase=\"{phase}\"}}")
}

/// Decision ticks per second of serving-loop wall time.
fn tick_rate<'e>(episodes: impl Iterator<Item = &'e Episode>) -> f64 {
    let (ticks, seconds) =
        episodes.fold((0usize, 0.0), |(t, s), e| (t + e.tick_seconds.len(), s + e.serve_seconds));
    ticks as f64 / seconds.max(1e-12)
}

impl Run<'_> {
    /// Every episode, in the order the run served them (cycle-major).
    fn episodes(&self) -> impl Iterator<Item = &Episode> {
        let per_instance = self.instances.iter().map(|i| i.episodes.len()).max().unwrap_or(0);
        (0..per_instance)
            .flat_map(move |k| self.instances.iter().filter_map(move |i| i.episodes.get(k)))
    }

    /// The first episode of each instance: the one the gate compared every
    /// other episode of that instance against.
    fn references(&self) -> impl Iterator<Item = &Episode> {
        self.instances.iter().map(|i| &i.episodes[0])
    }

    fn disarmed(&self) -> impl Iterator<Item = &Episode> {
        self.episodes().filter(|e| !e.armed)
    }

    fn armed(&self) -> impl Iterator<Item = &Episode> {
        self.episodes().filter(|e| e.armed)
    }

    /// Disarmed episodes in run order, chunked into blocks of a quarter
    /// cycle (at least one episode).
    fn disarmed_blocks(&self) -> Vec<Vec<&Episode>> {
        let disarmed: Vec<&Episode> = self.disarmed().collect();
        disarmed.chunks(self.block_episodes()).map(<[&Episode]>::to_vec).collect()
    }

    fn block_episodes(&self) -> usize {
        (self.workload.instances(self.tiny) / BLOCKS_PER_CYCLE).max(1)
    }

    /// Whole cycles over the instances this run served in `armed` mode.
    fn cycles(&self, armed: bool) -> f64 {
        let episodes = self.episodes().filter(|e| e.armed == armed).count();
        (episodes as f64 / self.instances.len() as f64).max(1.0)
    }

    /// Counted work of one cycle (identical in every cycle).
    fn counts(&self) -> Counts {
        self.references().fold(Counts::default(), |a, e| a + e.counts)
    }

    /// The `--trace 0` metrics: what a user of the controller sees.
    pub fn end_to_end(&self) -> Report {
        let mut r = Report::new();
        // Timing metrics are computed per block of consecutive episodes over
        // its pooled ticks and reported as the median over the run's
        // blocks: a burst of load from outside the process spoils a block,
        // not the run.
        let blocks = self.disarmed_blocks();
        let per_block = |stat: &dyn Fn(&[&Episode]) -> f64| {
            median(&blocks.iter().map(|b| stat(b)).collect::<Vec<_>>())
        };
        let pooled = |c: &[&Episode]| -> Vec<f64> {
            c.iter().flat_map(|e| e.tick_seconds.iter().copied()).collect()
        };
        let normalized: Vec<f64> = self
            .instances
            .iter()
            .flat_map(|i| normalize_by(&i.episodes[0].realized, &i.oracle))
            .collect();
        let regret = SchemeQuality::from_normalized("", &normalized).normalized_mlu;
        let churn: f64 = self.references().map(|e| e.total_churn).sum();
        r.add("setup_s", median(self.setups), "s");
        r.add("ticks_per_s", per_block(&|b| tick_rate(b.iter().copied())), "1/s");
        r.add("tick_p50_us", per_block(&|b| 1e6 * quantile(&pooled(b), 0.5)), "us");
        r.add("tick_tail_us", per_block(&|b| 1e6 * quantile(&pooled(b), TAIL_QUANTILE)), "us");
        r.add("mlu_regret_mean", regret.mean, "ratio");
        r.add("mlu_regret_p99", regret.p99, "ratio");
        r.add("churn_per_tick", churn / normalized.len().max(1) as f64, "L1");
        let c = self.counts();
        r.notes.push(format!(
            "work,{},updates={},lp_solves={},lp_pivots={},retrains={},promotions={}",
            self.workload.name(),
            c.updates,
            c.lp_solves,
            c.lp_phase1_pivots + c.lp_phase2_pivots,
            c.retrains,
            c.promotions
        ));
        r.notes.push(format!(
            "tail,{},p{},samples={}x{}",
            self.workload.name(),
            100.0 * TAIL_QUANTILE,
            blocks.len(),
            blocks.first().map_or(0, |b| pooled(b).len())
        ));
        r
    }

    /// The `--trace 1` metrics: per-layer numbers from the traced episodes.
    pub fn per_layer(&self) -> Report {
        let mut r = Report::new();
        let armed: Vec<&Episode> = self.armed().collect();
        // Set-up spans are averaged per traced set-up, counters per cycle.
        let traced = armed.len().max(1) as f64;
        let cycles = self.cycles(true);
        let spans = aggregate(self.traced_spans);
        let span_total = |name: &str| spans.get(name).map_or(0.0, |a| a.total);
        let mut registry = Registry::new();
        for e in &armed {
            if let Some(reg) = &e.registry {
                registry.merge_from(reg);
            }
        }
        let hist_sum = |name: &str| registry.histogram_by_name(name).map_or(0.0, |h| h.sum());
        let hist_p50_us = |name: &str| {
            registry
                .histogram_by_name(name)
                .filter(|h| !h.is_empty())
                .map_or(0.0, |h| 1e6 * h.quantile(0.5))
        };
        let counter = |name: &str| registry.counter_by_name(name).unwrap_or(0) as f64;
        let span_us = |name: &str, q: f64| 1e6 * quantile(&durations(self.traced_spans, name), q);

        // Set-up layers, per traced set-up.
        for (metric, span) in [
            ("eval.scenario_build_s", "eval.scenario_build"),
            ("topology.fabric_build_s", "topology.fabric_build"),
            ("traffic.trace_gen_s", "traffic.trace_gen"),
            ("te.paths_s", "te.paths"),
            ("core.train_s", "core.train"),
            ("nn.plan_compile_s", "nn.plan_compile"),
        ] {
            r.add(metric, span_total(span) / traced, "s");
        }
        let train_s = span_total("core.train") / traced;
        let samples_per_s =
            if train_s > 0.0 { self.traced_train_samples as f64 / traced / train_s } else { 0.0 };
        r.add("core.train_samples_per_s", samples_per_s, "1/s");

        // Serving layers: outside spans around propose/finish, the
        // controller's own registry inside them.
        r.add("serve.propose_us_p50", span_us("serve.propose", 0.5), "us");
        r.add("serve.propose_us_tail", span_us("serve.propose", TAIL_QUANTILE), "us");
        r.add("serve.finish_us_p50", span_us("serve.finish", 0.5), "us");
        r.add("serve.finish_us_tail", span_us("serve.finish", TAIL_QUANTILE), "us");
        r.add("serve.predict_us", hist_p50_us("figret_serve_predict_seconds"), "us");
        r.add(
            "serve.candidate_model_us",
            hist_p50_us("figret_serve_candidate_seconds{engine=\"model\"}"),
            "us",
        );
        r.add(
            "serve.candidate_lp_us",
            hist_p50_us("figret_serve_candidate_seconds{engine=\"lp\"}"),
            "us",
        );
        r.add("serve.mlu_eval_us", hist_p50_us("figret_serve_mlu_eval_seconds"), "us");
        r.add("serve.decision_p50_us", hist_p50_us("figret_serve_decision_seconds"), "us");

        let c = self.counts();
        r.add("serve.updates", c.updates as f64, "count");
        r.add("serve.holds_hysteresis", c.holds_hysteresis as f64, "count");
        r.add("serve.lp_decided_ticks", c.lp_decided_ticks as f64, "count");
        let per_cycle =
            |f: fn(&Episode) -> f64| self.disarmed().map(f).sum::<f64>() / self.cycles(false);
        let solves = c.lp_solves as f64;
        let pivots = (c.lp_phase1_pivots + c.lp_phase2_pivots) as f64;
        r.add("lp.solves", solves, "count");
        r.add("lp.warm_accept_ratio", c.lp_warm_solves as f64 / solves.max(1.0), "ratio");
        r.add("lp.phase1_pivots", c.lp_phase1_pivots as f64, "count");
        r.add("lp.phase2_pivots", c.lp_phase2_pivots as f64, "count");
        r.add("lp.pivots_per_solve", pivots / solves.max(1.0), "count");
        r.add("lp.refactorizations", c.lp_refactorizations as f64, "count");
        r.add("lp.phase1_s", per_cycle(|e| e.lp_seconds[0]), "s");
        r.add("lp.phase2_s", per_cycle(|e| e.lp_seconds[1]), "s");
        r.add("lp.factor_s", per_cycle(|e| e.lp_seconds[2]), "s");

        let tick_total = span_total("tick");
        for phase in FLEET_PHASES {
            let name = fleet_phase(phase);
            r.add(format!("fleet.{phase}_us"), hist_p50_us(&name), "us");
            r.add(format!("fleet.{phase}_share"), hist_sum(&name) / tick_total.max(1e-12), "ratio");
        }
        r.add("admission.bids", c.bids as f64, "count");
        r.add("admission.grants", c.grants as f64, "count");

        r.add("recovery.retrains", c.retrains as f64, "count");
        r.add("recovery.retrain_s", per_cycle(|e| e.retrain_seconds), "s");
        r.add("recovery.promotions", c.promotions as f64, "count");
        r.add("recovery.fallback_ticks", c.fallback_ticks as f64, "count");
        let audits = counter("figret_recovery_shadow_audits_total{result=\"win\"}")
            + counter("figret_recovery_shadow_audits_total{result=\"loss\"}");
        r.add("recovery.shadow_audits", audits / cycles, "count");
        r.add(
            "recovery.shadow_audit_us",
            hist_p50_us("figret_recovery_shadow_audit_seconds"),
            "us",
        );
        r.add("traffic.online_next_us", span_us("traffic.online_next", 0.5), "us");

        r.add(
            "telemetry.overhead_ratio",
            tick_rate(armed.iter().copied()) / tick_rate(self.disarmed()),
            "ratio",
        );

        // Self-time breakdown of the traced ticks.  The registry's spans sit
        // inside the outside spans; parallel shard spans are not subtracted
        // from the fleet's wall-clock phases.
        let layers: Vec<(String, f64)> = if self.workload == Workload::Podfab16Fleet {
            let mut layers: Vec<(String, f64)> = FLEET_PHASES
                .iter()
                .map(|p| (format!("fleet.{p}"), hist_sum(&fleet_phase(p))))
                .collect();
            let covered: f64 = layers.iter().map(|(_, s)| s).sum();
            layers.push(("remainder".to_string(), tick_total - covered));
            layers
        } else {
            let predict = hist_sum("figret_serve_predict_seconds");
            let candidate = hist_sum("figret_serve_candidate_seconds{engine=\"model\"}")
                + hist_sum("figret_serve_candidate_seconds{engine=\"lp\"}");
            let mlu = hist_sum("figret_serve_mlu_eval_seconds");
            let lp = hist_sum("figret_lp_solve_seconds");
            let shadow = hist_sum("figret_recovery_shadow_audit_seconds");
            let retrain = hist_sum("figret_recovery_retrain_seconds");
            let propose = span_total("serve.propose");
            let finish = span_total("serve.finish");
            [
                ("serve.propose", propose - predict - candidate - mlu),
                ("serve.predict", predict),
                ("serve.candidate", candidate - lp - shadow),
                ("lp.solve", lp),
                ("recovery.shadow_audit", shadow),
                ("serve.mlu_eval", mlu),
                ("serve.finish", finish - retrain),
                ("recovery.retrain", retrain),
                ("remainder", tick_total - propose - finish),
            ]
            .map(|(layer, seconds)| (layer.to_string(), seconds))
            .into()
        };
        let ticks = spans.get("tick").map_or(1, |a| a.count).max(1) as f64;
        let name = self.workload.name();
        for (layer, self_time) in &layers {
            r.notes.push(format!(
                "layer,{name},{layer},self_us_per_tick={:.3},share={:.4}",
                1e6 * self_time / ticks,
                self_time / tick_total.max(1e-12)
            ));
        }
        let explained: f64 = layers.iter().map(|(_, s)| s).sum();
        let nested = layers.iter().all(|(_, s)| *s >= -1e-9 * ticks);
        // The traced tick differs from the disarmed one by the tracing
        // overhead; both are timed from outside around the same calls.
        let (untraced_ticks, untraced_seconds) = self
            .disarmed()
            .flat_map(|e| &e.tick_seconds)
            .fold((0usize, 0.0), |(n, s), t| (n + 1, s + t));
        r.notes.push(format!(
            "reconcile,{name},traced_tick_us={:.3},sum_self_us={:.3},nested={nested},\
             untraced_tick_us={:.3}",
            1e6 * tick_total / ticks,
            1e6 * explained / ticks,
            1e6 * untraced_seconds / untraced_ticks.max(1) as f64
        ));
        let remainder = layers.last().map_or(0.0, |(_, s)| *s);
        r.add("trace.tick_us", 1e6 * tick_total / ticks, "us");
        r.add("trace.remainder_share", remainder / tick_total.max(1e-12), "ratio");
        for (span, a) in &spans {
            r.notes.push(format!(
                "span,{name},{span},count={},total_s={:.6},self_s={:.6}",
                a.count, a.total, a.self_time
            ));
        }
        r
    }
}
