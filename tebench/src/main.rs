//! tebench — one workload of the FIGRET serving benchmark, in process.
//!
//! ```text
//! tebench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! A run serves as many whole cycles over the workload's instances as fit
//! in `S` seconds, at least one (each instance is one set-up plus one
//! episode on inputs drawn from `N`), checks the correctness gate, and
//! prints one JSON object as its last line.  Progress lines (`episode,start,<ticks>` /
//! `episode,end,<ticks>`) let the parent driver (`run.py`) count the ticks
//! of a run that panics or hangs as failed.

mod gate;
mod metrics;
mod spans;
mod workload;

use std::io::Write;
use std::time::{Duration, Instant};

use spans::Tracer;
use workload::{Episode, Workload};

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: tebench --workload <{}> --seed N --seconds S --trace 0|1 [--size full|tiny]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).map(|i| {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        })
    };
    for pair in argv.chunks(2) {
        if !["--workload", "--seed", "--seconds", "--trace", "--size"].contains(&pair[0].as_str()) {
            usage(&format!("unknown argument '{}'", pair[0]));
        }
    }
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload = Workload::parse(workload)
        .unwrap_or_else(|| usage(&format!("unknown workload '{workload}'")));
    let number = |flag: &str, default: &str| -> f64 {
        let raw = value(flag).unwrap_or(default);
        raw.parse().unwrap_or_else(|_| usage(&format!("{flag}: '{raw}' is not a number")))
    };
    let seed = number("--seed", "1");
    let seconds = number("--seconds", "10");
    if seed < 0.0 || seed.fract() != 0.0 || !seconds.is_finite() || seconds <= 0.0 {
        usage("--seed must be a whole number ≥ 0 and --seconds positive");
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace: expected 0 or 1, got '{other}'")),
    };
    let tiny = match value("--size").unwrap_or("full") {
        "full" => false,
        "tiny" => true,
        other => usage(&format!("--size: expected full or tiny, got '{other}'")),
    };
    Args { workload, seed: seed as u64, seconds, trace, tiny }
}

fn progress(line: &str) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}").and_then(|()| out.flush()).expect("stdout must be writable");
}

/// One instance of a run: its own seed, its oracle series and every
/// episode served on it (the first is the reference the others must match).
pub struct Instance {
    pub seed: u64,
    pub oracle: Vec<f64>,
    pub episodes: Vec<Episode>,
}

fn main() {
    let args = parse_args();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let instances_per_cycle = args.workload.instances(args.tiny);
    let mut instances: Vec<Instance> = Vec::new();
    let mut setups = Vec::new();
    let mut traced_spans = Vec::new();
    let mut traced_train_samples = 0;
    // A traced run serves every instance disarmed and then traced, so the
    // tracing overhead is measured against interleaved disarmed episodes.
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    // Whole cycles over the instances, as many as fit in the time budget
    // (at least one), judged by the duration of the cycle before.
    let mut last_cycle = Duration::ZERO;
    while instances.is_empty() || start.elapsed() + last_cycle <= budget {
        let cycle_start = Instant::now();
        for i in 0..instances_per_cycle {
            let seed = args.seed.wrapping_mul(64).wrapping_add(i as u64);
            for &armed in passes {
                let mut tracer = Tracer::new(armed);
                let (mut prepared, setup_seconds) =
                    workload::setup(args.workload, seed, args.tiny, &mut tracer);
                setups.push(setup_seconds);
                progress(&format!("episode,start,{}", args.workload.ticks(args.tiny)));
                let episode = workload::serve(&mut prepared, &mut tracer);
                progress(&format!("episode,end,{}", episode.realized.len()));
                if armed {
                    traced_spans.extend_from_slice(tracer.spans());
                    traced_train_samples += prepared.train_samples;
                }
                if instances.len() == i {
                    let oracle = workload::oracle(&prepared);
                    instances.push(Instance { seed, oracle, episodes: Vec::new() });
                }
                instances[i].episodes.push(episode);
            }
        }
        last_cycle = cycle_start.elapsed();
    }
    while setups.len() < SETUPS {
        let (_, setup_seconds) =
            workload::setup(args.workload, instances[0].seed, args.tiny, &mut Tracer::new(false));
        setups.push(setup_seconds);
    }
    let mut correct = true;
    for instance in &instances {
        for e in gate::check(&instance.episodes, &instance.oracle) {
            eprintln!("correctness gate: instance seed {}: {e}", instance.seed);
            correct = false;
        }
    }
    let run = metrics::Run {
        workload: args.workload,
        tiny: args.tiny,
        setups: &setups,
        instances: &instances,
        traced_spans: &traced_spans,
        traced_train_samples,
    };
    let report = if args.trace { run.per_layer() } else { run.end_to_end() };
    report.print_table(args.workload.name());
    println!("{}", report.json(correct, &run));
}
