//! Golden decision digests of the `serve_sim` binary: the pinned proof of
//! "same behaviour" for refactors of the serving path.
//!
//! Every scenario CI smokes is run through the real binary, and its
//! `decision_log_digest`, `decision_digest` and `transition,` lines are
//! compared byte for byte against a recorded table.  The digests hash every
//! tick record (action, engine, predicted and realized MLU bits, churn) and
//! every recovery transition, so a refactor that changes any decision, any
//! MLU bit or the order of the ladder fails here — even when it changes
//! every code path the same way, which the relative CI diffs (1 vs 4
//! threads, 0 vs 1 shards, graph vs plan) cannot see.
//!
//! The spawned binary inherits `RAYON_NUM_THREADS`; CI runs this test once
//! with 1 thread and once with 4, and both must match the same table.

use std::process::Command;

/// Runs `serve_sim` with `args` and returns its digest and transition lines.
fn golden_lines(args: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .args(args)
        .output()
        .expect("serve_sim must run");
    assert!(
        out.status.success(),
        "serve_sim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 report")
        .lines()
        .filter(|l| {
            l.starts_with("decision_log_digest,")
                || l.starts_with("decision_digest,")
                || l.starts_with("transition,")
        })
        .map(str::to_string)
        .collect()
}

fn assert_golden(args: &[&str], expected: &[&str]) {
    let got = golden_lines(args);
    assert_eq!(got, expected, "serve_sim {args:?} moved off its golden digests");
}

#[test]
fn geant_learned_graph_replay() {
    assert_golden(
        &["--fast", "--max-eval", "8"],
        &["decision_log_digest,0x866183bface22aa8", "decision_digest,0xba465d69a7747de7"],
    );
}

#[test]
fn geant_learned_plan_replay() {
    assert_golden(
        &["--fast", "--max-eval", "8", "--inference", "plan"],
        &["decision_log_digest,0xf2f27e8bcc96a117", "decision_digest,0xba465d69a7747de7"],
    );
}

#[test]
fn geant_lp_replay() {
    assert_golden(
        &["--fast", "--max-eval", "8", "--engine", "lp"],
        &["decision_log_digest,0xd1e8ee50f4b40b96", "decision_digest,0xcd86eced42e510a7"],
    );
}

#[test]
fn geant_lp_online_with_budget() {
    assert_golden(
        &[
            "--fast",
            "--engine",
            "lp",
            "--online-ticks",
            "6",
            "--budget",
            "2",
            "--budget-window",
            "4",
        ],
        &["decision_log_digest,0xb5ad3ddf8c715837", "decision_digest,0x92ed6b2641faf166"],
    );
}

#[test]
fn tor512_fabric() {
    assert_golden(
        &[
            "--topology",
            "tor512",
            "--fast",
            "--snapshots",
            "8",
            "--window",
            "2",
            "--max-eval",
            "3",
            "--engine",
            "lp",
            "--always-update",
        ],
        &["decision_log_digest,0xc62909a0f6365952", "decision_digest,0x3181a3239200ad27"],
    );
}

fn podfab16(shards: &str) -> Vec<&str> {
    let mut args = vec!["--topology", "podfab16", "--fast", "--snapshots", "10", "--window", "2"];
    args.extend(["--max-eval", "6", "--engine", "lp", "--shards", shards]);
    args
}

#[test]
fn podfab16_unsharded_and_one_shard() {
    let expected = ["decision_log_digest,0xcd6de9df85d41195", "decision_digest,0x83d77194593bcda6"];
    assert_golden(&podfab16("0"), &expected);
    assert_golden(&podfab16("1"), &expected);
}

#[test]
fn podfab16_four_shards() {
    assert_golden(
        &podfab16("4"),
        &["decision_log_digest,0x28664cdadd68b109", "decision_digest,0x22c42dbd392828f5"],
    );
}

#[test]
fn poddb_recovery_drill() {
    assert_golden(
        &[
            "--topology",
            "pod-db",
            "--engine",
            "learned",
            "--fast",
            "--snapshots",
            "60",
            "--window",
            "4",
            "--online-ticks",
            "60",
            "--retrain-every",
            "4",
            "--promotion-patience",
            "2",
            "--shift-tick",
            "10",
        ],
        &[
            "transition,4,Degraded",
            "transition,4,RetrainStarted",
            "transition,8,RetrainStarted",
            "transition,12,RetrainStarted",
            "transition,16,RetrainStarted",
            "transition,20,RetrainStarted",
            "transition,24,RetrainStarted",
            "transition,28,RetrainStarted",
            "transition,32,RetrainStarted",
            "transition,34,Promoted",
            "decision_log_digest,0x9d46fd2996f7fa4f",
            "decision_digest,0xa99fe7bc3a5f4047",
        ],
    );
}

#[test]
fn geant_lp_with_metrics_armed() {
    let base = std::env::temp_dir().join(format!("golden_metrics_{}", std::process::id()));
    let base = base.to_str().expect("utf-8 temp path");
    let mut args = vec!["--topology", "geant", "--engine", "lp", "--fast", "--snapshots", "10"];
    args.extend(["--window", "2", "--max-eval", "6"]);
    let expected = ["decision_log_digest,0x1750be9009d1b0ba", "decision_digest,0x0d09e3ca68b700e7"];
    assert_golden(&args, &expected);
    args.extend(["--metrics-out", base, "--metrics-every", "2"]);
    assert_golden(&args, &expected);
    for ext in ["jsonl", "prom"] {
        let _ = std::fs::remove_file(format!("{base}.{ext}"));
    }
}

/// The learned replay falls back to the LP at tick 8, and the recorded
/// `Degraded` transition is folded into both digests.
#[test]
fn poddb_learned_replay() {
    assert_golden(
        &["--topology", "pod-db", "--fast", "--max-eval", "40"],
        &[
            "transition,8,Degraded",
            "decision_log_digest,0xd195663a1702dc9e",
            "decision_digest,0x62b37b919894faef",
        ],
    );
}
