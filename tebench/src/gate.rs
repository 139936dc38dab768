//! The correctness gate every run must pass before its numbers count.

use crate::workload::Episode;

/// A realized MLU may undercut the omniscient optimum only by LP tolerance.
pub const REGRET_FLOOR: f64 = 1.0 - 1e-6;

/// Checks one run's episodes against the oracle series; returns every
/// violation found (empty when the run is correct).
///
/// * every episode served the ticks it requested;
/// * every realized and oracle MLU is finite and positive;
/// * per tick, realized / omniscient ≥ [`REGRET_FLOOR`];
/// * every episode — disarmed or traced — reproduces the first one's
///   digests, realized MLU series and counted work bit for bit.
pub fn check(episodes: &[Episode], oracle: &[f64]) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(first) = episodes.first() else {
        return vec!["no episode was served".to_string()];
    };
    for (i, e) in episodes.iter().enumerate() {
        if e.realized.len() != e.requested {
            errors.push(format!(
                "episode {i}: served {} of {} ticks",
                e.realized.len(),
                e.requested
            ));
        }
    }
    if let Some(t) = first.realized.iter().position(|m| !(m.is_finite() && *m > 0.0)) {
        errors.push(format!(
            "tick {t}: realized MLU {} is not finite and positive",
            first.realized[t]
        ));
    }
    if let Some(t) = oracle.iter().position(|m| !(m.is_finite() && *m > 0.0)) {
        errors.push(format!("tick {t}: oracle MLU {} is not finite and positive", oracle[t]));
    }
    if oracle.len() != first.realized.len() {
        errors.push(format!(
            "oracle covers {} ticks, the episode {}",
            oracle.len(),
            first.realized.len()
        ));
    }
    for (t, (r, o)) in first.realized.iter().zip(oracle).enumerate() {
        if r / o < REGRET_FLOOR {
            errors.push(format!("tick {t}: realized MLU {r} beats the omniscient optimum {o}"));
            break;
        }
    }
    for (i, e) in episodes.iter().enumerate().skip(1) {
        let kind = if e.armed { "traced" } else { "untraced" };
        if (e.digest, e.decision_digest) != (first.digest, first.decision_digest) {
            errors.push(format!(
                "episode {i} ({kind}): digests {:#018x}/{:#018x} differ from {:#018x}/{:#018x}",
                e.digest, e.decision_digest, first.digest, first.decision_digest
            ));
        }
        let same_series = e.realized.len() == first.realized.len()
            && e.realized.iter().zip(&first.realized).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_series {
            errors.push(format!("episode {i} ({kind}): realized MLU series differs"));
        }
        if e.counts != first.counts {
            errors.push(format!(
                "episode {i} ({kind}): counted work {:?} differs from {:?}",
                e.counts, first.counts
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Counts;

    fn episode(realized: &[f64], digest: u64) -> Episode {
        Episode {
            armed: false,
            requested: realized.len(),
            tick_seconds: vec![1e-4; realized.len()],
            serve_seconds: 1e-3,
            realized: realized.to_vec(),
            total_churn: 0.5,
            digest,
            decision_digest: digest ^ 1,
            counts: Counts { updates: 2, ..Counts::default() },
            lp_seconds: [0.0; 3],
            retrain_seconds: 0.0,
            registry: None,
        }
    }

    #[test]
    fn a_consistent_run_passes() {
        let runs = [episode(&[1.2, 1.0], 7), episode(&[1.2, 1.0], 7)];
        assert!(check(&runs, &[1.0, 1.0]).is_empty());
    }

    #[test]
    fn a_corrupted_oracle_series_fails() {
        let runs = [episode(&[1.2, 1.0], 7)];
        // An oracle above the realized MLU claims the controller beat the
        // optimum: the gate must refuse it.
        let errors = check(&runs, &[1.0, 1.01]);
        assert!(errors.iter().any(|e| e.contains("beats the omniscient optimum")), "{errors:?}");
        let errors = check(&runs, &[1.0, f64::NAN]);
        assert!(errors.iter().any(|e| e.contains("oracle MLU")), "{errors:?}");
        let errors = check(&runs, &[1.0]);
        assert!(errors.iter().any(|e| e.contains("oracle covers")), "{errors:?}");
    }

    #[test]
    fn a_corrupted_digest_fails() {
        let mut second = episode(&[1.2, 1.0], 7);
        second.armed = true;
        second.digest ^= 0x10;
        let errors = check(&[episode(&[1.2, 1.0], 7), second], &[1.0, 1.0]);
        assert!(errors.iter().any(|e| e.contains("traced") && e.contains("digests")), "{errors:?}");
    }

    #[test]
    fn missing_ticks_and_drifting_counts_fail() {
        let mut short = episode(&[1.2, 1.0], 7);
        short.requested = 3;
        assert!(check(&[short], &[1.0, 1.0]).iter().any(|e| e.contains("served 2 of 3")));
        let mut drift = episode(&[1.2, 1.0], 7);
        drift.counts.lp_phase2_pivots += 1;
        let errors = check(&[episode(&[1.2, 1.0], 7), drift], &[1.0, 1.0]);
        assert!(errors.iter().any(|e| e.contains("counted work")), "{errors:?}");
    }

    #[test]
    fn a_non_finite_realized_mlu_fails() {
        let errors = check(&[episode(&[f64::INFINITY, 1.0], 7)], &[1.0, 1.0]);
        assert!(errors.iter().any(|e| e.contains("realized MLU inf")), "{errors:?}");
    }
}
