//! Property test: the compiled f32 [`InferencePlan`] tracks the f64 graph
//! forward within 1e-4 relative error across random architectures, weights
//! (via the init seed and a few optimizer-style perturbation steps), segment
//! layouts and inputs.

use std::ops::Range;
use std::sync::Arc;

use figret_nn::{Graph, InferencePlan, Mlp, MlpConfig, OutputActivation, Tensor};
use proptest::prelude::*;

/// Splits `0..n` into contiguous non-empty segments using `cuts` as offsets.
fn segments_for(n: usize, cuts: &[usize]) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    bounds.dedup();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

fn activation_for(tag: usize) -> OutputActivation {
    match tag % 3 {
        0 => OutputActivation::Sigmoid,
        1 => OutputActivation::Relu,
        _ => OutputActivation::Linear,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plan_forward_matches_graph_forward(
        input_dim in 1usize..12,
        hidden in proptest::collection::vec(1usize..24, 0..3),
        output_dim in 1usize..16,
        seed in 0u64..1000,
        activation_tag in 0usize..3,
        cuts in proptest::collection::vec(0usize..64, 0..4),
        x_raw in proptest::collection::vec(-3.0f64..3.0, 12),
        scale in 0.5f64..8.0,
        nudge in -0.2f64..0.2,
    ) {
        let mut g = Graph::new();
        let mlp = Mlp::new(&mut g, MlpConfig {
            input_dim,
            hidden,
            output_dim,
            output_activation: activation_for(activation_tag),
            seed,
        });
        g.seal();
        // "Trained" weights: perturb every parameter away from its xavier
        // init so the test is not tied to the initializer's distribution.
        for p in mlp.parameters() {
            let delta = Tensor::full(g.value(p).rows(), g.value(p).cols(), nudge);
            g.add_grad(p, &delta);
            let update = g.grad(p).clone();
            g.value_mut(p).add_assign(&update);
            g.reset(); // keeps parameters; each gradient is read right after its only add
        }
        let segments = segments_for(output_dim, &cuts);
        let mut plan = InferencePlan::compile(&g, &mlp, segments.clone(), scale);

        let x = &x_raw[..input_dim];
        let mut plan_out = vec![0.0; output_dim];
        plan.forward(x, &mut plan_out);

        // Reference: scale the features exactly like the plan's input load,
        // then run the f64 tape.
        let scaled: Vec<f64> = x.iter().map(|v| v / scale).collect();
        g.reset();
        let input = g.input(Tensor::row(&scaled));
        let raw = mlp.forward(&mut g, input);
        let normed = g.segment_normalize(raw, Arc::new(segments));
        let reference = g.value(normed).data();

        for (i, (p, r)) in plan_out.iter().zip(reference).enumerate() {
            prop_assert!(
                (p - r).abs() <= 1e-4 * (1.0 + r.abs()),
                "output {i}: plan {p} vs graph {r}"
            );
        }
    }
}
