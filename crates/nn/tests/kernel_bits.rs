//! The dense kernels are bit-identical to the textbook loops they replace.
//!
//! `Tensor::matmul` runs k-outer over blocks of rows, and the `MatMul`
//! backward computes `dX = G · Wᵀ` from a shared transpose and `dW = Xᵀ · G`
//! without materializing `Xᵀ`.  These properties compare them, bit for bit,
//! against test-local copies of the reference: an `i`-outer, `k`-inner
//! product that skips zero left entries, and an explicit `transpose()` then
//! that product.  Entries include exact `0.0` and `-0.0`.

use std::sync::Arc;

use figret_nn::{Graph, Tensor};
use proptest::prelude::*;

/// The largest operand drawn: 12×20 or 20×12.
const MAX_ENTRIES: usize = 240;

/// `i`-outer, `k`-inner product, skipping zero entries of `a`.
fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, inner, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for k in 0..inner {
            let x = a.get(i, k);
            if x == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += x * b.get(k, j);
            }
        }
    }
    Tensor::from_vec(m, n, out)
}

fn reference_transpose(a: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out.set(c, r, a.get(r, c));
        }
    }
    out
}

/// A gradient as the reference backward leaves it: a contribution added to
/// a zeroed buffer.
fn added_to_zero(t: Tensor) -> Tensor {
    let data = t.data().iter().map(|v| 0.0 + v).collect();
    Tensor::from_vec(t.rows(), t.cols(), data)
}

/// A tensor from drawn `(tag, value)` entries: tag 0 is `0.0`, tag 1 is
/// `-0.0`, anything else the value.
fn tensor(rows: usize, cols: usize, raw: &[(u8, f64)]) -> Tensor {
    let data = raw[..rows * cols]
        .iter()
        .map(|&(tag, v)| match tag {
            0 => 0.0,
            1 => -0.0,
            _ => v,
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `(dX, dW)` of `loss = Σ (X·W) ⊙ G` on the tape, with `W` a parameter (the
/// cached-transpose path) or a plain input.
fn tape_gradients(x: &Tensor, w: &Tensor, g: &Tensor, w_is_parameter: bool) -> (Tensor, Tensor) {
    let mut graph = Graph::new();
    let w_param = w_is_parameter.then(|| graph.parameter(w.clone()));
    graph.seal();
    let w = w_param.unwrap_or_else(|| graph.input(w.clone()));
    let x = graph.input(x.clone());
    let y = graph.matmul(x, w);
    let weighted = graph.mul_const(y, Arc::new(g.data().to_vec()));
    let loss = graph.sum(weighted);
    graph.backward(loss);
    (graph.grad(x).clone(), graph.grad(w).clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_is_bit_identical_to_the_i_outer_reference(
        m in 1usize..21,
        inner in 1usize..13,
        n in 1usize..13,
        a_raw in collection::vec((0u8..5, -3.0f64..3.0), MAX_ENTRIES),
        b_raw in collection::vec((0u8..5, -3.0f64..3.0), MAX_ENTRIES),
    ) {
        let a = tensor(m, inner, &a_raw);
        let b = tensor(inner, n, &b_raw);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&reference_matmul(&a, &b)));
    }

    #[test]
    fn matmul_backward_is_bit_identical_to_transpose_then_matmul(
        m in 1usize..21,
        inner in 1usize..13,
        n in 1usize..13,
        x_raw in collection::vec((0u8..5, -3.0f64..3.0), MAX_ENTRIES),
        w_raw in collection::vec((0u8..5, -3.0f64..3.0), MAX_ENTRIES),
        g_raw in collection::vec((0u8..5, -3.0f64..3.0), MAX_ENTRIES),
        w_is_parameter in 0u8..2,
    ) {
        let x = tensor(m, inner, &x_raw);
        let w = tensor(inner, n, &w_raw);
        let g = tensor(m, n, &g_raw);
        // The upstream gradient of `y` is `0 + 1.0 · g` (sum, then mul_const).
        let upstream = added_to_zero(g.clone());
        let expected_dx = added_to_zero(reference_matmul(&upstream, &reference_transpose(&w)));
        let expected_dw = added_to_zero(reference_matmul(&reference_transpose(&x), &upstream));
        let (dx, dw) = tape_gradients(&x, &w, &g, w_is_parameter == 1);
        prop_assert_eq!(bits(&dx), bits(&expected_dx));
        prop_assert_eq!(bits(&dw), bits(&expected_dw));
    }
}
