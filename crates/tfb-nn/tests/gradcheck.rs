//! Randomized finite-difference gradient checks over composite graphs —
//! the strongest guarantee the autodiff tape can give: for random inputs
//! and random parameter values, every analytic gradient matches the
//! numerical one.

#![allow(clippy::needless_range_loop)] // finite-difference loops index two buffers

use proptest::prelude::*;
use tfb_nn::{ParamStore, Tape, TensorRef};

/// Builds a small composite network: dense -> relu -> layernorm -> dense ->
/// softmax -> mse against a fixed target.
fn forward(
    tape: &mut Tape,
    store: &ParamStore,
    w1: tfb_nn::optim::ParamId,
    w2: tfb_nn::optim::ParamId,
    input: &[f64],
) -> TensorRef {
    let x = tape.input(input, 1, 4);
    let p1 = tape.param(store, w1);
    let h = tape.matmul(x, p1);
    let h = tape.relu(h);
    let h = tape.layer_norm_rows(h);
    let p2 = tape.param(store, w2);
    let y = tape.matmul(h, p2);
    let s = tape.softmax_rows(y);
    let target = tape.input(&[0.7, 0.2, 0.1], 1, 3);
    let d = tape.sub(s, target);
    let sq = tape.mul_elem(d, d);
    tape.mean_all(sq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn composite_graph_gradients_match_finite_differences(
        w1_init in proptest::collection::vec(-1.0_f64..1.0, 4 * 5),
        w2_init in proptest::collection::vec(-1.0_f64..1.0, 5 * 3),
        input in proptest::collection::vec(-2.0_f64..2.0, 4),
    ) {
        let mut store = ParamStore::new(0);
        let w1 = store.add_raw(w1_init, 4, 5);
        let w2 = store.add_raw(w2_init, 5, 3);
        // Analytic gradients.
        let mut tape = Tape::new();
        let loss = forward(&mut tape, &store, w1, w2, &input);
        tape.backward(loss, &mut store);
        let analytic1 = store.grad(w1).to_vec();
        let analytic2 = store.grad(w2).to_vec();
        // Numerical gradients.
        let eps = 1e-6;
        for (id, analytic, len) in [(w1, &analytic1, 20usize), (w2, &analytic2, 15)] {
            for i in 0..len {
                let eval = |store: &ParamStore| {
                    let mut t = Tape::new();
                    let l = forward(&mut t, store, w1, w2, &input);
                    t.value(l)[0]
                };
                store.perturb(id, i, eps);
                let up = eval(&store);
                store.perturb(id, i, -2.0 * eps);
                let down = eval(&store);
                store.perturb(id, i, eps);
                let numeric = (up - down) / (2.0 * eps);
                // ReLU kinks make gradients one-sided exactly at 0; skip
                // comparisons where the finite difference straddles a kink.
                let diff = (analytic[i] - numeric).abs();
                prop_assert!(
                    diff < 1e-4 * (1.0 + numeric.abs()) || diff < 5e-4,
                    "param {i}: analytic {} vs numeric {numeric}",
                    analytic[i]
                );
            }
        }
    }

    #[test]
    fn conv_and_pool_gradients_match(
        w_init in proptest::collection::vec(-1.0_f64..1.0, 3 * 2),
        input in proptest::collection::vec(-2.0_f64..2.0, 8),
    ) {
        let mut store = ParamStore::new(1);
        let w = store.add_raw(w_init, 3, 2); // kernel 3, in 1, out 2
        let run = |tape: &mut Tape, store: &ParamStore| {
            let x = tape.input(&input, 8, 1);
            let wp = tape.param(store, w);
            let c = tape.causal_conv1d(x, wp, 3, 2);
            let c = tape.tanh(c);
            let p = tape.avg_pool_rows(c, 3);
            let sq = tape.mul_elem(p, p);
            tape.mean_all(sq)
        };
        let mut tape = Tape::new();
        let loss = run(&mut tape, &store);
        tape.backward(loss, &mut store);
        let analytic = store.grad(w).to_vec();
        let eps = 1e-6;
        for i in 0..6 {
            let eval = |store: &ParamStore| {
                let mut t = Tape::new();
                let l = run(&mut t, store);
                t.value(l)[0]
            };
            store.perturb(w, i, eps);
            let up = eval(&store);
            store.perturb(w, i, -2.0 * eps);
            let down = eval(&store);
            store.perturb(w, i, eps);
            let numeric = (up - down) / (2.0 * eps);
            prop_assert!(
                (analytic[i] - numeric).abs() < 1e-5 * (1.0 + numeric.abs()) + 1e-7,
                "weight {i}: analytic {} vs numeric {numeric}",
                analytic[i]
            );
        }
    }
}
