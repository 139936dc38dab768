//! Reusable worker tapes for data-parallel gradient computation.
//!
//! A mini-batch is split into microbatches, each run forward and backward on
//! its own tape in parallel.  The tapes of a [`WorkerTapes`] pool live for a
//! whole training run: each one keeps its own parameter-gradient buffers but
//! reads the master tape's parameter values in place (a shared reference,
//! never a copy), so no microbatch copies or allocates parameter-sized
//! memory.

use rayon::prelude::*;

use crate::graph::{Graph, Var};

/// One reusable tape per microbatch slot of a mini-batch.
#[derive(Debug)]
pub struct WorkerTapes {
    tapes: Vec<Graph>,
    /// Tapes used by the last [`WorkerTapes::run`].
    used: usize,
}

impl WorkerTapes {
    /// `slots` worker tapes for the parameters of the sealed `master` tape.
    pub fn new(master: &Graph, slots: usize) -> WorkerTapes {
        let mut tape = master.clone();
        tape.reset();
        tape.release_parameters();
        WorkerTapes { tapes: vec![tape; slots], used: 0 }
    }

    /// Runs `task` once per item, each on its own worker tape (in parallel),
    /// with the tapes reading `master`'s current parameter values.  `task`
    /// builds a loss on the tape and calls [`Graph::backward`]; the results
    /// come back in item order.
    ///
    /// # Panics
    /// Panics if there are more items than worker tapes.
    pub fn run<I, R, F>(&mut self, master: &Graph, items: Vec<I>, task: F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(&mut Graph, I) -> R + Sync,
    {
        assert!(items.len() <= self.tapes.len(), "more microbatches than worker tapes");
        self.used = items.len();
        let jobs: Vec<(&mut Graph, I)> = self
            .tapes
            .iter_mut()
            .zip(items)
            .map(|(tape, item)| {
                tape.share_parameters(master);
                (tape, item)
            })
            .collect();
        let results = jobs.into_par_iter().map(|(tape, item)| task(tape, item)).collect();
        // The master may update its parameters in place from here on.
        for tape in &mut self.tapes[..self.used] {
            tape.release_parameters();
        }
        results
    }

    /// Writes `scale · Σ grad` into the master's gradient of every parameter
    /// in `params`, summing the tapes of the last [`WorkerTapes::run`] in item
    /// order: the deterministic reduction of data-parallel training.
    pub fn reduce_into(&self, master: &mut Graph, params: &[Var], scale: f64) {
        for &p in params {
            let sum = master.grad_mut(p);
            sum.fill_zero();
            for tape in &self.tapes[..self.used] {
                sum.add_assign(tape.grad(p));
            }
            for v in sum.data_mut() {
                *v *= scale;
            }
        }
    }
}
