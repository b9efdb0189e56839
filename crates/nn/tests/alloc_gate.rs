//! Allocation gate for one steady-state local training step: a batch-32
//! step of the scaled ConvNet on 1×16×16 inputs (the default training
//! configuration), counted with a counting global allocator.
//!
//! The counters are deterministic, so they gate exactly:
//!
//! * the first-order backward sweep records no tape nodes: after
//!   `Tape::gradients` the tape holds only the forward pass;
//! * allocations of 128 KiB or more — the ones the system allocator
//!   serves with fresh pages — stay at or under a pinned ceiling for a
//!   bare forward+backward, and are zero for a step inside a `Recycle`
//!   scope after warm-up.

use qd_autograd::Tape;
use qd_nn::{cross_entropy, ConvNet, Module, Sgd};
use qd_tensor::rng::Rng;
use qd_tensor::{Recycle, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations at least this large count as large.
const LARGE: usize = 128 * 1024;

/// Large allocations of one bare forward+backward (no recycling scope).
/// Recording the backward pass with `Tape::grad` made 68.
const BARE_STEP_CEILING: usize = 57;

struct Counting;

thread_local! {
    /// Large allocations made by this thread.
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards its arguments unchanged to the system
// allocator, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching
// it never allocates or reenters the allocator.
// qd-lint: allow(unsafe-hygiene) -- counting allocations needs a
// #[global_allocator], whose trait is unsafe to implement
unsafe impl GlobalAlloc for Counting {
    // qd-lint: allow(unsafe-hygiene) -- GlobalAlloc method, forwards to System
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    // qd-lint: allow(unsafe-hygiene) -- GlobalAlloc method, forwards to System
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    // qd-lint: allow(unsafe-hygiene) -- GlobalAlloc method, forwards to System
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // qd-lint: allow(unsafe-hygiene) -- GlobalAlloc method, forwards to System
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn large_allocs_during(f: impl FnOnce()) -> usize {
    let before = LARGE_ALLOCS.with(Cell::get);
    f();
    LARGE_ALLOCS.with(Cell::get) - before
}

const BATCH: usize = 32;
const CLASSES: usize = 10;

struct Step {
    model: ConvNet,
    x: Tensor,
    labels: Vec<usize>,
}

impl Step {
    fn new() -> (Step, Vec<Tensor>) {
        let mut rng = Rng::seed_from(11);
        let model = ConvNet::scaled_default(1, CLASSES);
        let params = model.init(&mut rng);
        let x = Tensor::randn(&[BATCH, 1, 16, 16], &mut rng);
        let labels = (0..BATCH).map(|i| i % CLASSES).collect();
        (Step { model, x, labels }, params)
    }

    /// One forward+backward; returns the gradients and the tape lengths
    /// after the forward pass and after the backward sweep.
    fn forward_backward(&self, params: &[Tensor]) -> (Vec<Tensor>, usize, usize) {
        let mut tape = Tape::new();
        let p: Vec<_> = params.iter().map(|t| tape.leaf(t.clone())).collect();
        let xv = tape.constant(self.x.clone());
        let logits = self.model.forward(&mut tape, &p, xv);
        let loss = cross_entropy(&mut tape, logits, &self.labels, CLASSES);
        let forward_nodes = tape.len();
        let grads = tape.gradients(loss, &p);
        (grads, forward_nodes, tape.len())
    }
}

#[test]
fn local_step_allocation_counters_stay_pinned() {
    let (step, mut params) = Step::new();

    let mut nodes = (0, 0);
    let bare = large_allocs_during(|| {
        let (_, forward, after) = step.forward_backward(&params);
        nodes = (forward, after);
    });
    assert_eq!(nodes.0, nodes.1, "the backward sweep recorded tape nodes");
    println!("bare forward+backward: {bare} large allocations");

    let opt = Sgd::descent(0.01);
    let scope = Recycle::scope();
    for _ in 0..2 {
        let (grads, _, _) = step.forward_backward(&params);
        opt.step(&mut params, &grads);
    }
    let recycled = large_allocs_during(|| {
        let (grads, _, _) = step.forward_backward(&params);
        opt.step(&mut params, &grads);
    });
    println!("recycled steady-state step: {recycled} large allocations");
    drop(scope);
    assert_eq!(Recycle::parked(), 0, "the free list outlived its scope");

    assert!(
        bare <= BARE_STEP_CEILING,
        "bare forward+backward made {bare} allocations of >= 128 KiB (ceiling {BARE_STEP_CEILING})"
    );
    assert_eq!(
        recycled, 0,
        "a steady-state step inside a recycling scope made {recycled} allocations of >= 128 KiB"
    );
}
