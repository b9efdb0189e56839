//! Loop-scoped recycling of large tensor buffers.
//!
//! A training step allocates and frees the same large buffers (im2col
//! patches, activations, adjoints) every iteration. Handed back to the
//! system allocator, each one is unmapped or trimmed and then faulted in
//! again on the next step, so most of a step's time goes to the kernel.
//! While a [`Recycle`] guard is alive, dropped tensors park their buffers
//! on a per-thread free list and new tensors take the best-fitting one
//! back, so a steady-state step stops touching the system allocator for
//! its large buffers.
//!
//! The free list exists only while a guard does: it is released whole
//! when the outermost guard on the thread drops. Step loops open the
//! scope around themselves; nothing parks buffers outside one. Keeping a
//! list alive past its loop would hold on to memory the rest of the
//! program never asks for again.

use std::cell::RefCell;
use std::marker::PhantomData;

/// Buffers smaller than this many `f32`s bypass the free list: the system
/// allocator serves them from its own bins without faulting.
const MIN_LEN: usize = 1024;

/// A parked buffer is handed out only for requests of at least
/// `1/MAX_SLACK` of its capacity, so a small request cannot pin a large
/// buffer while the large request it was parked for allocates afresh.
const MAX_SLACK: usize = 2;

#[derive(Default)]
struct Pool {
    /// Number of live [`Recycle`] guards on this thread.
    depth: usize,
    /// Parked buffers, sorted by capacity.
    free: Vec<Vec<f32>>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Guard that keeps this thread's buffer free list alive.
///
/// Scopes nest; the list is released when the outermost guard drops.
/// The guard is tied to the thread that opened it (it is neither `Send`
/// nor `Sync`). Tensors are unaffected by where they end up: one that
/// outlives the scope, or that moves to and is dropped on another thread,
/// keeps a valid buffer and frees it normally.
///
/// # Examples
///
/// ```
/// use qd_tensor::{Recycle, Tensor};
///
/// let _scope = Recycle::scope();
/// for _ in 0..3 {
///     // After the first pass, both buffers come off the free list.
///     let a = Tensor::ones(&[64, 64]);
///     let b = a.scale(2.0);
///     assert_eq!(b.sum(), 8192.0);
/// }
/// ```
#[must_use = "the free list lives only as long as the guard"]
pub struct Recycle {
    _thread_bound: PhantomData<*const ()>,
}

impl Recycle {
    /// Opens a recycling scope on the current thread.
    pub fn scope() -> Recycle {
        POOL.with(|p| p.borrow_mut().depth += 1);
        Recycle {
            _thread_bound: PhantomData,
        }
    }

    /// Number of buffers parked on this thread's free list.
    pub fn parked() -> usize {
        POOL.with(|p| p.borrow().free.len())
    }
}

impl Drop for Recycle {
    fn drop(&mut self) {
        let released = POOL.with(|p| {
            let mut p = p.borrow_mut();
            p.depth -= 1;
            if p.depth == 0 {
                std::mem::take(&mut p.free)
            } else {
                Vec::new()
            }
        });
        drop(released);
    }
}

/// The best-fitting parked buffer for `len` elements, emptied, if a
/// scope is open and one fits.
fn unpark(len: usize) -> Option<Vec<f32>> {
    if len < MIN_LEN {
        return None;
    }
    let mut buf = POOL
        .try_with(|p| {
            let mut p = p.borrow_mut();
            if p.depth == 0 {
                return None;
            }
            let at = p.free.partition_point(|b| b.capacity() < len);
            let fits = p
                .free
                .get(at)
                .is_some_and(|b| b.capacity() / MAX_SLACK <= len);
            fits.then(|| p.free.remove(at))
        })
        .ok()
        .flatten()?;
    buf.clear();
    Some(buf)
}

/// An empty buffer with capacity for at least `len` elements.
pub(crate) fn take(len: usize) -> Vec<f32> {
    unpark(len).unwrap_or_else(|| Vec::with_capacity(len))
}

/// A buffer of `len` copies of `value`.
pub(crate) fn filled(len: usize, value: f32) -> Vec<f32> {
    match unpark(len) {
        Some(mut buf) => {
            buf.resize(len, value);
            buf
        }
        None => vec![value; len],
    }
}

/// Parks `buf` on the free list if a scope is open; frees it otherwise.
pub(crate) fn give(buf: Vec<f32>) {
    if buf.capacity() < MIN_LEN {
        return;
    }
    // Outside a scope, or during thread teardown, the buffer is simply
    // dropped.
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.depth > 0 {
            let at = p.free.partition_point(|b| b.capacity() < buf.capacity());
            p.free.insert(at, buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn buffers_are_parked_only_inside_a_scope() {
        drop(Tensor::zeros(&[4096]));
        assert_eq!(Recycle::parked(), 0);
        let scope = Recycle::scope();
        drop(Tensor::zeros(&[4096]));
        assert_eq!(Recycle::parked(), 1);
        drop(scope);
        assert_eq!(Recycle::parked(), 0, "the list is freed with its scope");
    }

    #[test]
    fn small_buffers_bypass_the_list() {
        let _scope = Recycle::scope();
        drop(Tensor::zeros(&[MIN_LEN - 1]));
        assert_eq!(Recycle::parked(), 0);
    }

    #[test]
    fn nested_scopes_release_at_the_outermost() {
        let outer = Recycle::scope();
        {
            let _inner = Recycle::scope();
            drop(Tensor::zeros(&[4096]));
        }
        assert_eq!(Recycle::parked(), 1, "inner scope end keeps the list");
        drop(outer);
        assert_eq!(Recycle::parked(), 0);
    }

    #[test]
    fn best_fit_reuses_and_rezeroes() {
        let _scope = Recycle::scope();
        let mut t = Tensor::zeros(&[8192]);
        t.data_mut().fill(7.0);
        drop(Tensor::zeros(&[2048]));
        drop(t);
        assert_eq!(Recycle::parked(), 2);
        // 5000 fits only the 8192 buffer; 2048 would be too small.
        let z = Tensor::zeros(&[5000]);
        assert_eq!(Recycle::parked(), 1);
        assert!(
            z.data().iter().all(|&v| v == 0.0),
            "reused buffer is refilled"
        );
        drop(z);
        // Best fit: 1500 takes the 2048 buffer, not the 8192 one.
        let small = Tensor::zeros(&[1500]);
        assert_eq!(small.data().len(), 1500);
        assert_eq!(Recycle::parked(), 1);
        // A request under half a parked buffer's size allocates afresh.
        let _fresh = Tensor::zeros(&[3000]);
        assert_eq!(Recycle::parked(), 1, "the 8192 buffer stays parked");
    }

    #[test]
    fn tensors_outliving_the_scope_stay_valid() {
        let kept = {
            let _scope = Recycle::scope();
            let a = Tensor::full(&[4096], 3.0);
            drop(Tensor::zeros(&[4096]));
            a.scale(2.0)
        };
        assert_eq!(Recycle::parked(), 0);
        assert!(kept.data().iter().all(|&v| v == 6.0));
        drop(kept);
        assert_eq!(Recycle::parked(), 0, "drops after the scope free normally");
    }

    #[test]
    fn tensors_dropped_on_another_thread_stay_valid() {
        let _scope = Recycle::scope();
        let t = Tensor::full(&[4096], 1.5);
        let sum = std::thread::spawn(move || {
            let s = t.sum();
            drop(t);
            (s, Recycle::parked())
        })
        .join()
        .expect("worker thread");
        assert_eq!(sum, (6144.0, 0), "the worker has no scope of its own");
        assert_eq!(Recycle::parked(), 0);
    }
}
