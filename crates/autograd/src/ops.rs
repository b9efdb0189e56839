//! Vector–Jacobian products for every tape op: one rule table, two
//! interpreters.
//!
//! The rules are written once, against the [`Backward`] trait, and run
//! under either of its implementations:
//!
//! * [`Tape`] itself, where every rule *emits ordinary tape ops*, so the
//!   gradient of a gradient is available by construction
//!   ([`Tape::grad`]);
//! * [`Sweep`], which evaluates the same rules on plain tensors and
//!   records nothing ([`Tape::gradients`]). It reuses a consumed
//!   adjoint's buffer for elementwise results, which computes the same
//!   bits as a fresh buffer would.
//!
//! Rules for linear ops are their adjoints (`im2col` ↔ `col2im`, pool ↔
//! unpool, sum ↔ broadcast, permutes), which the test-suite verifies by
//! inner-product identities and finite differences. A rule computes
//! contributions only for *live* inputs: those that need a gradient and
//! depend on some variable being differentiated for, since no other
//! adjoint can reach the result.

use crate::kernels;
use crate::tape::{Op, PoolGeo, Tape};
use crate::Var;
use qd_tensor::{avg_pool2d, avg_unpool2d, col2im, im2col, Conv2dGeometry, Tensor};
use std::borrow::Cow;

/// The operations a VJP rule may perform, over adjoint values of type
/// [`Backward::V`].
///
/// Elementwise ops consume their operands (so an interpreter may compute
/// in place); structural ops borrow them.
pub(crate) trait Backward {
    /// An adjoint, or a value derived from forward values.
    type V;
    /// The tape being differentiated.
    fn tape(&self) -> &Tape;
    /// A forward node's value as an operand.
    fn fwd(&self, v: Var) -> Self::V;
    /// The dimensions of a value.
    fn dims<'a>(&'a self, v: &'a Self::V) -> &'a [usize];
    /// A second handle on `v`, for a value with two consumers.
    fn share(&mut self, v: &Self::V) -> Self::V;
    /// A constant value.
    fn constant(&mut self, t: Tensor) -> Self::V;

    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(&mut self, a: Self::V, b: Self::V) -> Self::V;
    fn mul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    fn div(&mut self, a: Self::V, b: Self::V) -> Self::V;
    fn neg(&mut self, a: Self::V) -> Self::V;
    fn scale(&mut self, a: Self::V, s: f32) -> Self::V;
    fn add_scalar(&mut self, a: Self::V, s: f32) -> Self::V;
    fn exp(&mut self, a: Self::V) -> Self::V;
    fn reshape(&mut self, a: Self::V, shape: &[usize]) -> Self::V;

    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    fn transpose2(&mut self, a: &Self::V) -> Self::V;
    fn relu_mask(&mut self, a: &Self::V) -> Self::V;
    fn max_unpool(&mut self, input: Var, u: &Self::V, geo: PoolGeo) -> Self::V;
    fn sum_all(&mut self, a: &Self::V) -> Self::V;
    fn broadcast_to(&mut self, a: &Self::V, shape: &[usize]) -> Self::V;
    fn sum_rows(&mut self, a: &Self::V) -> Self::V;
    fn broadcast_rows(&mut self, a: &Self::V, m: usize) -> Self::V;
    fn sum_cols(&mut self, a: &Self::V) -> Self::V;
    fn broadcast_cols(&mut self, a: &Self::V, n: usize) -> Self::V;
    fn im2col(&mut self, a: &Self::V, geo: Conv2dGeometry) -> Self::V;
    fn col2im(&mut self, a: &Self::V, geo: Conv2dGeometry) -> Self::V;
    fn avg_pool2d(&mut self, a: &Self::V, c: usize, h: usize, w: usize, k: usize) -> Self::V;
    fn avg_unpool2d(&mut self, a: &Self::V, c: usize, oh: usize, ow: usize, k: usize) -> Self::V;
    fn rows_to_nchw(&mut self, a: &Self::V, n: usize, c: usize, oh: usize, ow: usize) -> Self::V;
    fn nchw_to_rows(&mut self, a: &Self::V, n: usize, c: usize, oh: usize, ow: usize) -> Self::V;
    fn spatial_sum(&mut self, a: &Self::V, c: usize, h: usize, w: usize) -> Self::V;
    fn spatial_broadcast(&mut self, a: &Self::V, c: usize, h: usize, w: usize) -> Self::V;
    fn channel_sum(&mut self, a: &Self::V, c: usize, h: usize, w: usize) -> Self::V;
    fn channel_broadcast(&mut self, a: &Self::V, n: usize, h: usize, w: usize) -> Self::V;
}

/// Reverse sweep from scalar `y`: the adjoints of `xs` under interpreter
/// `bk`, zeros for variables `y` does not depend on.
///
/// Only live nodes (see the module docs) receive adjoints. Each adjoint is
/// taken out of its slot when its node is processed (only those of `xs`
/// are kept), and contributions accumulate as `acc + c` in node order.
///
/// # Panics
///
/// Panics if `y` is not a single-element variable.
pub(crate) fn backward<B: Backward>(bk: &mut B, y: Var, xs: &[Var]) -> Vec<B::V> {
    let target = bk.tape().value(y);
    assert_eq!(
        target.len(),
        1,
        "grad target must be scalar, got shape {}",
        target.shape()
    );
    let seed = Tensor::ones(target.dims());
    let horizon = y.0 + 1;
    let mut wanted = vec![false; horizon];
    for x in xs.iter().filter(|x| x.0 < horizon) {
        wanted[x.0] = true;
    }
    let mut live = Vec::with_capacity(horizon);
    for (id, &want) in wanted.iter().enumerate() {
        let node = bk.tape().node(id);
        let reaches_xs = want || node.op.inputs().iter().flatten().any(|v| live[v.0]);
        live.push(node.needs_grad && reaches_xs);
    }
    let mut adjoint: Vec<Option<B::V>> = (0..horizon).map(|_| None).collect();
    adjoint[y.0] = Some(bk.constant(seed));
    for id in (0..horizon).rev() {
        let op = &bk.tape().node(id).op;
        if !live[id] || matches!(op, Op::Leaf) {
            continue;
        }
        let op = op.clone();
        let upstream = if wanted[id] {
            adjoint[id].as_ref().map(|u| bk.share(u))
        } else {
            adjoint[id].take()
        };
        let Some(upstream) = upstream else {
            continue;
        };
        for (input, contribution) in vjp(bk, &live, Var(id), &op, upstream) {
            if !live[input.0] {
                continue;
            }
            adjoint[input.0] = Some(match adjoint[input.0].take() {
                Some(acc) => bk.add(acc, contribution),
                None => contribution,
            });
        }
    }
    xs.iter()
        .enumerate()
        .map(|(i, x)| {
            let last_use = !xs[i + 1..].contains(x);
            let g = adjoint.get_mut(x.0).and_then(|slot| {
                if last_use {
                    slot.take()
                } else {
                    slot.as_ref().map(|g| bk.share(g))
                }
            });
            g.unwrap_or_else(|| {
                let zeros = Tensor::zeros(bk.tape().value(*x).dims());
                bk.constant(zeros)
            })
        })
        .collect()
}

/// Routes a binary op's upstream adjoint to its live inputs, sharing it
/// only when both are.
fn route<B: Backward>(bk: &mut B, live: &[bool], u: B::V, a: Var, b: Var) -> [Option<B::V>; 2] {
    match (live[a.0], live[b.0]) {
        (true, true) => [Some(bk.share(&u)), Some(u)],
        (true, false) => [Some(u), None],
        (false, true) => [None, Some(u)],
        (false, false) => [None, None],
    }
}

/// `(input, contribution)` pairs of a binary op, skipping absent ones.
fn pairs<V>(a: Var, da: Option<V>, b: Var, db: Option<V>) -> Vec<(Var, V)> {
    [da.map(|d| (a, d)), db.map(|d| (b, d))]
        .into_iter()
        .flatten()
        .collect()
}

/// Returns `(input, contribution)` pairs for the node `node` (whose
/// recorded op is `op`) given the upstream adjoint `u`; binary ops skip
/// inputs that are not `live`.
///
/// Every contribution is shaped exactly like its input so that adjoint
/// accumulation is a plain elementwise add.
fn vjp<B: Backward>(bk: &mut B, live: &[bool], node: Var, op: &Op, u: B::V) -> Vec<(Var, B::V)> {
    match *op {
        Op::Leaf | Op::Constant | Op::ReluMask | Op::MaxUnpoolMask => Vec::new(),
        Op::Add(a, b) => {
            let [ua, ub] = route(bk, live, u, a, b);
            pairs(a, ua, b, ub)
        }
        Op::Sub(a, b) => {
            let [ua, ub] = route(bk, live, u, a, b);
            let db = ub.map(|u| bk.neg(u));
            pairs(a, ua, b, db)
        }
        Op::Mul(a, b) => {
            let [ua, ub] = route(bk, live, u, a, b);
            let da = ua.map(|u| {
                let fb = bk.fwd(b);
                bk.mul(u, fb)
            });
            let db = ub.map(|u| {
                let fa = bk.fwd(a);
                bk.mul(u, fa)
            });
            pairs(a, da, b, db)
        }
        Op::Div(a, b) => {
            // y = a / b; da = u / b; db = -u * y / b.
            let [ua, ub] = route(bk, live, u, a, b);
            let da = ua.map(|u| {
                let fb = bk.fwd(b);
                bk.div(u, fb)
            });
            let db = ub.map(|u| {
                let (y, fb) = (bk.fwd(node), bk.fwd(b));
                let y_over_b = bk.div(y, fb);
                let ub = bk.mul(u, y_over_b);
                bk.neg(ub)
            });
            pairs(a, da, b, db)
        }
        Op::Neg(a) => vec![(a, bk.neg(u))],
        Op::Scale(a, s) => vec![(a, bk.scale(u, s))],
        Op::AddScalar(a) => vec![(a, u)],
        Op::MatMul(a, b) => {
            let da = live[a.0].then(|| {
                let bt = bk.transpose2(&bk.fwd(b));
                bk.matmul(&u, &bt)
            });
            let db = live[b.0].then(|| {
                let at = bk.transpose2(&bk.fwd(a));
                bk.matmul(&at, &u)
            });
            pairs(a, da, b, db)
        }
        Op::Transpose2(a) => vec![(a, bk.transpose2(&u))],
        Op::Relu(a) => {
            // d relu(x)/dx = 1[x > 0]; the mask is locally constant.
            let mask = bk.relu_mask(&bk.fwd(a));
            vec![(a, bk.mul(u, mask))]
        }
        Op::Tanh(a) => {
            // y = tanh(x); dy/dx = 1 - y².
            let y2 = {
                let (y, y_again) = (bk.fwd(node), bk.fwd(node));
                bk.mul(y, y_again)
            };
            let neg = bk.neg(y2);
            let one_minus = bk.add_scalar(neg, 1.0);
            vec![(a, bk.mul(u, one_minus))]
        }
        Op::Sigmoid(a) => {
            // y = σ(x); dy/dx = y (1 - y).
            let neg = bk.neg(bk.fwd(node));
            let one_minus = bk.add_scalar(neg, 1.0);
            let deriv = bk.mul(bk.fwd(node), one_minus);
            vec![(a, bk.mul(u, deriv))]
        }
        Op::MaxPool(a, geo) => vec![(a, bk.max_unpool(a, &u, geo))],
        Op::Sqrt(a) => {
            // y = sqrt(a); da = u / (2 y).
            let half_u = bk.scale(u, 0.5);
            vec![(a, bk.div(half_u, bk.fwd(node)))]
        }
        Op::Exp(a) => vec![(a, bk.mul(u, bk.fwd(node)))],
        Op::Ln(a) => vec![(a, bk.div(u, bk.fwd(a)))],
        Op::SumAll(a) => {
            let dims = bk.tape().value(a).dims().to_vec();
            vec![(a, bk.broadcast_to(&u, &dims))]
        }
        Op::BroadcastTo(a) => {
            let s = bk.sum_all(&u);
            vec![(a, reshape_like(bk, s, a))]
        }
        Op::SumRows(a) => {
            let m = bk.tape().value(a).dims()[0];
            vec![(a, bk.broadcast_rows(&u, m))]
        }
        Op::BroadcastRows(a) => vec![(a, bk.sum_rows(&u))],
        Op::SumCols(a) => {
            let n = bk.tape().value(a).dims()[1];
            vec![(a, bk.broadcast_cols(&u, n))]
        }
        Op::BroadcastCols(a) => vec![(a, bk.sum_cols(&u))],
        Op::Reshape(a) => vec![(a, reshape_like(bk, u, a))],
        Op::Im2col(a, geo) => {
            let folded = bk.col2im(&u, geo);
            vec![(a, reshape_like(bk, folded, a))]
        }
        Op::Col2im(a, geo) => {
            let cols = bk.im2col(&u, geo);
            vec![(a, reshape_like(bk, cols, a))]
        }
        Op::AvgPool(a, PoolGeo { c, h, w, k }) => {
            let up = bk.avg_unpool2d(&u, c, h / k, w / k, k);
            vec![(a, reshape_like(bk, up, a))]
        }
        Op::AvgUnpool(a, PoolGeo { c, h, w, k }) => {
            // Forward input was (N, C, h, w) with output (N, C, h*k, w*k).
            let down = bk.avg_pool2d(&u, c, h * k, w * k, k);
            vec![(a, reshape_like(bk, down, a))]
        }
        Op::RowsToNchw(a, [n, c, oh, ow]) => {
            let rows = bk.nchw_to_rows(&u, n, c, oh, ow);
            vec![(a, reshape_like(bk, rows, a))]
        }
        Op::NchwToRows(a, [n, c, oh, ow]) => {
            let img = bk.rows_to_nchw(&u, n, c, oh, ow);
            vec![(a, reshape_like(bk, img, a))]
        }
        Op::SpatialSum(a, [c, h, w]) => {
            let bc = bk.spatial_broadcast(&u, c, h, w);
            vec![(a, reshape_like(bk, bc, a))]
        }
        Op::SpatialBroadcast(a, [c, h, w]) => {
            let s = bk.spatial_sum(&u, c, h, w);
            vec![(a, reshape_like(bk, s, a))]
        }
        Op::ChannelSum(a, [c, h, w]) => {
            let n = bk.tape().value(a).len() / (c * h * w);
            let bc = bk.channel_broadcast(&u, n, h, w);
            vec![(a, reshape_like(bk, bc, a))]
        }
        Op::ChannelBroadcast(a, [_, c, h, w]) => {
            let s = bk.channel_sum(&u, c, h, w);
            vec![(a, reshape_like(bk, s, a))]
        }
        Op::LogSoftmax(a) => {
            // y = log_softmax(x); da = u - softmax(x) * rowsum(u).
            let n = bk.tape().value(a).dims()[1];
            let soft = bk.exp(bk.fwd(node));
            let row = bk.sum_cols(&u);
            let bc = bk.broadcast_cols(&row, n);
            let sub = bk.mul(soft, bc);
            vec![(a, bk.sub(u, sub))]
        }
    }
}

/// Reshapes `v` to the dims of forward node `like` if they differ (no-op
/// otherwise).
fn reshape_like<B: Backward>(bk: &mut B, v: B::V, like: Var) -> B::V {
    let want = bk.tape().value(like).dims();
    if bk.dims(&v) == want {
        v
    } else {
        let want = want.to_vec();
        bk.reshape(v, &want)
    }
}

/// The recording interpreter: every rule step becomes a differentiable
/// node.
impl Backward for Tape {
    type V = Var;

    fn tape(&self) -> &Tape {
        self
    }
    fn fwd(&self, v: Var) -> Var {
        v
    }
    fn dims<'a>(&'a self, v: &'a Var) -> &'a [usize] {
        self.value(*v).dims()
    }
    fn share(&mut self, v: &Var) -> Var {
        *v
    }
    fn constant(&mut self, t: Tensor) -> Var {
        Tape::constant(self, t)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        Tape::add(self, a, b)
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        Tape::sub(self, a, b)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        Tape::mul(self, a, b)
    }
    fn div(&mut self, a: Var, b: Var) -> Var {
        Tape::div(self, a, b)
    }
    fn neg(&mut self, a: Var) -> Var {
        Tape::neg(self, a)
    }
    fn scale(&mut self, a: Var, s: f32) -> Var {
        Tape::scale(self, a, s)
    }
    fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        Tape::add_scalar(self, a, s)
    }
    fn exp(&mut self, a: Var) -> Var {
        Tape::exp(self, a)
    }
    fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        Tape::reshape(self, a, shape)
    }

    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::matmul(self, *a, *b)
    }
    fn transpose2(&mut self, a: &Var) -> Var {
        Tape::transpose2(self, *a)
    }
    fn relu_mask(&mut self, a: &Var) -> Var {
        Tape::relu_mask(self, *a)
    }
    fn max_unpool(&mut self, input: Var, u: &Var, geo: PoolGeo) -> Var {
        self.max_unpool_scatter(input, *u, geo)
    }
    fn sum_all(&mut self, a: &Var) -> Var {
        Tape::sum_all(self, *a)
    }
    fn broadcast_to(&mut self, a: &Var, shape: &[usize]) -> Var {
        Tape::broadcast_to(self, *a, shape)
    }
    fn sum_rows(&mut self, a: &Var) -> Var {
        Tape::sum_rows(self, *a)
    }
    fn broadcast_rows(&mut self, a: &Var, m: usize) -> Var {
        Tape::broadcast_rows(self, *a, m)
    }
    fn sum_cols(&mut self, a: &Var) -> Var {
        Tape::sum_cols(self, *a)
    }
    fn broadcast_cols(&mut self, a: &Var, n: usize) -> Var {
        Tape::broadcast_cols(self, *a, n)
    }
    fn im2col(&mut self, a: &Var, geo: Conv2dGeometry) -> Var {
        Tape::im2col(self, *a, geo)
    }
    fn col2im(&mut self, a: &Var, geo: Conv2dGeometry) -> Var {
        Tape::col2im(self, *a, geo)
    }
    fn avg_pool2d(&mut self, a: &Var, c: usize, h: usize, w: usize, k: usize) -> Var {
        Tape::avg_pool2d(self, *a, c, h, w, k)
    }
    fn avg_unpool2d(&mut self, a: &Var, c: usize, oh: usize, ow: usize, k: usize) -> Var {
        Tape::avg_unpool2d(self, *a, c, oh, ow, k)
    }
    fn rows_to_nchw(&mut self, a: &Var, n: usize, c: usize, oh: usize, ow: usize) -> Var {
        Tape::rows_to_nchw(self, *a, n, c, oh, ow)
    }
    fn nchw_to_rows(&mut self, a: &Var, n: usize, c: usize, oh: usize, ow: usize) -> Var {
        Tape::nchw_to_rows(self, *a, n, c, oh, ow)
    }
    fn spatial_sum(&mut self, a: &Var, c: usize, h: usize, w: usize) -> Var {
        Tape::spatial_sum(self, *a, c, h, w)
    }
    fn spatial_broadcast(&mut self, a: &Var, c: usize, h: usize, w: usize) -> Var {
        Tape::spatial_broadcast(self, *a, c, h, w)
    }
    fn channel_sum(&mut self, a: &Var, c: usize, h: usize, w: usize) -> Var {
        Tape::channel_sum(self, *a, c, h, w)
    }
    fn channel_broadcast(&mut self, a: &Var, n: usize, h: usize, w: usize) -> Var {
        Tape::channel_broadcast(self, *a, n, h, w)
    }
}

/// The values-only interpreter: evaluates each rule step with the kernel
/// the matching tape op uses, recording nothing.
///
/// Forward values are borrowed from the tape; every computed value is
/// owned, and elementwise steps write into an owned operand's buffer.
pub(crate) struct Sweep<'t> {
    pub(crate) tape: &'t Tape,
}

type Val<'t> = Cow<'t, Tensor>;

/// `f` applied elementwise, in place when `a` is owned.
fn map<'t>(a: Val<'t>, f: impl Fn(f32) -> f32) -> Val<'t> {
    Cow::Owned(match a {
        Cow::Owned(mut t) => {
            t.map_in_place(f);
            t
        }
        Cow::Borrowed(t) => t.map(f),
    })
}

/// `f(a[i], b[i])`, written into whichever operand is owned.
fn zip<'t>(a: Val<'t>, b: Val<'t>, f: impl Fn(f32, f32) -> f32) -> Val<'t> {
    Cow::Owned(match (a, b) {
        (Cow::Owned(mut a), b) => {
            a.zip_map_in_place(&b, f);
            a
        }
        (Cow::Borrowed(a), Cow::Owned(mut b)) => {
            b.zip_map_in_place(a, |y, x| f(x, y));
            b
        }
        (Cow::Borrowed(a), Cow::Borrowed(b)) => a.zip_map(b, f),
    })
}

impl<'t> Backward for Sweep<'t> {
    type V = Val<'t>;

    fn tape(&self) -> &Tape {
        self.tape
    }
    fn fwd(&self, v: Var) -> Val<'t> {
        Cow::Borrowed(self.tape.value(v))
    }
    fn dims<'a>(&'a self, v: &'a Val<'t>) -> &'a [usize] {
        v.dims()
    }
    fn share(&mut self, v: &Val<'t>) -> Val<'t> {
        v.clone()
    }
    fn constant(&mut self, t: Tensor) -> Val<'t> {
        Cow::Owned(t)
    }

    fn add(&mut self, a: Val<'t>, b: Val<'t>) -> Val<'t> {
        zip(a, b, |x, y| x + y)
    }
    fn sub(&mut self, a: Val<'t>, b: Val<'t>) -> Val<'t> {
        zip(a, b, |x, y| x - y)
    }
    fn mul(&mut self, a: Val<'t>, b: Val<'t>) -> Val<'t> {
        zip(a, b, |x, y| x * y)
    }
    fn div(&mut self, a: Val<'t>, b: Val<'t>) -> Val<'t> {
        zip(a, b, |x, y| x / y)
    }
    fn neg(&mut self, a: Val<'t>) -> Val<'t> {
        self.scale(a, -1.0)
    }
    fn scale(&mut self, a: Val<'t>, s: f32) -> Val<'t> {
        map(a, |x| x * s)
    }
    fn add_scalar(&mut self, a: Val<'t>, s: f32) -> Val<'t> {
        map(a, |x| x + s)
    }
    fn exp(&mut self, a: Val<'t>) -> Val<'t> {
        map(a, f32::exp)
    }
    fn reshape(&mut self, a: Val<'t>, shape: &[usize]) -> Val<'t> {
        Cow::Owned(a.into_owned().into_shape(shape))
    }

    fn matmul(&mut self, a: &Val<'t>, b: &Val<'t>) -> Val<'t> {
        Cow::Owned(a.matmul(b))
    }
    fn transpose2(&mut self, a: &Val<'t>) -> Val<'t> {
        Cow::Owned(a.transpose2())
    }
    fn relu_mask(&mut self, a: &Val<'t>) -> Val<'t> {
        Cow::Owned(kernels::relu_mask(a))
    }
    fn max_unpool(&mut self, input: Var, u: &Val<'t>, geo: PoolGeo) -> Val<'t> {
        Cow::Owned(kernels::max_unpool(self.tape.value(input), u, geo))
    }
    fn sum_all(&mut self, a: &Val<'t>) -> Val<'t> {
        Cow::Owned(Tensor::scalar(a.sum()))
    }
    fn broadcast_to(&mut self, a: &Val<'t>, shape: &[usize]) -> Val<'t> {
        Cow::Owned(Tensor::full(shape, a.item()))
    }
    fn sum_rows(&mut self, a: &Val<'t>) -> Val<'t> {
        Cow::Owned(a.sum_rows())
    }
    fn broadcast_rows(&mut self, a: &Val<'t>, m: usize) -> Val<'t> {
        Cow::Owned(kernels::broadcast_rows(a, m))
    }
    fn sum_cols(&mut self, a: &Val<'t>) -> Val<'t> {
        Cow::Owned(a.sum_cols())
    }
    fn broadcast_cols(&mut self, a: &Val<'t>, n: usize) -> Val<'t> {
        Cow::Owned(kernels::broadcast_cols(a, n))
    }
    fn im2col(&mut self, a: &Val<'t>, geo: Conv2dGeometry) -> Val<'t> {
        Cow::Owned(im2col(a, &geo))
    }
    fn col2im(&mut self, a: &Val<'t>, geo: Conv2dGeometry) -> Val<'t> {
        Cow::Owned(col2im(a, &geo))
    }
    fn avg_pool2d(&mut self, a: &Val<'t>, c: usize, h: usize, w: usize, k: usize) -> Val<'t> {
        Cow::Owned(avg_pool2d(a, c, h, w, k))
    }
    fn avg_unpool2d(&mut self, a: &Val<'t>, c: usize, oh: usize, ow: usize, k: usize) -> Val<'t> {
        Cow::Owned(avg_unpool2d(a, c, oh, ow, k))
    }
    fn rows_to_nchw(&mut self, a: &Val<'t>, n: usize, c: usize, oh: usize, ow: usize) -> Val<'t> {
        Cow::Owned(kernels::rows_to_nchw(a, n, c, oh, ow))
    }
    fn nchw_to_rows(&mut self, a: &Val<'t>, n: usize, c: usize, oh: usize, ow: usize) -> Val<'t> {
        Cow::Owned(kernels::nchw_to_rows(a, n, c, oh, ow))
    }
    fn spatial_sum(&mut self, a: &Val<'t>, c: usize, h: usize, w: usize) -> Val<'t> {
        Cow::Owned(kernels::spatial_sum(a, c, h, w))
    }
    fn spatial_broadcast(&mut self, a: &Val<'t>, c: usize, h: usize, w: usize) -> Val<'t> {
        Cow::Owned(kernels::spatial_broadcast(a, c, h, w))
    }
    fn channel_sum(&mut self, a: &Val<'t>, c: usize, h: usize, w: usize) -> Val<'t> {
        Cow::Owned(kernels::channel_sum(a, c, h, w))
    }
    fn channel_broadcast(&mut self, a: &Val<'t>, n: usize, h: usize, w: usize) -> Val<'t> {
        Cow::Owned(kernels::channel_broadcast(a, n, h, w))
    }
}
