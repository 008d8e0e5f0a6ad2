//! Reverse-mode automatic differentiation.
//!
//! A [`Tensor`] is a shared handle to a value plus (when gradients are
//! needed) a record of the operation that produced it. Calling
//! [`Tensor::backward`] on a scalar loss walks the recorded DAG in reverse
//! topological order, invoking each operation's [`Backward`] implementation,
//! which accumulates gradients into its parents via [`accumulate`].
//!
//! Like PyTorch, the tape is *pruned eagerly*: an operation whose inputs all
//! have `needs_grad == false` produces a plain leaf, so inference-mode
//! forward passes keep no graph alive.
//!
//! The engine is single-threaded (`Rc`/`RefCell`); the study's simulated
//! device executes one stream, so there is nothing to parallelize.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use crate::ndarray::NdArray;

/// The backward rule of a differentiable operation.
///
/// Implementations push gradients into `parents` with [`accumulate`]. The
/// saved-value contract: a parent's value is never copied into the rule; it
/// is borrowed again through `parents[i].data()` when the gradient arrives.
/// A rule may own only state that is not a parent value (index arrays,
/// shapes, a dropout mask, its own op's output) and should build it only
/// when the node is recorded, since inference drops the rule unused.
/// Frameworks outside this crate (e.g. `rgl`'s fused GSpMM) implement this
/// trait to register custom fused operations.
pub trait Backward {
    /// Propagates `grad` (gradient w.r.t. this op's output) to `parents`.
    fn backward(&self, grad: &NdArray, parents: &[Tensor]);

    /// Operation name for debugging.
    fn name(&self) -> &'static str;
}

struct Node {
    parents: Vec<Tensor>,
    op: Box<dyn Backward>,
}

struct Inner {
    id: u64,
    data: RefCell<NdArray>,
    grad: RefCell<Option<NdArray>>,
    requires_grad: bool,
    needs_grad: bool,
    node: RefCell<Option<Node>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Tear down long parent chains iteratively: a 10k-layer-deep tape
        // (e.g. hundreds of epochs of ops chained through running losses)
        // must not overflow the stack through recursive Rc drops.
        let mut stack: Vec<Node> = Vec::new();
        if let Some(node) = self.node.get_mut().take() {
            stack.push(node);
        }
        while let Some(node) = stack.pop() {
            for parent in node.parents {
                let mut rc = parent.inner;
                if let Some(inner) = Rc::get_mut(&mut rc) {
                    if let Some(n) = inner.node.get_mut().take() {
                        stack.push(n);
                    }
                }
            }
        }
    }
}

/// A shared, differentiable matrix value.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<Inner>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.inner.data.borrow();
        write!(
            f,
            "Tensor(id={}, shape={:?}, requires_grad={})",
            self.inner.id,
            d.shape(),
            self.inner.requires_grad
        )
    }
}

fn next_id() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static NEXT: Cell<u64> = const { Cell::new(0) };
    }
    NEXT.with(|n| {
        let id = n.get();
        n.set(id + 1);
        id
    })
}

thread_local! {
    static GRAD_ENABLED: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Host cost of the autograd engine per executed backward node (queueing,
/// ready-count tracking, hook dispatch — torch's engine overhead).
const ENGINE_OVERHEAD_PER_NODE: f64 = 12e-6;

/// Whether operations currently record the tape (see [`no_grad`]).
pub fn grad_enabled() -> bool {
    GRAD_ENABLED.with(std::cell::Cell::get)
}

/// Whether an op over `parents` records a tape node: gradients are enabled
/// and some parent needs them. [`Tensor::from_op`] keeps a node exactly when
/// this holds, so ops ask it before building state only backward reads.
pub(crate) fn records<'a>(parents: impl IntoIterator<Item = &'a Tensor>) -> bool {
    grad_enabled() && parents.into_iter().any(Tensor::needs_grad)
}

/// Runs `f` in inference mode: no operation inside records a backward node,
/// so no forward activation is retained by the tape — PyTorch's
/// `torch.no_grad()`. Nesting is allowed; the previous state is restored on
/// exit (also on panic).
///
/// # Example
///
/// ```
/// use gnn_tensor::{autograd::no_grad, NdArray, Tensor};
///
/// let w = Tensor::param(NdArray::scalar(2.0));
/// let y = no_grad(|| w.scale(3.0));
/// assert!(!y.needs_grad());
/// y.backward(); // no-op: nothing was recorded
/// assert!(w.grad().is_none());
/// ```
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(GRAD_ENABLED.with(|g| g.replace(false)));
    f()
}

/// Runs `f` as an explicit inference pass: tape recording is disabled (as
/// in [`no_grad`]), and the caller is expected to drive layers with
/// `training = false` so dropout is the identity and batch norm reads its
/// running statistics.
///
/// Semantically this is [`no_grad`] under a name that states intent — the
/// serving path (`gnn-serve`) wraps every forward in it. The eval-parity
/// tests assert the contract that makes it safe: an eval-mode forward
/// produces bit-identical outputs with and without the tape, so skipping
/// recording is purely a memory/tape optimization, never a numerics change.
pub fn inference<T>(f: impl FnOnce() -> T) -> T {
    no_grad(f)
}

impl Tensor {
    /// Creates a constant leaf (no gradient tracking).
    pub fn new(data: NdArray) -> Self {
        Tensor {
            inner: Rc::new(Inner {
                id: next_id(),
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: false,
                needs_grad: false,
                node: RefCell::new(None),
            }),
        }
    }

    /// Creates a trainable parameter leaf.
    pub fn param(data: NdArray) -> Self {
        Tensor {
            inner: Rc::new(Inner {
                id: next_id(),
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: true,
                needs_grad: true,
                node: RefCell::new(None),
            }),
        }
    }

    /// Creates an interior tensor produced by a differentiable op.
    ///
    /// Registers a device allocation for the output buffer. If no parent
    /// needs gradients, the node is pruned and the result is a constant leaf
    /// (inference mode keeps no tape).
    pub fn from_op(data: NdArray, parents: Vec<Tensor>, op: Box<dyn Backward>) -> Self {
        gnn_device::alloc(data.byte_size());
        let needs = records(&parents);
        let node = if needs {
            Some(Node { parents, op })
        } else {
            None
        };
        Tensor {
            inner: Rc::new(Inner {
                id: next_id(),
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: false,
                needs_grad: needs,
                node: RefCell::new(node),
            }),
        }
    }

    /// Unique id of this tensor.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether this is a trainable leaf.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// Whether gradients flow through this tensor.
    pub fn needs_grad(&self) -> bool {
        self.inner.needs_grad
    }

    /// Borrows the value.
    pub fn data(&self) -> Ref<'_, NdArray> {
        self.inner.data.borrow()
    }

    /// Mutably borrows the value (used by optimizers; does not touch the tape).
    pub fn data_mut(&self) -> RefMut<'_, NdArray> {
        self.inner.data.borrow_mut()
    }

    /// `(rows, cols)` of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.data.borrow().shape()
    }

    /// Clones the accumulated gradient, if any.
    pub fn grad(&self) -> Option<NdArray> {
        self.inner.grad.borrow().clone()
    }

    /// Borrows the accumulated gradient.
    pub fn grad_ref(&self) -> Ref<'_, Option<NdArray>> {
        self.inner.grad.borrow()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// The scalar value of a `[1, 1]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        self.inner.data.borrow().item()
    }

    /// A constant leaf sharing a copy of this tensor's current value.
    pub fn detach(&self) -> Tensor {
        Tensor::new(self.inner.data.borrow().clone())
    }

    /// Runs reverse-mode differentiation from this tensor, seeding with ones.
    ///
    /// Typically called on the scalar loss. Gradients of interior tensors are
    /// consumed during the walk; gradients of leaves with
    /// `requires_grad == true` remain readable via [`Tensor::grad`] and are
    /// *accumulated* across calls until [`Tensor::zero_grad`].
    ///
    /// The walk consumes the graph: each node is released as soon as its
    /// rule has run, so an intermediate's buffer is freed once its last
    /// consumer is done. A second `backward` through the same graph finds no
    /// node to run and leaves every leaf gradient unchanged — PyTorch's
    /// behaviour without `retain_graph`, minus the error.
    pub fn backward(&self) {
        let seed = {
            let d = self.inner.data.borrow();
            NdArray::full(d.rows(), d.cols(), 1.0)
        };
        self.backward_with(seed);
    }

    /// Runs reverse-mode differentiation with an explicit seed gradient.
    ///
    /// # Panics
    ///
    /// Panics if the seed shape does not match the tensor shape.
    pub fn backward_with(&self, seed: NdArray) {
        assert_eq!(seed.shape(), self.shape(), "backward seed shape mismatch");
        // An interior tensor without a node has had its graph consumed.
        let consumed = !self.inner.requires_grad && self.inner.node.borrow().is_none();
        if !self.inner.needs_grad || consumed {
            return;
        }
        accumulate(self, seed);

        // Reverse topological order via iterative post-order DFS.
        let mut topo: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((t, expanded)) = stack.pop() {
            if expanded {
                topo.push(t);
                continue;
            }
            if !visited.insert(t.id()) {
                continue;
            }
            stack.push((t.clone(), true));
            if let Some(node) = t.inner.node.borrow().as_ref() {
                for p in &node.parents {
                    if p.needs_grad() && !visited.contains(&p.id()) {
                        stack.push((p.clone(), false));
                    }
                }
            }
        }

        // Every consumer of a tensor pops before it does. The node and the
        // walk's handle are gone before the rule runs (a rule reads only its
        // parents), so a tensor nobody else holds is freed right here.
        while let Some(t) = topo.pop() {
            let Some(node) = t.inner.node.borrow_mut().take() else {
                continue;
            };
            // Interior gradients are consumed: they are not observable after
            // backward, matching PyTorch's default.
            let grad = t.inner.grad.borrow_mut().take();
            drop(t);
            let Some(grad) = grad else { continue };
            // Engine bookkeeping per executed node (queueing, ready-count
            // tracking, hook dispatch) — the host-side cost of torch's
            // autograd engine.
            gnn_device::host(ENGINE_OVERHEAD_PER_NODE);
            node.op.backward(&grad, &node.parents);
        }
    }
}

/// Adds `g` into `t`'s gradient buffer (no-op if `t` does not need grad).
///
/// The first contribution moves the buffer in (tracked as a device
/// allocation); later contributions record an elementwise accumulation
/// kernel, matching how real frameworks fuse the first write and launch
/// `add_` kernels for the rest.
///
/// # Panics
///
/// Panics if `g`'s shape differs from `t`'s value shape.
pub fn accumulate(t: &Tensor, g: NdArray) {
    if !t.inner.needs_grad {
        return;
    }
    assert_eq!(g.shape(), t.shape(), "gradient shape mismatch for {t:?}");
    let mut slot = t.inner.grad.borrow_mut();
    match slot.as_mut() {
        Some(acc) => {
            gnn_device::record(gnn_device::Kernel::elementwise("grad_accum", g.len(), 1, 3));
            acc.add_assign(&g);
        }
        None => {
            gnn_device::alloc(g.byte_size());
            *slot = Some(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = a + b elementwise, minimal op for engine tests.
    struct AddBack;
    impl Backward for AddBack {
        fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
            accumulate(&parents[0], grad.clone());
            accumulate(&parents[1], grad.clone());
        }
        fn name(&self) -> &'static str {
            "add"
        }
    }

    fn add(a: &Tensor, b: &Tensor) -> Tensor {
        let data = a.data().zip(&b.data(), |x, y| x + y);
        Tensor::from_op(data, vec![a.clone(), b.clone()], Box::new(AddBack))
    }

    /// y = a * a (tests repeated-parent accumulation).
    struct SquareBack;
    impl Backward for SquareBack {
        fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
            let g = grad.zip(&parents[0].data(), |g, x| 2.0 * g * x);
            accumulate(&parents[0], g);
        }
        fn name(&self) -> &'static str {
            "square"
        }
    }

    fn square(a: &Tensor) -> Tensor {
        let data = a.data().map(|x| x * x);
        Tensor::from_op(data, vec![a.clone()], Box::new(SquareBack))
    }

    #[test]
    fn add_gradients_flow_to_both_parents() {
        let a = Tensor::param(NdArray::scalar(2.0));
        let b = Tensor::param(NdArray::scalar(3.0));
        let y = add(&a, &b);
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 1.0);
        assert_eq!(b.grad().unwrap().item(), 1.0);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // y = a^2 + a^2, dy/da = 4a
        let a = Tensor::param(NdArray::scalar(3.0));
        let s1 = square(&a);
        let s2 = square(&a);
        let y = add(&s1, &s2);
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 12.0);
    }

    #[test]
    fn shared_subexpression_evaluated_once_in_backward() {
        // y = (a^2) + (a^2 reused) — the same tensor used twice.
        let a = Tensor::param(NdArray::scalar(2.0));
        let s = square(&a);
        let y = add(&s, &s);
        y.backward();
        // dy/ds = 2, ds/da = 2a=4 => dy/da = 8
        assert_eq!(a.grad().unwrap().item(), 8.0);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let a = Tensor::param(NdArray::scalar(1.0));
        let c = Tensor::new(NdArray::scalar(5.0));
        let y = add(&a, &c);
        y.backward();
        assert!(c.grad().is_none());
        assert_eq!(a.grad().unwrap().item(), 1.0);
    }

    #[test]
    fn tape_pruned_when_no_parent_needs_grad() {
        let a = Tensor::new(NdArray::scalar(1.0));
        let b = Tensor::new(NdArray::scalar(2.0));
        let y = add(&a, &b);
        assert!(!y.needs_grad());
        // backward on a pruned tensor is a no-op, not a panic.
        y.backward();
        assert!(a.grad().is_none());
    }

    #[test]
    fn grad_accumulates_across_backward_calls_until_zeroed() {
        let a = Tensor::param(NdArray::scalar(1.0));
        let y1 = square(&a);
        y1.backward();
        let y2 = square(&a);
        y2.backward();
        assert_eq!(a.grad().unwrap().item(), 4.0);
        a.zero_grad();
        assert!(a.grad().is_none());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let a = Tensor::param(NdArray::scalar(1.0));
        let mut y = add(&a, &a);
        for _ in 0..50_000 {
            let c = Tensor::new(NdArray::scalar(0.0));
            y = add(&y, &c);
        }
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn detach_cuts_the_graph() {
        let a = Tensor::param(NdArray::scalar(2.0));
        let s = square(&a).detach();
        let y = square(&s);
        y.backward();
        assert!(a.grad().is_none());
    }

    /// Passes the gradient through and sets its flag when dropped.
    struct ProbeBack(std::rc::Rc<std::cell::Cell<bool>>);
    impl Backward for ProbeBack {
        fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
            accumulate(&parents[0], grad.clone());
        }
        fn name(&self) -> &'static str {
            "probe"
        }
    }
    impl Drop for ProbeBack {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    #[test]
    fn backward_releases_each_node_it_runs() {
        let a = Tensor::param(NdArray::scalar(1.0));
        let flags: Vec<_> = (0..3)
            .map(|_| std::rc::Rc::new(std::cell::Cell::new(false)))
            .collect();
        let mut y = a.clone();
        for flag in &flags {
            let data = y.data().clone();
            y = Tensor::from_op(data, vec![y], Box::new(ProbeBack(flag.clone())));
        }
        assert!(flags.iter().all(|f| !f.get()), "forward keeps every node");
        y.backward();
        // `y` is still alive, yet every node it reached has been dropped.
        assert!(
            flags.iter().all(|f| f.get()),
            "backward must free its nodes"
        );
        assert_eq!(a.grad().unwrap().item(), 1.0);
    }

    #[test]
    fn second_backward_through_a_consumed_graph_leaves_leaf_grads_unchanged() {
        let a = Tensor::param(NdArray::scalar(3.0));
        let y = add(&square(&a), &a);
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 7.0);
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 7.0, "the graph was consumed");
        assert!(y.grad().is_none(), "no seed is left on a consumed root");
    }

    #[test]
    #[should_panic(expected = "backward seed shape mismatch")]
    fn wrong_seed_shape_panics() {
        let a = Tensor::param(NdArray::zeros(2, 2));
        let y = square(&a);
        y.backward_with(NdArray::zeros(1, 1));
    }
}

#[cfg(test)]
mod no_grad_tests {
    use super::*;

    #[test]
    fn no_grad_prunes_tape() {
        let w = Tensor::param(NdArray::scalar(2.0));
        let y = no_grad(|| w.scale(3.0));
        assert!(!y.needs_grad());
        assert!(grad_enabled(), "state must be restored");
    }

    #[test]
    fn no_grad_nests_and_restores() {
        assert!(grad_enabled());
        no_grad(|| {
            assert!(!grad_enabled());
            no_grad(|| assert!(!grad_enabled()));
            assert!(!grad_enabled());
        });
        assert!(grad_enabled());
    }

    #[test]
    fn no_grad_restores_on_panic() {
        let result = std::panic::catch_unwind(|| {
            no_grad(|| panic!("boom"));
        });
        assert!(result.is_err());
        assert!(grad_enabled(), "state must be restored after panic");
    }

    #[test]
    fn training_after_no_grad_still_works() {
        let w = Tensor::param(NdArray::scalar(1.0));
        no_grad(|| w.scale(2.0));
        let y = w.scale(2.0);
        y.backward();
        assert_eq!(w.grad().unwrap().item(), 2.0);
    }
}
