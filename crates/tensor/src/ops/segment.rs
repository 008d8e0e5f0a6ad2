//! Segment reductions and segment softmax.
//!
//! A *segment* operation reduces rows that share an id — the primitive behind
//! neighborhood aggregation keyed by destination node and graph readout keyed
//! by graph id. DGL exposes these as its segment-reduce operator (the paper's
//! Section IV-C notes DGL's pooling builds on it); attention models normalize
//! per-destination scores with a segment softmax.

use gnn_device::{record, Kernel, KernelKind};

use crate::autograd::{accumulate, records, Backward, Tensor};
use crate::ndarray::NdArray;
use crate::ops::index::gather_raw;
use crate::ops::Ids;
use crate::shape_error::ShapeError;

/// Number of rows per segment as f32 (0 for empty segments).
pub fn segment_counts(ids: &[u32], num_segments: usize) -> Vec<f32> {
    let mut counts = vec![0.0f32; num_segments];
    for &i in ids {
        debug_assert!(
            (i as usize) < num_segments,
            "segment_counts: segment id out of bounds (num_segments = {num_segments})"
        );
        counts[i as usize] += 1.0;
    }
    counts
}

/// Validates a segment-id array against the rows it indexes and the segment
/// count it scatters into. Shared by the runtime ops (which panic on `Err`)
/// and the `gnn-lint` index-safety pass (which reports the same message).
pub fn check_ids(
    ids: &[u32],
    rows: usize,
    num_segments: usize,
    op: &'static str,
) -> Result<(), ShapeError> {
    if ids.len() != rows {
        return Err(ShapeError::ids_length(op, ids.len(), rows));
    }
    if ids.iter().any(|&i| (i as usize) >= num_segments) {
        return Err(ShapeError::segment_oob(op, num_segments));
    }
    Ok(())
}

fn assert_ids(ids: &[u32], rows: usize, num_segments: usize, op: &'static str) {
    if let Err(e) = check_ids(ids, rows, num_segments, op) {
        panic!("{e}");
    }
}

struct SegmentSumBack {
    ids: Ids,
}

impl Backward for SegmentSumBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::gather(
            "segment_sum_back",
            self.ids.len(),
            grad.cols(),
        ));
        accumulate(&parents[0], gather_raw(grad, &self.ids));
    }
    fn name(&self) -> &'static str {
        "segment_sum"
    }
}

struct SegmentMeanBack {
    ids: Ids,
    inv_counts: Vec<f32>,
}

impl Backward for SegmentMeanBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::gather(
            "segment_mean_back",
            self.ids.len(),
            grad.cols(),
        ));
        let mut g = gather_raw(grad, &self.ids);
        for (r, &i) in self.ids.iter().enumerate() {
            let s = self.inv_counts[i as usize];
            for v in g.row_mut(r) {
                *v *= s;
            }
        }
        accumulate(&parents[0], g);
    }
    fn name(&self) -> &'static str {
        "segment_mean"
    }
}

struct SegmentMaxBack {
    /// For each output element `(segment, col)`, the input row that won.
    argmax: Vec<i64>,
    in_rows: usize,
}

impl Backward for SegmentMaxBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::scatter(
            "segment_max_back",
            grad.rows(),
            grad.cols(),
        ));
        let cols = grad.cols();
        let mut out = NdArray::zeros(self.in_rows, cols);
        for s in 0..grad.rows() {
            for c in 0..cols {
                let winner = self.argmax[s * cols + c];
                if winner >= 0 {
                    *out.at_mut(winner as usize, c) += grad.at(s, c);
                }
            }
        }
        accumulate(&parents[0], out);
    }
    fn name(&self) -> &'static str {
        "segment_max"
    }
}

struct SegmentSoftmaxBack {
    ids: Ids,
    num_segments: usize,
    y: NdArray,
}

impl Backward for SegmentSoftmaxBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        // dx = y * (g - s[seg]) with s[seg] = sum_{rows in seg} g * y
        record(Kernel::new(
            "segment_softmax_back",
            KernelKind::Softmax,
            2 * grad.len() as u64,
            16 * grad.len() as u64,
        ));
        let cols = grad.cols();
        let mut seg_dot = NdArray::zeros(self.num_segments, cols);
        for (r, &i) in self.ids.iter().enumerate() {
            let gr = grad.row(r);
            let yr = self.y.row(r);
            let sd = seg_dot.row_mut(i as usize);
            for c in 0..cols {
                sd[c] += gr[c] * yr[c];
            }
        }
        let mut dx = NdArray::zeros(grad.rows(), cols);
        for (r, &i) in self.ids.iter().enumerate() {
            let gr = grad.row(r);
            let yr = self.y.row(r);
            let sd = seg_dot.row(i as usize);
            let dr = dx.row_mut(r);
            for c in 0..cols {
                dr[c] = yr[c] * (gr[c] - sd[c]);
            }
        }
        accumulate(&parents[0], dx);
    }
    fn name(&self) -> &'static str {
        "segment_softmax"
    }
}

impl Tensor {
    /// Sums rows of `self [E, F]` into segments, producing `[S, F]`.
    ///
    /// Numerically identical to [`Tensor::scatter_add_rows`] but recorded as a
    /// fused segment-reduction kernel (DGL's operator) rather than an atomic
    /// scatter (PyG's `scatter` API).
    ///
    /// # Panics
    ///
    /// Panics if ids are out of bounds or mismatched in length.
    pub fn segment_sum(&self, ids: &Ids, num_segments: usize) -> Tensor {
        let x = self.data();
        assert_ids(ids, x.rows(), num_segments, "segment_sum");
        record(Kernel::segment(
            "segment_sum",
            x.rows(),
            x.cols(),
            num_segments,
        ));
        let mut out = NdArray::zeros(num_segments, x.cols());
        for (r, &i) in ids.iter().enumerate() {
            let dst = out.row_mut(i as usize);
            for (d, &s) in dst.iter_mut().zip(x.row(r)) {
                *d += s;
            }
        }
        drop(x);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(SegmentSumBack { ids: ids.clone() }),
        )
    }

    /// Averages rows of `self [E, F]` per segment, producing `[S, F]`.
    /// Empty segments produce zero rows.
    pub fn segment_mean(&self, ids: &Ids, num_segments: usize) -> Tensor {
        let x = self.data();
        assert_ids(ids, x.rows(), num_segments, "segment_mean");
        record(Kernel::segment(
            "segment_mean",
            x.rows(),
            x.cols(),
            num_segments,
        ));
        let counts = segment_counts(ids, num_segments);
        let inv_counts: Vec<f32> = counts
            .iter()
            .map(|&c| if c > 0.0 { 1.0 / c } else { 0.0 })
            .collect();
        let mut out = NdArray::zeros(num_segments, x.cols());
        for (r, &i) in ids.iter().enumerate() {
            let dst = out.row_mut(i as usize);
            for (d, &s) in dst.iter_mut().zip(x.row(r)) {
                *d += s;
            }
        }
        for (s, &ic) in inv_counts.iter().enumerate() {
            for v in out.row_mut(s) {
                *v *= ic;
            }
        }
        drop(x);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(SegmentMeanBack {
                ids: ids.clone(),
                inv_counts,
            }),
        )
    }

    /// Takes the per-column maximum of rows within each segment, producing
    /// `[S, F]`. Empty segments produce zero rows and receive no gradient.
    pub fn segment_max(&self, ids: &Ids, num_segments: usize) -> Tensor {
        let x = self.data();
        assert_ids(ids, x.rows(), num_segments, "segment_max");
        record(Kernel::segment(
            "segment_max",
            x.rows(),
            x.cols(),
            num_segments,
        ));
        let cols = x.cols();
        let mut out = NdArray::full(num_segments, cols, f32::NEG_INFINITY);
        let mut argmax = vec![-1i64; num_segments * cols];
        for (r, &i) in ids.iter().enumerate() {
            let seg = i as usize;
            for (c, &v) in x.row(r).iter().enumerate() {
                if v > out.at(seg, c) {
                    *out.at_mut(seg, c) = v;
                    argmax[seg * cols + c] = r as i64;
                }
            }
        }
        // Empty segments: report 0 like torch_scatter's default reduce.
        for v in out.data_mut() {
            if *v == f32::NEG_INFINITY {
                *v = 0.0;
            }
        }
        let in_rows = x.rows();
        drop(x);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(SegmentMaxBack { argmax, in_rows }),
        )
    }

    /// Softmax over rows sharing a segment id, column-wise (attention
    /// normalization: rows are edges, segments are destination nodes, columns
    /// are attention heads). Produces the same shape as the input.
    pub fn segment_softmax(&self, ids: &Ids, num_segments: usize) -> Tensor {
        let x = self.data();
        assert_ids(ids, x.rows(), num_segments, "segment_softmax");
        record(Kernel::new(
            "segment_softmax",
            KernelKind::Softmax,
            3 * x.len() as u64,
            20 * x.len() as u64,
        ));
        let cols = x.cols();
        // Shifted exp for numerical stability.
        let mut seg_max = NdArray::full(num_segments, cols, f32::NEG_INFINITY);
        for (r, &i) in ids.iter().enumerate() {
            let sm = seg_max.row_mut(i as usize);
            for (c, &v) in x.row(r).iter().enumerate() {
                if v > sm[c] {
                    sm[c] = v;
                }
            }
        }
        let mut y = NdArray::zeros(x.rows(), cols);
        let mut seg_sum = NdArray::zeros(num_segments, cols);
        for (r, &i) in ids.iter().enumerate() {
            let sm = seg_max.row(i as usize);
            let yr = y.row_mut(r);
            for (c, &v) in x.row(r).iter().enumerate() {
                yr[c] = (v - sm[c]).exp();
            }
            let ss = seg_sum.row_mut(i as usize);
            for c in 0..cols {
                ss[c] += yr[c];
            }
        }
        for (r, &i) in ids.iter().enumerate() {
            let ss = seg_sum.row(i as usize);
            let yr = y.row_mut(r);
            for c in 0..cols {
                yr[c] /= ss[c].max(1e-16);
            }
        }
        drop(x);
        // The output is not a parent: save a copy only if the node is kept.
        let saved = if records([self]) {
            y.clone()
        } else {
            NdArray::default()
        };
        Tensor::from_op(
            y,
            vec![self.clone()],
            Box::new(SegmentSoftmaxBack {
                ids: ids.clone(),
                num_segments,
                y: saved,
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn ids(v: Vec<u32>) -> Ids {
        Rc::new(v)
    }

    #[test]
    fn counts() {
        assert_eq!(segment_counts(&[0, 0, 2], 3), vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn segment_sum_and_back() {
        let x = Tensor::param(NdArray::from_vec(3, 1, vec![1., 2., 3.]));
        let y = x.segment_sum(&ids(vec![0, 1, 0]), 2);
        assert_eq!(y.data().data(), &[4., 2.]);
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[1., 1., 1.]);
    }

    #[test]
    fn segment_mean_handles_empty_segment() {
        let x = Tensor::param(NdArray::from_vec(2, 1, vec![2., 4.]));
        let y = x.segment_mean(&ids(vec![0, 0]), 2);
        assert_eq!(y.data().data(), &[3., 0.]);
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0.5, 0.5]);
    }

    #[test]
    fn segment_max_values_and_grads() {
        let x = Tensor::param(NdArray::from_vec(4, 1, vec![1., 5., 2., -1.]));
        let y = x.segment_max(&ids(vec![0, 0, 1, 1]), 2);
        assert_eq!(y.data().data(), &[5., 2.]);
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0., 1., 1., 0.]);
    }

    #[test]
    fn segment_max_empty_segment_is_zero() {
        let x = Tensor::param(NdArray::from_vec(1, 1, vec![-7.]));
        let y = x.segment_max(&ids(vec![1]), 3);
        assert_eq!(y.data().data(), &[0., -7., 0.]);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let x = Tensor::param(NdArray::from_vec(
            4,
            2,
            vec![1., 0., 2., 0., 5., 1., 3., 1.],
        ));
        let sid = ids(vec![0, 0, 1, 1]);
        let y = x.segment_softmax(&sid, 2);
        let d = y.data();
        for c in 0..2 {
            assert!((d.at(0, c) + d.at(1, c) - 1.0).abs() < 1e-5);
            assert!((d.at(2, c) + d.at(3, c) - 1.0).abs() < 1e-5);
        }
        // Larger score gets larger probability.
        assert!(d.at(1, 0) > d.at(0, 0));
        assert!(d.at(2, 0) > d.at(3, 0));
    }

    #[test]
    fn segment_softmax_gradcheck() {
        let vals = vec![0.5, -0.3, 1.2, 0.1];
        let sid = vec![0u32, 0, 1, 1];
        let x = Tensor::param(NdArray::from_vec(4, 1, vals.clone()));
        // f = sum(softmax * weights) to create non-trivial grads
        let w = Tensor::new(NdArray::from_vec(4, 1, vec![1., 2., 3., 4.]));
        let y = x.segment_softmax(&ids(sid.clone()), 2).mul(&w);
        y.backward();
        let analytic = x.grad().unwrap();
        let f = |v: &[f32]| {
            let weights = [1.0f32, 2., 3., 4.];
            let mut total = 0.0;
            for seg in 0..2 {
                let rows: Vec<usize> = (0..4).filter(|&r| sid[r] == seg as u32).collect();
                let m = rows.iter().map(|&r| v[r]).fold(f32::MIN, f32::max);
                let sum: f32 = rows.iter().map(|&r| (v[r] - m).exp()).sum();
                for &r in &rows {
                    total += (v[r] - m).exp() / sum * weights[r];
                }
            }
            total
        };
        let eps = 1e-3;
        for i in 0..4 {
            let mut up = vals.clone();
            up[i] += eps;
            let mut dn = vals.clone();
            dn[i] -= eps;
            let numeric = (f(&up) - f(&dn)) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[i]).abs() < 1e-2,
                "i={i}: {numeric} vs {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn segment_softmax_stable_for_large_scores() {
        let x = Tensor::new(NdArray::from_vec(2, 1, vec![1000.0, 999.0]));
        let y = x.segment_softmax(&ids(vec![0, 0]), 1);
        assert!(!y.data().has_non_finite());
    }

    #[test]
    #[should_panic(expected = "segment id out of bounds")]
    fn oob_segment_panics() {
        let x = Tensor::new(NdArray::zeros(1, 1));
        x.segment_sum(&ids(vec![3]), 2);
    }
}
