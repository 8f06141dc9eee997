//! Batched per-vertex inference, layer by layer: each GCN layer computes
//! only the rows the next layer reads.
//!
//! This is the kernel the serving batcher calls. With targets `T` and `L`
//! layers, layer `l` (from 0) produces its destination set
//! `D_l = N^(L-1-l)(T)` (the `(L-1-l)`-hop in-neighbourhood over the
//! normalized adjacency) from the rows of its source set `S_l = N^(L-l)(T)`,
//! so the last layer computes the targets alone. One expansion records each
//! vertex's hop level; each layer then runs on its own `|D_l| x |S_l|`
//! block of `A_hat` (a message-flow block) that keeps every non-zero of the
//! `D_l` rows, with columns renumbered into `S_l` by a position array.
//!
//! Both sets stay in ascending global order and every f32 layer runs a
//! width-1 (sequential) plan, so each row walks its non-zeros in the
//! global order and each target row is **bitwise identical** to full-graph
//! [`GcnModel::infer_planned_with`] under a pinned width-1 plan — the
//! contract the sharded runner pins too (row-local SpMM order,
//! row-partition-invariant GEMM). Coalescing requests into one batch
//! therefore never changes a single bit of any request's result.
//!
//! A layer whose destination set is the whole graph runs `A_hat` through
//! the workspace's **cached full-graph width-1 plan**, built once per
//! adjacency. No block is larger than `A_hat`, so a gathered call never
//! costs more than a full pass.

use crate::error::GcnError;
use crate::model::{GcnLayer, GcnModel, InferenceWorkspace};
use kernels::fused::gcn_layer_planned_prec_into;
use kernels::SpmmPlan;
use matrix::{DenseMatrix, Precision, QuantMatrix};
use sparse::Csr;
use std::borrow::Cow;

/// Statistics of one gathered-batch inference call (fed into the serving
/// metrics: neighbourhood size is the real unit of work a batch costs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowsBatchStats {
    /// Requested target rows (including duplicates, in caller order).
    pub targets: usize,
    /// Unique vertices in the gathered L-hop neighbourhood.
    pub gathered: usize,
    /// Non-zeros of layer 0's block (`A_hat`'s own when layer 0 ran the
    /// full graph); later layers' blocks are subsets of it.
    pub sub_nnz: usize,
    /// Hops expanded (= model layer count).
    pub hops: usize,
    /// Layer 0 ran the cached full-graph plan: its destination set (the
    /// `(L-1)`-hop neighbourhood) is the whole graph.
    pub full_graph: bool,
}

/// Reusable buffers for [`GcnModel::infer_rows_planned_into`]: expansion
/// state, block-CSR arrays, layer activations, and the cached full-graph
/// plans. After the first call on a given adjacency,
/// steady-state calls reuse every buffer at its high-water mark.
#[derive(Debug, Default)]
pub struct RowsWorkspace {
    /// `hop[v] = base + level` for a vertex `level` hops from the current
    /// targets; every stamp below the current call's `base` is stale.
    hop: Vec<u32>,
    /// Highest stamp any call has written into `hop`.
    stamp: u32,
    /// Row of each source-set vertex in the current layer's input.
    pos: Vec<u32>,
    /// Gathered vertices: discovery order during the expansion, then the
    /// current layer's source set, ascending.
    verts: Vec<usize>,
    /// Block-CSR arrays, recycled through `Csr::from_raw`/`into_raw`.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
    /// Layer-0 input rows, gathered only when layer 0 transforms before it
    /// aggregates (an aggregate-first layer 0 reads the features in place).
    feat: DenseMatrix,
    /// Activations (ping-pong), fused intermediate, brownout staging.
    h: DenseMatrix,
    next: DenseMatrix,
    mid: DenseMatrix,
    qbuf: QuantMatrix,
    /// Caches one width-1 full-graph plan per adjacency across calls.
    full_ws: InferenceWorkspace,
    /// The brownout full-graph plan, keyed by its requested precision.
    prec_full: Option<(Precision, SpmmPlan)>,
}

impl RowsWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves stamps `base..=base + hops` for one call and returns
    /// `base`, resetting `hop` when the stamps would wrap.
    fn next_base(&mut self, n: usize, hops: u32) -> u32 {
        if self.hop.len() < n {
            self.hop.resize(n, 0);
            self.pos.resize(n, 0);
        }
        if u32::MAX - self.stamp <= hops {
            self.hop.fill(0);
            self.stamp = 0;
        }
        let base = self.stamp + 1;
        self.stamp = base + hops;
        base
    }
}

impl GcnModel {
    /// Batched per-vertex planned inference: computes the model output for
    /// exactly the rows in `targets` (output row `i` corresponds to
    /// `targets[i]`; duplicates are allowed and each gets its own output
    /// row). Layer `l` computes only the rows within `L-1-l` hops.
    ///
    /// The result is bitwise identical to running full-graph
    /// [`GcnModel::infer_planned_with`] under an installed width-1 plan
    /// and reading the target rows, however requests are coalesced.
    ///
    /// Returns per-batch [`RowsBatchStats`]; `out` is resized to
    /// `targets.len() x out_dim`.
    ///
    /// # Errors
    ///
    /// [`GcnError::VertexOutOfRange`] for a target outside the graph,
    /// plus the same conditions as [`GcnModel::infer`].
    pub fn infer_rows_planned_into(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        targets: &[usize],
        ws: &mut RowsWorkspace,
        out: &mut DenseMatrix,
    ) -> Result<RowsBatchStats, GcnError> {
        self.rows_impl(a_hat, features, targets, None, ws, out)
    }

    /// [`GcnModel::infer_rows_planned_into`] at a narrow storage
    /// precision — the serving brownout path: the same layer loop with
    /// pool-width plans re-targeted by [`SpmmPlan::at_precision`]. Outputs carry
    /// quantization error and are **not** bitwise-comparable to the f32
    /// path (callers must annotate responses accordingly).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GcnModel::infer_rows_planned_into`].
    pub fn infer_rows_planned_prec_into(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        targets: &[usize],
        precision: Precision,
        ws: &mut RowsWorkspace,
        out: &mut DenseMatrix,
    ) -> Result<RowsBatchStats, GcnError> {
        self.rows_impl(a_hat, features, targets, Some(precision), ws, out)
    }

    fn rows_impl(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        targets: &[usize],
        precision: Option<Precision>,
        ws: &mut RowsWorkspace,
        out: &mut DenseMatrix,
    ) -> Result<RowsBatchStats, GcnError> {
        if features.cols() != self.input_dim() {
            return Err(GcnError::FeatureDimMismatch {
                expected: self.input_dim(),
                actual: features.cols(),
            });
        }
        let n = a_hat.nrows();
        if features.rows() != n {
            return Err(GcnError::VertexCountMismatch {
                graph: n,
                features: features.rows(),
            });
        }
        let hops = self.layers().len();
        let out_dim = self.layers().last().map_or(0, GcnLayer::out_dim);
        out.resize_for_overwrite(targets.len(), out_dim);
        let mut stats = RowsBatchStats {
            targets: targets.len(),
            hops,
            ..RowsBatchStats::default()
        };
        if targets.is_empty() {
            return Ok(stats);
        }

        if let Some(&vertex) = targets.iter().find(|&&t| t >= n) {
            return Err(GcnError::VertexOutOfRange {
                vertex,
                vertices: n,
            });
        }

        // --- Expansion: hop level of every vertex within L hops. --------
        let base = ws.next_base(n, hops as u32);
        ws.verts.clear();
        for &t in targets {
            if ws.hop[t] < base {
                ws.hop[t] = base;
                ws.verts.push(t);
            }
        }
        let mut frontier = 0;
        for level in 1..=hops as u32 {
            let end = ws.verts.len();
            if frontier == end || end == n {
                break; // fixed point or saturated: every hop level is final
            }
            for i in frontier..end {
                for c in a_hat.row_cols(ws.verts[i]).iter().map(|&c| c as usize) {
                    if ws.hop[c] < base {
                        ws.hop[c] = base + level;
                        ws.verts.push(c);
                    }
                }
            }
            frontier = end;
        }
        stats.gathered = ws.verts.len();
        ws.verts.sort_unstable();

        // --- Layers: D_l = {hop <= reach}, S_l = {hop <= reach + 1}. ---
        for (l, layer) in self.layers().iter().enumerate() {
            let reach = base + (hops - 1 - l) as u32;
            let hop = &ws.hop;
            ws.verts.retain(|&v| hop[v] <= reach + 1);
            let dst = ws.verts.iter().filter(|&&v| hop[v] <= reach).count();
            // An aggregate-first layer 0 reads `features` in place (global
            // columns: 11% lower serve-deep p50 latency than gathering).
            let global = l == 0 && (layer.in_dim() <= layer.out_dim() || dst == n);
            if !global {
                for (i, &v) in ws.verts.iter().enumerate() {
                    ws.pos[v] = i as u32;
                }
                if l == 0 {
                    ws.feat
                        .resize_for_overwrite(ws.verts.len(), features.cols());
                    for (i, &v) in ws.verts.iter().enumerate() {
                        ws.feat.row_mut(i).copy_from_slice(features.row(v));
                    }
                }
            }
            let input = match (l, global) {
                (0, true) => features,
                (0, false) => &ws.feat,
                _ => &ws.h,
            };
            let block = if dst == n {
                None
            } else {
                ws.row_ptr.clear();
                ws.col_idx.clear();
                ws.values.clear();
                ws.row_ptr.push(0);
                for &v in ws.verts.iter().filter(|&&v| hop[v] <= reach) {
                    let cols = a_hat.row_cols(v);
                    if global {
                        ws.col_idx.extend_from_slice(cols);
                    } else {
                        ws.col_idx.extend(cols.iter().map(|&c| ws.pos[c as usize]));
                    }
                    ws.values.extend_from_slice(a_hat.row_values(v));
                    ws.row_ptr.push(ws.col_idx.len());
                }
                Some(Csr::from_raw(
                    dst,
                    if global { n } else { ws.verts.len() },
                    std::mem::take(&mut ws.row_ptr),
                    std::mem::take(&mut ws.col_idx),
                    std::mem::take(&mut ws.values),
                )?)
            };
            // Width 1 ⇒ always sequential: batch parallelism comes from the
            // serving lanes, never from inside a batch. A block plan's `k`
            // hint is the layer's SpMM width, so it never re-resolves.
            // Brownout output is not bitwise-comparable anyway, so its
            // plans take the pool's width, as full-graph inference does.
            let k = layer.in_dim().min(layer.out_dim());
            let plan = match (&block, precision) {
                (Some(b), None) => Cow::Owned(SpmmPlan::with_width(b, k, 1)),
                (Some(b), Some(p)) => Cow::Owned(SpmmPlan::new(b, k).at_precision(p)),
                (None, None) => {
                    if !ws.full_ws.plan().is_some_and(|p| p.matches(a_hat)) {
                        ws.full_ws
                            .install_plan(SpmmPlan::with_width(a_hat, features.cols(), 1));
                    }
                    Cow::Borrowed(ws.full_ws.plan().expect("full plan installed above"))
                }
                (None, Some(p)) => {
                    let f = match ws.prec_full.take() {
                        Some((q, f)) if q == p && f.matches(a_hat) => f,
                        _ => SpmmPlan::with_precision(a_hat, features.cols(), p),
                    };
                    Cow::Borrowed(&ws.prec_full.insert((p, f)).1)
                }
            };
            let a = block.as_ref().unwrap_or(a_hat);
            if l == 0 {
                stats.sub_nnz = a.nnz();
                stats.full_graph = block.is_none();
            }
            let run = gcn_layer_planned_prec_into(
                a,
                input,
                &layer.weight,
                layer.bias.as_deref(),
                layer.activation,
                &plan,
                &mut ws.qbuf,
                &mut ws.mid,
                &mut ws.next,
            );
            if let Some(b) = block {
                (ws.row_ptr, ws.col_idx, ws.values) = b.into_raw();
            }
            run?;
            std::mem::swap(&mut ws.h, &mut ws.next);
        }

        // --- Scatter: the last layer computed the unique targets, sorted.
        let hop = &ws.hop;
        ws.verts.retain(|&v| hop[v] == base);
        for (i, &v) in ws.verts.iter().enumerate() {
            ws.pos[v] = i as u32;
        }
        for (i, &t) in targets.iter().enumerate() {
            out.row_mut(i).copy_from_slice(ws.h.row(ws.pos[t] as usize));
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcnConfig;
    use graph::rmat::RmatConfig;
    use graph::Graph;

    fn setup(scale: u32) -> (Csr, GcnModel, DenseMatrix) {
        let g = Graph::rmat(&RmatConfig::power_law(scale, 6), 77);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        (a_hat, model, x)
    }

    /// Full-graph reference under the pinned width-1 plan — the bitwise
    /// contract both the sharded runner and the rows path share.
    fn reference(a_hat: &Csr, model: &GcnModel, x: &DenseMatrix) -> DenseMatrix {
        let mut ws = InferenceWorkspace::new();
        ws.install_plan(SpmmPlan::with_width(a_hat, x.cols(), 1));
        model.infer_planned_with(a_hat, x, &mut ws).unwrap().clone()
    }

    #[test]
    fn batched_rows_match_full_graph_bitwise() {
        let (a_hat, model, x) = setup(9);
        let full = reference(&a_hat, &model, &x);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        let targets = [3usize, 99, 400, 3, 17];
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &targets, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out.shape(), (targets.len(), 3));
        assert_eq!(stats.targets, 5);
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(out.row(i), full.row(t), "row {t} diverged");
        }
    }

    #[test]
    fn saturated_expansion_uses_cached_full_plan() {
        // A tiny dense graph saturates in one hop of a 3-layer model.
        let g = Graph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        let full = reference(&a_hat, &model, &x);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[2, 0], &mut ws, &mut out)
            .unwrap();
        assert!(stats.full_graph);
        assert_eq!(stats.gathered, 4);
        assert_eq!(out.row(0), full.row(2));
        assert_eq!(out.row(1), full.row(0));
        // The cached full plan survives into the next call.
        let fp = ws.full_ws.plan().unwrap().fingerprint_value();
        model
            .infer_rows_planned_into(&a_hat, &x, &[1], &mut ws, &mut out)
            .unwrap();
        assert_eq!(ws.full_ws.plan().unwrap().fingerprint_value(), fp);
    }

    #[test]
    fn layers_compute_only_the_rows_the_next_layer_reads() {
        // A path 0-1-...-11: the j-hop set of vertex 5 is 5-j..=5+j.
        let edges: Vec<(usize, usize)> = (0..11).map(|v| (v, v + 1)).collect();
        let g = Graph::from_undirected_edges(12, &edges);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        let full = reference(&a_hat, &model, &x);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[5], &mut ws, &mut out)
            .unwrap();
        // Layers 0, 1, 2 compute the 2-, 1- and 0-hop sets: 5, 3 and 1
        // rows. Layer 0's block holds the 5 rows' 3 non-zeros each; the
        // last two layers' outputs are left in the ping-pong pair.
        assert_eq!(stats.sub_nnz, 5 * 3);
        assert_eq!((ws.next.rows(), ws.h.rows()), (3, 1));
        assert_eq!(stats.gathered, 7);
        assert!(!stats.full_graph);
        assert_eq!(out.row(0), full.row(5));
        // Two targets at the path's end and middle, one duplicated.
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[5, 0, 5], &mut ws, &mut out)
            .unwrap();
        // 2-hop set 0..=7: 8 rows, 23 non-zeros (vertex 0 has only 2).
        assert_eq!(stats.sub_nnz, 23);
        assert_eq!((ws.next.rows(), ws.h.rows()), (5, 2));
        assert_eq!(stats.gathered, 9);
        for (i, &t) in [5usize, 0, 5].iter().enumerate() {
            assert_eq!(out.row(i), full.row(t), "row {t} diverged");
        }
    }

    #[test]
    fn brownout_rows_stay_within_the_bf16_bound() {
        let (a_hat, model, x) = setup(9);
        let full = reference(&a_hat, &model, &x);
        let targets = [3usize, 99, 400, 3, 17, 250];
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        model
            .infer_rows_planned_prec_into(&a_hat, &x, &targets, Precision::Bf16, &mut ws, &mut out)
            .unwrap();
        let mut want = DenseMatrix::zeros(targets.len(), out.cols());
        for (i, &t) in targets.iter().enumerate() {
            want.row_mut(i).copy_from_slice(full.row(t));
        }
        let used = SpmmPlan::with_width(&a_hat, 8, 1)
            .at_precision(Precision::Bf16)
            .precision();
        let err = crate::accuracy::rel_frobenius(&out, &want);
        assert!(err <= crate::accuracy_bound(used), "{used}: {err:.3e}");
        if used.is_narrow() {
            assert!(err > 0.0, "the narrow path did not run");
        }
    }

    #[test]
    fn saturated_brownout_keeps_its_own_full_plan() {
        let g = Graph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        let full = reference(&a_hat, &model, &x);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        for _ in 0..2 {
            let stats = model
                .infer_rows_planned_prec_into(
                    &a_hat,
                    &x,
                    &[2, 0],
                    Precision::Bf16,
                    &mut ws,
                    &mut out,
                )
                .unwrap();
            assert!(stats.full_graph);
        }
        let (p, plan) = ws.prec_full.as_ref().unwrap();
        assert_eq!(*p, Precision::Bf16);
        assert!(plan.matches(&a_hat));
        // The f32 path still runs its own width-1 plan, bitwise.
        model
            .infer_rows_planned_into(&a_hat, &x, &[2, 0], &mut ws, &mut out)
            .unwrap();
        assert_eq!(out.row(0), full.row(2));
        assert_eq!(out.row(1), full.row(0));
    }

    #[test]
    fn coalescing_is_bitwise_invariant() {
        let (a_hat, model, x) = setup(8);
        let mut ws = RowsWorkspace::new();
        let mut one = DenseMatrix::default();
        let mut all = DenseMatrix::default();
        let targets: Vec<usize> = vec![5, 41, 7, 120, 200, 5];
        model
            .infer_rows_planned_into(&a_hat, &x, &targets, &mut ws, &mut all)
            .unwrap();
        for (i, &t) in targets.iter().enumerate() {
            model
                .infer_rows_planned_into(&a_hat, &x, &[t], &mut ws, &mut one)
                .unwrap();
            assert_eq!(
                one.row(0),
                all.row(i),
                "target {t} changed under coalescing"
            );
        }
    }

    #[test]
    fn out_of_range_target_is_typed() {
        let (a_hat, model, x) = setup(6);
        let n = a_hat.nrows();
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        assert!(matches!(
            model.infer_rows_planned_into(&a_hat, &x, &[n], &mut ws, &mut out),
            Err(GcnError::VertexOutOfRange { vertex, vertices }) if vertex == n && vertices == n
        ));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (a_hat, model, x) = setup(6);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::filled(3, 3, 7.0);
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[], &mut ws, &mut out)
            .unwrap();
        assert_eq!(stats.gathered, 0);
        assert_eq!(out.rows(), 0);
    }
}
