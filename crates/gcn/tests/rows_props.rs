//! Layer-wise gathered inference (`infer_rows_planned_into`) against the
//! full-graph reference, over random graphs, model depths and target
//! batches.
//!
//! Every output row must be bitwise equal to full-graph planned inference
//! under an installed width-1 plan. The graphs mix skewed R-MAT degree
//! profiles with edge lists that leave vertices isolated (their expansion
//! reaches a fixed point before L hops); the batches carry duplicates and
//! are sometimes the whole vertex set, so both the block path and the
//! cached full-graph plan run.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace, RowsWorkspace};
use graph::rmat::RmatConfig;
use graph::Graph;
use kernels::SpmmPlan;
use matrix::DenseMatrix;
use proptest::prelude::*;
use sparse::Csr;

fn reference(model: &GcnModel, a_hat: &Csr, x: &DenseMatrix) -> DenseMatrix {
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(SpmmPlan::with_width(a_hat, x.cols(), 1));
    model.infer_planned_with(a_hat, x, &mut ws).unwrap().clone()
}

/// An R-MAT graph (`kind` 0), or `n` vertices whose edges touch only the
/// first `core` of them, leaving the rest isolated.
fn graph(
    (kind, scale, ef, n, core): (u8, u32, usize, usize, usize),
    pairs: &[(usize, usize)],
    seed: u64,
) -> Graph {
    if kind == 0 {
        return Graph::rmat(&RmatConfig::power_law(scale, ef), seed);
    }
    let core = core.min(n);
    let edges: Vec<(usize, usize)> = pairs.iter().map(|&(u, v)| (u % core, v % core)).collect();
    Graph::from_undirected_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rows_match_the_width1_full_graph_bitwise(
        shape in (0u8..2, 4u32..8, 2usize..8, 2usize..96, 1usize..96),
        pairs in proptest::collection::vec((0usize..96, 0usize..96), 0..160),
        dims in proptest::collection::vec(2usize..12, 2..6),
        picks in proptest::collection::vec(0usize..1 << 16, 1..24),
        (saturate, seed) in (0u8..2, 0u64..u64::MAX),
    ) {
        let g = graph(shape, &pairs, seed);
        let n = g.vertices();
        let a_hat = g.normalized_adjacency().unwrap();
        let model = GcnModel::new(&GcnConfig::from_dims(dims.clone()), seed);
        let x = g.random_features(dims[0], seed ^ 0x5eed);
        let full = reference(&model, &a_hat, &x);
        let mut targets: Vec<usize> = picks.iter().map(|p| p % n).collect();
        if saturate == 1 {
            targets.extend(0..n);
        }
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        // Twice through one workspace: the second call meets stale stamps
        // and recycled buffers.
        for _ in 0..2 {
            let stats = model
                .infer_rows_planned_into(&a_hat, &x, &targets, &mut ws, &mut out)
                .unwrap();
            prop_assert_eq!(stats.targets, targets.len());
            prop_assert!(stats.gathered <= n);
            prop_assert!(stats.sub_nnz <= a_hat.nnz());
            prop_assert!(stats.full_graph || saturate == 0);
            for (i, &t) in targets.iter().enumerate() {
                prop_assert!(out.row(i) == full.row(t), "target {} of {} diverged", t, n);
            }
        }
    }
}
