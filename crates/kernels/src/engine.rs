//! Strategy selection for SpMM execution.
//!
//! # Automatic selection
//!
//! [`SpmmStrategy::Auto`] builds a [`SpmmPlan`] for the operands and runs
//! it, so automatic and planned execution share one decision,
//! [`SpmmPlan::resolve`]: sequential for tiny problems, the hub-splitting
//! [`SpmmStrategy::Hybrid`] when hubs defeat the NNZ-balanced partition,
//! and otherwise NNZ-balanced row ranges — the planned form of
//! [`SpmmStrategy::VertexParallel`], the paper's CPU winner (Section
//! V-A) — at every feature width `K`.
//!
//! [`SpmmStrategy::EdgeParallel`] is never auto-selected: its per-element
//! atomic adds only pay off on hardware with cheap remote atomics (PIUMA),
//! not on the CPUs this crate targets. It remains available as an explicit
//! choice for measuring exactly that gap.
//!
//! Whichever strategy is selected, the inner feature accumulation — and,
//! in a planned layer, the dense `H * W` transform — runs on the SIMD
//! micro-kernel dispatch ([`matrix::microkernel::KernelDispatch`]);
//! [`SpmmPlan`] captures that dispatch at plan time so strategy resolution
//! and backend selection happen together, once.

use crate::plan::SpmmPlan;
use matrix::{DenseMatrix, MatrixError};
use sparse::Csr;

/// Which SpMM algorithm to run, and with how many threads.
///
/// # Examples
///
/// ```
/// use kernels::SpmmStrategy;
/// use sparse::{Coo, Csr};
/// use matrix::DenseMatrix;
///
/// let mut coo = Coo::new(2, 2);
/// coo.push(0, 1, 1.0);
/// let a = Csr::from_coo(&coo);
/// let h = DenseMatrix::identity(2);
/// let out = SpmmStrategy::Sequential.run(&a, &h).unwrap();
/// assert_eq!(out.row(0), &[0.0, 1.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpmmStrategy {
    /// Single-threaded reference (Algorithm 1).
    Sequential,
    /// Vertex-parallel with dynamic load balancing across `threads` workers.
    VertexParallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// Edge-parallel (Algorithm 2) across `threads` workers.
    EdgeParallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// Degree-aware hybrid: hub rows edge-split across workers, tail rows
    /// processed as atomics-free vertex chunks.
    Hybrid {
        /// Number of worker threads.
        threads: usize,
    },
    /// Plan the operands and run the plan's resolved path (see module
    /// docs).
    Auto,
}

impl SpmmStrategy {
    /// Runs the selected algorithm: `out = a * h`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying kernel's shape/thread-count errors.
    pub fn run(self, a: &Csr, h: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        let mut out = DenseMatrix::default();
        self.run_into(a, h, &mut out)?;
        Ok(out)
    }

    /// Runs the selected algorithm into a caller-owned output matrix,
    /// reshaping it with [`DenseMatrix::resize_zeroed`]. At capacity no
    /// output-sized allocation occurs, which is what lets a model reuse
    /// ping-pong activation buffers across layers and calls.
    ///
    /// # Errors
    ///
    /// Propagates the underlying kernel's shape/thread-count errors.
    // lint:allow(L004): pure dispatch — every kernel this match arms into
    // performs its own dimension check before touching data.
    pub fn run_into(
        self,
        a: &Csr,
        h: &DenseMatrix,
        out: &mut DenseMatrix,
    ) -> Result<(), MatrixError> {
        match self {
            SpmmStrategy::Sequential => crate::spmm::spmm_sequential_into(a, h, out),
            SpmmStrategy::VertexParallel { threads } => {
                crate::spmm::spmm_vertex_parallel_into(a, h, threads, out)
            }
            SpmmStrategy::EdgeParallel { threads } => {
                crate::spmm::spmm_edge_parallel_into(a, h, threads, out)
            }
            SpmmStrategy::Hybrid { threads } => crate::hybrid::spmm_hybrid_into(a, h, threads, out),
            SpmmStrategy::Auto => SpmmPlan::new(a, h.cols()).run_into(a, h, out),
        }
    }

    /// The fixed strategy this one stands for on operands `a` with feature
    /// width `k`: [`SpmmStrategy::Auto`] becomes the
    /// [`SpmmPlan::strategy_equivalent`] of a fresh plan (an `O(n)` degree
    /// scan), every other strategy returns itself. Retry chains use this to
    /// know which rung `Auto` starts on.
    pub fn resolve(self, a: &Csr, k: usize) -> SpmmStrategy {
        match self {
            SpmmStrategy::Auto => SpmmPlan::new(a, k).strategy_equivalent(),
            s => s,
        }
    }

    /// Thread count this strategy will use (`Auto` reports the pool width
    /// it will hand to whichever kernel it selects).
    pub fn threads(self) -> usize {
        match self {
            SpmmStrategy::Sequential => 1,
            SpmmStrategy::VertexParallel { threads }
            | SpmmStrategy::EdgeParallel { threads }
            | SpmmStrategy::Hybrid { threads } => threads,
            SpmmStrategy::Auto => pool::global().width(),
        }
    }
}

/// Builds an [`SpmmPlan`] for repeated SpMM against `a` with feature
/// width `k`: degree statistics, the NNZ-balanced row partition, and the
/// execution path are all computed once, here, instead of per call.
pub fn plan(a: &Csr, k: usize) -> SpmmPlan {
    SpmmPlan::new(a, k)
}

/// [`plan`] at a narrow storage precision: probes the requested precision
/// against the captured micro-kernel dispatch at plan time, downgrading
/// along [`matrix::Precision::fallback`] if the ISA probe fails (the plan
/// records the downgrade). The planned layer then runs its SpMM feature
/// loops and packed GEMM panels on narrow storage with `f32` accumulation.
pub fn plan_with_precision(a: &Csr, k: usize, precision: matrix::Precision) -> SpmmPlan {
    SpmmPlan::with_precision(a, k, precision)
}

/// Runs `out = a * h` along a precomputed plan — the planned counterpart
/// of [`SpmmStrategy::run_into`].
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if the operands disagree
/// with the plan's shapes.
// lint:allow(L004): pure dispatch — SpmmPlan::run_into opens with
// check_plan before selecting a kernel.
pub fn run_planned_into(
    plan: &SpmmPlan,
    a: &Csr,
    h: &DenseMatrix,
    out: &mut DenseMatrix,
) -> Result<(), MatrixError> {
    plan.run_into(a, h, out)
}

impl Default for SpmmStrategy {
    fn default() -> Self {
        SpmmStrategy::VertexParallel {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl std::fmt::Display for SpmmStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmmStrategy::Sequential => write!(f, "sequential"),
            SpmmStrategy::VertexParallel { threads } => write!(f, "vertex-parallel x{threads}"),
            SpmmStrategy::EdgeParallel { threads } => write!(f, "edge-parallel x{threads}"),
            SpmmStrategy::Hybrid { threads } => write!(f, "hybrid x{threads}"),
            SpmmStrategy::Auto => write!(f, "auto"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparse::Coo;

    #[test]
    fn all_strategies_agree() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 2.0);
        coo.push(2, 0, 3.0);
        let a = Csr::from_coo(&coo);
        let h = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let expected = SpmmStrategy::Sequential.run(&a, &h).unwrap();
        for strategy in [
            SpmmStrategy::VertexParallel { threads: 3 },
            SpmmStrategy::EdgeParallel { threads: 3 },
            SpmmStrategy::Hybrid { threads: 3 },
            SpmmStrategy::Auto,
        ] {
            assert_eq!(strategy.run(&a, &h).unwrap(), expected, "{strategy}");
        }
    }

    #[test]
    fn default_uses_available_parallelism() {
        assert!(SpmmStrategy::default().threads() >= 1);
    }

    #[test]
    fn display_includes_thread_count() {
        assert_eq!(
            SpmmStrategy::EdgeParallel { threads: 8 }.to_string(),
            "edge-parallel x8"
        );
        assert_eq!(
            SpmmStrategy::VertexParallel { threads: 4 }.to_string(),
            "vertex-parallel x4"
        );
        assert_eq!(SpmmStrategy::Hybrid { threads: 2 }.to_string(), "hybrid x2");
        assert_eq!(SpmmStrategy::Auto.to_string(), "auto");
    }

    #[test]
    fn auto_resolves_sequential_for_tiny_work() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        let a = Csr::from_coo(&coo);
        assert_eq!(SpmmStrategy::Auto.resolve(&a, 8), SpmmStrategy::Sequential);
        assert_eq!(SpmmStrategy::Auto.resolve(&a, 0), SpmmStrategy::Sequential);
        // Fixed strategies stand for themselves.
        let fixed = SpmmStrategy::EdgeParallel { threads: 3 };
        assert_eq!(fixed.resolve(&a, 8), fixed);
    }

    #[test]
    fn auto_never_resolves_edge_parallel() {
        // Across a spread of shapes, Auto avoids the atomics-heavy kernel
        // (paper: it only wins with hardware-cheap remote atomics).
        let mut rng = StdRng::seed_from_u64(7);
        for n in [64usize, 512, 2048] {
            let mut coo = Coo::new(n, n);
            for _ in 0..n * 8 {
                coo.push(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
            }
            let a = Csr::from_coo(&coo);
            for k in [1usize, 16, 300, 1024] {
                let picked = SpmmStrategy::Auto.resolve(&a, k);
                assert!(
                    !matches!(
                        picked,
                        SpmmStrategy::EdgeParallel { .. } | SpmmStrategy::Auto
                    ),
                    "n={n} k={k} picked {picked}"
                );
            }
        }
    }

    #[test]
    fn auto_routes_hub_graphs_to_hybrid_when_pool_is_parallel() {
        // Star graph: cv is ~sqrt(n), far above any threshold.
        let n = 2048;
        let mut coo = Coo::new(n, n);
        for v in 1..n {
            coo.push(0, v, 1.0);
        }
        let a = Csr::from_coo(&coo);
        let picked = SpmmStrategy::Auto.resolve(&a, 64);
        if pool::global().width() > 1 {
            assert!(
                matches!(picked, SpmmStrategy::Hybrid { .. }),
                "expected hybrid for star graph, got {picked}"
            );
        } else {
            assert_eq!(picked, SpmmStrategy::Sequential);
        }
    }

    #[test]
    fn run_into_reuses_buffers_across_strategies() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 96;
        let mut coo = Coo::new(n, n);
        for _ in 0..n * 6 {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            );
        }
        let a = Csr::from_coo(&coo);
        let data = (0..n * 11).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let h = DenseMatrix::from_vec(n, 11, data).unwrap();
        let expected = SpmmStrategy::Sequential.run(&a, &h).unwrap();
        let mut buf = DenseMatrix::filled(n * 2, 13, f32::NAN);
        for strategy in [
            SpmmStrategy::VertexParallel { threads: 4 },
            SpmmStrategy::EdgeParallel { threads: 4 },
            SpmmStrategy::Hybrid { threads: 4 },
            SpmmStrategy::Auto,
        ] {
            strategy.run_into(&a, &h, &mut buf).unwrap();
            assert!(
                expected.max_abs_diff(&buf) < 1e-4,
                "{strategy} left stale or wrong values"
            );
        }
    }
}
