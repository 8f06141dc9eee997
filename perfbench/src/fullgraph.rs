//! The full-graph K-sweep: warm full-graph passes, one closed-loop caller,
//! round-robin over four cells so host drift hits every cell alike.

use crate::record::Tally;
use crate::stats::{median, tail};
use crate::sub_seed;
use analytic::workload::GcnWorkload;
use analytic::ElementSizes;
use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use graph::{Graph, OgbDataset};
use kernels::SpmmPlan;
use matrix::microkernel::matmul_packed_with;
use matrix::DenseMatrix;
use platform_models::breakdown::Phase;
use platform_models::xeon::XeonModel;
use shard::{PartitionKind, ShardedGcn};
use sparse::Csr;
use std::time::{Duration, Instant};

/// Vertex cap of the products twin (2^14).
const PRODUCTS_CAP: usize = 1 << 14;
/// Vertex cap of the ddi twin (ddi has 4,267 vertices; the twin 4,096).
const DDI_CAP: usize = 1 << 12;
/// Shards of the sharded cell.
const SHARDS: usize = 2;
/// A planned pass agrees with `GcnModel::infer_reference` when
/// `max |planned - reference| <= REF_TOL * (1 + max |reference|)`. The
/// planned kernels reassociate f32 sums (parallel partitions, packed
/// GEMM), so agreement is to rounding, not bitwise.
pub const REF_TOL: f32 = 1e-4;

/// The three single-node planned cells, in round-robin order; the sharded
/// cell runs after them on the `products-k64` inputs.
pub const PLANNED: [&str; 3] = ["products-k256", "products-k64", "ddi-k64"];
/// The sharded cell.
pub const SHARDED: &str = "products-k64-shard2";
/// All four cells, in round-robin order.
pub const CELLS: [&str; 4] = ["products-k256", "products-k64", "ddi-k64", SHARDED];

/// One planned cell's inputs and warm workspace.
struct Cell {
    name: &'static str,
    graph: usize,
    config: GcnConfig,
    model: GcnModel,
    x: DenseMatrix,
    ws: InferenceWorkspace,
}

/// Everything the K-sweep measures, built by [`setup`].
pub struct FullGraph {
    /// `(graph, normalized adjacency)` for the products and ddi twins.
    graphs: Vec<(Graph, Csr)>,
    cells: Vec<Cell>,
    sharded: ShardedGcn,
}

/// Builds the twins, models and plans, and warms every cell with one pass.
/// This is the K-sweep's share of `setup_s`.
pub fn setup(seed: u64) -> FullGraph {
    setup_capped(seed, PRODUCTS_CAP, DDI_CAP)
}

/// [`setup`] with explicit twin vertex caps (tests use small twins).
fn setup_capped(seed: u64, products_cap: usize, ddi_cap: usize) -> FullGraph {
    let twin = |d: OgbDataset, cap: usize| {
        let g = d.materialize_scaled(cap, sub_seed(seed, d.stats().name));
        let a = g.normalized_adjacency().expect("a Graph is square");
        (g, a)
    };
    let graphs = vec![
        twin(OgbDataset::Products, products_cap),
        twin(OgbDataset::Ddi, ddi_cap),
    ];
    let products_out = OgbDataset::Products.stats().output_dim;
    let ddi_out = OgbDataset::Ddi.stats().output_dim;
    let specs = [
        (
            PLANNED[0],
            0,
            GcnConfig::paper_model(256, 256, products_out),
        ),
        (PLANNED[1], 0, GcnConfig::paper_model(64, 64, products_out)),
        (PLANNED[2], 1, GcnConfig::paper_model(64, 64, ddi_out)),
    ];
    let mut cells: Vec<Cell> = specs
        .into_iter()
        .map(|(name, graph, config)| {
            let x = graphs[graph]
                .0
                .random_features(config.input_dim(), sub_seed(seed, &format!("{name}.x")));
            let model = GcnModel::new(&config, sub_seed(seed, &format!("{name}.w")));
            Cell {
                name,
                graph,
                config,
                model,
                x,
                ws: InferenceWorkspace::new(),
            }
        })
        .collect();
    for c in &mut cells {
        c.model
            .infer_planned_with(&graphs[c.graph].1, &c.x, &mut c.ws)
            .expect("cell inputs are consistent");
    }
    let mut sharded = ShardedGcn::new(&graphs[0].1, SHARDS, PartitionKind::Rows1D)
        .expect("the products twin is square and non-empty");
    sharded
        .infer(&cells[1].model, &cells[1].x)
        .expect("cell inputs are consistent");
    FullGraph {
        graphs,
        cells,
        sharded,
    }
}

/// Expected outputs: the reference output of each planned cell and the
/// width-1 planned output the sharded cell must equal bitwise.
pub struct Expected {
    reference: Vec<DenseMatrix>,
    width1: DenseMatrix,
}

/// Computes [`Expected`] (untimed).
pub fn expected(fg: &FullGraph) -> Expected {
    let reference = fg
        .cells
        .iter()
        .map(|c| {
            c.model
                .infer_reference(&fg.graphs[c.graph].0, &c.x)
                .expect("cell inputs are consistent")
        })
        .collect();
    let c = &fg.cells[1];
    let a = &fg.graphs[c.graph].1;
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(SpmmPlan::with_width(a, c.x.cols(), 1));
    let width1 = c
        .model
        .infer_planned_with(a, &c.x, &mut ws)
        .expect("cell inputs are consistent")
        .clone();
    Expected { reference, width1 }
}

/// Whether `got` agrees with `reference` within [`REF_TOL`].
pub fn agrees(got: &DenseMatrix, reference: &DenseMatrix) -> bool {
    let scale = reference
        .as_slice()
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()));
    got.shape() == reference.shape()
        && got.all_finite()
        && got.max_abs_diff(reference) <= REF_TOL * (1.0 + scale)
}

/// Provenance of the K-sweep: per cell, the strategy its plan resolved,
/// the model dims and the graph size.
pub fn provenance(fg: &FullGraph) -> Vec<(String, String)> {
    use crate::record::{json_num, json_obj, json_str};
    let mut out = Vec::new();
    for c in &fg.cells {
        let a = &fg.graphs[c.graph].1;
        let exec =
            c.ws.plan()
                .map_or("none".into(), |p| format!("{:?}", p.exec()));
        let dims: Vec<String> = c.config.dims.iter().map(usize::to_string).collect();
        let fields = [
            ("strategy", json_str(&exec)),
            ("dims", format!("[{}]", dims.join(", "))),
            ("vertices", a.nrows().to_string()),
            ("nnz", a.nnz().to_string()),
        ];
        out.push((c.name.to_string(), json_obj(&fields)));
    }
    let r = fg.sharded.report(&fg.cells[1].model);
    let fields = [
        ("strategy", json_str("per-shard width-1 plans")),
        ("shards", r.workers.to_string()),
        ("partition", json_str(&format!("{:?}", r.kind))),
        ("imbalance", json_num(r.imbalance)),
    ];
    out.push((SHARDED.to_string(), json_obj(&fields)));
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one pass of cell `i` (indexing [`CELLS`]), checks its output
/// untimed, and returns its wall time.
fn pass(fg: &mut FullGraph, exp: &Expected, i: usize, tally: &mut Tally) -> Duration {
    if let Some(c) = fg.cells.get_mut(i) {
        let a = &fg.graphs[c.graph].1;
        let t = Instant::now();
        let out = c.model.infer_planned_with(a, &c.x, &mut c.ws);
        let dt = t.elapsed();
        tally.op(out.is_ok_and(|o| agrees(o, &exp.reference[i])));
        dt
    } else {
        let c = &fg.cells[1];
        let t = Instant::now();
        let out = fg.sharded.infer(&c.model, &c.x);
        let dt = t.elapsed();
        tally.op(out.is_ok_and(|o| o == exp.width1));
        dt
    }
}

/// K-sweep samples accumulated over the slices of one run.
pub struct Sweep {
    /// Wall time of every untraced pass, per cell of [`CELLS`].
    pass_ms: Vec<Vec<f64>>,
    /// Spans of every traced re-drive, per planned cell.
    spans: Vec<Vec<Spans>>,
    /// Operations attempted and failed so far.
    pub tally: Tally,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            pass_ms: vec![Vec::new(); CELLS.len()],
            spans: vec![Vec::new(); PLANNED.len()],
            tally: Tally::default(),
        }
    }
}

/// Runs round-robin rounds until `budget` is spent, at least one. The
/// last round always completes, so every cell keeps the same sample count.
/// With `traced`, each planned pass is followed by a traced re-drive whose
/// output must be bitwise equal to it.
pub fn run(fg: &mut FullGraph, exp: &Expected, sweep: &mut Sweep, budget: Duration, traced: bool) {
    let mut bufs: [DenseMatrix; 3] = Default::default();
    let start = Instant::now();
    loop {
        for i in 0..CELLS.len() {
            sweep.pass_ms[i].push(ms(pass(fg, exp, i, &mut sweep.tally)));
            let Some(c) = fg.cells.get(i).filter(|_| traced) else {
                continue;
            };
            let plan = c.ws.plan().expect("setup warmed every cell");
            let s = traced_pass(&c.model, &fg.graphs[c.graph].1, &c.x, plan, &mut bufs);
            // The spans time the same program only if the output is
            // bitwise the untraced pass's.
            sweep.tally.op(s.is_ok() && bufs[0] == *c.ws.output());
            sweep.spans[i].push(s.unwrap_or_default());
        }
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// `<cell>.pass_ms.p50` and `<cell>.pass_ms.tail` for every cell, plus a
/// JSON note per cell with its sample count and tail percentile.
pub fn end_to_end(sweep: &Sweep) -> (Tally, Vec<String>) {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    for (name, s) in CELLS.iter().zip(&sweep.pass_ms) {
        tally.put(
            format!("{name}.pass_ms.p50"),
            median(s).unwrap_or(f64::NAN),
            "ms",
        );
        let (pct, v) = tail(s).unwrap_or((f64::NAN, f64::NAN));
        tally.put(format!("{name}.pass_ms.tail"), v, "ms");
        notes.push(format!(
            "{{\"cell\": \"{name}\", \"samples\": {}, \"tail_percentile\": {pct}}}",
            s.len()
        ));
    }
    (tally, notes)
}

/// Time spent in each layer kind during one traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    spmm: Duration,
    gemm: Duration,
    act: Duration,
    total: Duration,
}

/// Re-drives one planned pass through the same public calls, in the same
/// order, as `kernels::fused::gcn_layer_planned_into` under
/// `GcnModel::infer_planned_with`, with a span around each call. Writes
/// the output into `bufs[0]`.
fn traced_pass(
    model: &GcnModel,
    a: &Csr,
    x: &DenseMatrix,
    plan: &SpmmPlan,
    bufs: &mut [DenseMatrix; 3],
) -> Result<Spans, matrix::MatrixError> {
    let mut s = Spans::default();
    let start = Instant::now();
    let [h, next, mid] = bufs;
    h.copy_from(x);
    let threads = pool::global().width();
    let kd = plan.dense_kernel();
    for layer in model.layers() {
        let w = &layer.weight;
        if w.rows() <= w.cols() {
            let t = Instant::now();
            plan.run_into(a, h, mid)?;
            s.spmm += t.elapsed();
            let t = Instant::now();
            matmul_packed_with(kd, mid, w, threads, next)?;
            s.gemm += t.elapsed();
        } else {
            let t = Instant::now();
            matmul_packed_with(kd, h, w, threads, mid)?;
            s.gemm += t.elapsed();
            let t = Instant::now();
            plan.run_into(a, mid, next)?;
            s.spmm += t.elapsed();
        }
        let t = Instant::now();
        if let Some(b) = &layer.bias {
            next.add_row_bias(b)?;
        }
        next.apply_activation(layer.activation);
        s.act += t.elapsed();
        std::mem::swap(h, next);
    }
    s.total = start.elapsed();
    Ok(s)
}

/// Computed work of one pass of `config` over `a`: SpMM flops and bytes
/// (Eq. 1–4 of the paper at each layer's aggregation width) and dense
/// GEMM flops. Counts, not measurements.
pub fn computed_work(a: &Csr, config: &GcnConfig) -> (f64, f64, f64) {
    let w = GcnWorkload::new(a.nrows(), a.nnz(), &config.dims);
    let sizes = ElementSizes::default();
    let spmm_flops = w.layers().iter().map(|l| l.spmm(sizes).flops).sum();
    let spmm_bytes = w.layers().iter().map(|l| l.spmm(sizes).total_bytes()).sum();
    (spmm_flops, spmm_bytes, w.total_dense_flops())
}

/// The per-layer K-sweep metrics from a traced [`run`]: `kernels.*`,
/// `matrix.*`, `shard.*` and `gcn.trace_overhead_pct`. Times plan builds
/// and prints the Fig. 3 cross-check.
pub fn per_layer(fg: &FullGraph, sweep: &Sweep) -> Tally {
    let mut tally = Tally::default();
    let (untraced, spans) = (&sweep.pass_ms, &sweep.spans);
    let mut traced_total = 0.0;
    let mut untraced_total = 0.0;
    let xeon = XeonModel::default();
    println!("# Fig. 3 cross-check: measured shares on this host beside platform_models::xeon,");
    println!("# a model of the paper's dual-socket Xeon Platinum 8380 (not of this host).");
    for (i, c) in fg.cells.iter().enumerate() {
        let a = &fg.graphs[c.graph].1;
        let pick =
            |f: fn(&Spans) -> Duration| -> Vec<f64> { spans[i].iter().map(|s| ms(f(s))).collect() };
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let spmm_ms = med(&pick(|s| s.spmm));
        let gemm_ms = med(&pick(|s| s.gemm));
        let act_ms = med(&pick(|s| s.act));
        let total_ms = med(&pick(|s| s.total));
        let share = |f: fn(&Spans) -> Duration| -> f64 {
            let v: Vec<f64> = spans[i]
                .iter()
                .map(|s| f(s).as_secs_f64() / s.total.as_secs_f64())
                .collect();
            med(&v)
        };
        let (spmm_share, gemm_share, act_share) =
            (share(|s| s.spmm), share(|s| s.gemm), share(|s| s.act));
        traced_total += total_ms;
        untraced_total += med(&untraced[i]);
        let (spmm_flops, spmm_bytes, gemm_flops) = computed_work(a, &c.config);
        let name = c.name;
        tally.put(format!("{name}.kernels.spmm_ms"), spmm_ms, "ms");
        tally.put(format!("{name}.kernels.spmm_share"), spmm_share, "fraction");
        tally.put(
            format!("{name}.kernels.spmm_gbps"),
            spmm_bytes / (spmm_ms * 1e6),
            "GB/s",
        );
        tally.put(format!("{name}.kernels.spmm_flops"), spmm_flops, "count");
        tally.put(format!("{name}.kernels.spmm_bytes"), spmm_bytes, "bytes");
        tally.put(format!("{name}.matrix.gemm_ms"), gemm_ms, "ms");
        tally.put(
            format!("{name}.matrix.gemm_gflops"),
            gemm_flops / (gemm_ms * 1e6),
            "GFLOP/s",
        );
        tally.put(format!("{name}.matrix.gemm_flops"), gemm_flops, "count");
        tally.put(format!("{name}.matrix.act_ms"), act_ms, "ms");

        let predicted = xeon.gcn_times_full(&GcnWorkload::new(a.nrows(), a.nnz(), &c.config.dims));
        println!(
            "fig3 {name:<14} measured spmm {spmm_share:.3} gemm {gemm_share:.3} act {act_share:.3} \
             | xeon-8380 model spmm {:.3} dense {:.3} glue {:.3}",
            predicted.fraction(Phase::Spmm),
            predicted.fraction(Phase::Dense),
            predicted.fraction(Phase::Glue),
        );

        let builds: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let plan = SpmmPlan::new(a, c.x.cols());
                let dt = ms(t.elapsed());
                std::hint::black_box(plan);
                dt
            })
            .collect();
        tally.put(format!("{name}.kernels.plan_build_ms"), med(&builds), "ms");
    }
    tally.put(
        "gcn.trace_overhead_pct",
        100.0 * (traced_total - untraced_total) / untraced_total,
        "%",
    );

    let shard_p50 = median(&untraced[PLANNED.len()]).unwrap_or(f64::NAN);
    let planned_k64 = median(&untraced[1]).unwrap_or(f64::NAN);
    let r = fg.sharded.report(&fg.cells[1].model);
    tally.put("shard.pass_ms", shard_p50, "ms");
    tally.put("shard.overhead_ratio", shard_p50 / planned_k64, "ratio");
    tally.put("shard.staged_bytes", r.staged_bytes as f64, "bytes");
    tally.put("shard.halo_bytes", r.halo_bytes as f64, "bytes");
    tally.put("shard.halo_fraction", r.halo_fraction, "fraction");
    tally.put("shard.imbalance", r.imbalance, "ratio");
    tally.put("shard.replayed_tasks", r.replayed_tasks as f64, "count");
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The K-sweep on 256-vertex twins: small enough for a debug build.
    fn small(seed: u64) -> FullGraph {
        setup_capped(seed, 256, 256)
    }

    #[test]
    fn computed_counts_repeat_exactly_for_one_seed() {
        let counts = |seed| {
            let mut fg = small(seed);
            let exp = expected(&fg);
            let mut tally = Tally::default();
            pass(&mut fg, &exp, CELLS.len() - 1, &mut tally);
            assert_eq!(tally.failed, 0);
            let r = fg.sharded.report(&fg.cells[1].model);
            let work: Vec<_> = fg
                .cells
                .iter()
                .map(|c| computed_work(&fg.graphs[c.graph].1, &c.config))
                .collect();
            (work, r.staged_bytes, r.halo_bytes, r.replayed_tasks)
        };
        let once = counts(7);
        assert!(once.1 > 0 && once.2 > 0);
        assert_eq!(once, counts(7));
        assert_ne!(once.0, counts(8).0);
    }

    #[test]
    fn computed_spmm_flops_follow_nnz_and_k() {
        let fg = small(1);
        let c = &fg.cells[0];
        let a = &fg.graphs[c.graph].1;
        let (flops, bytes, gemm) = computed_work(a, &c.config);
        // paper_model(256, 256, 47) aggregates at min(k_in, k_out).
        assert_eq!(flops, 2.0 * a.nnz() as f64 * (256 + 256 + 47) as f64);
        assert!(bytes > flops);
        let v = a.nrows() as f64;
        assert_eq!(gemm, 2.0 * v * 256.0 * (256.0 + 256.0 + 47.0));
    }

    #[test]
    fn every_cell_passes_its_check() {
        let mut fg = small(2);
        let exp = expected(&fg);
        let mut sweep = Sweep::default();
        run(&mut fg, &exp, &mut sweep, Duration::from_nanos(1), true);
        // One round: every cell's pass plus each planned cell's re-drive.
        let ops = (CELLS.len() + PLANNED.len()) as u64;
        assert_eq!((sweep.tally.attempted, sweep.tally.failed), (ops, 0));
        let (tally, notes) = end_to_end(&sweep);
        assert_eq!(tally.metrics.len(), 2 * CELLS.len());
        assert_eq!(notes.len(), CELLS.len());
    }

    #[test]
    fn traced_redrive_is_bitwise_equal_to_the_planned_pass() {
        let fg = small(3);
        for c in &fg.cells {
            let mut bufs: [DenseMatrix; 3] = Default::default();
            let plan = c.ws.plan().expect("setup warmed the cell");
            traced_pass(&c.model, &fg.graphs[c.graph].1, &c.x, plan, &mut bufs).unwrap();
            assert_eq!(&bufs[0], c.ws.output(), "{}", c.name);
        }
    }

    #[test]
    fn a_wrong_output_fails_the_check() {
        let mut fg = small(4);
        let mut exp = expected(&fg);
        exp.reference[0].as_mut_slice()[0] += 1.0;
        exp.width1.as_mut_slice()[0] += 1.0;
        let mut sweep = Sweep::default();
        run(&mut fg, &exp, &mut sweep, Duration::from_nanos(1), false);
        assert_eq!(sweep.tally.failed, 2);
    }
}
