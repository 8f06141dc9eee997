//! Open-loop serving: a seeded Poisson schedule of per-vertex (and, on the
//! shallow traffic, subgraph) requests against `GcnService::planned`,
//! at a nominal and an overload rate, from one generator thread.

use crate::record::Tally;
use crate::stats::{median, quantile};
use crate::sub_seed;
use gcn::{GcnConfig, GcnModel, InferenceWorkspace, RowsWorkspace};
use graph::{Graph, OgbDataset};
use kernels::SpmmPlan;
use matrix::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serving::{GcnService, MetricsSnapshot, Rejection, Request, Response, ServiceConfig};
use sparse::Csr;
use std::time::{Duration, Instant};

/// Overload offered load, requests per second: above the capacity of
/// both traffics, so goodput reads what the service completes.
pub const OVERLOAD_RPS: f64 = 24_000.0;
/// Share of each serving slice spent at the nominal rate; the rest is
/// the overload phase.
const NOMINAL_SHARE: f64 = 0.4;
/// A response counts toward goodput only if it arrives within this limit
/// of its due time.
pub const GOODPUT_LIMIT: Duration = Duration::from_millis(100);
/// Admission queue depth. `ServiceConfig::single_tenant()` allows 1024,
/// which at the overload rate queues a request for about the whole 100 ms
/// limit, so goodput would read the edge of that cliff: on a 2-vCPU KVM
/// guest, `serve-shallow` goodput ranged from 494 to 5,982 req/s across
/// seeds. At 256 the queue wait stays well under the limit and goodput
/// reads the service's capacity.
const QUEUE_LIMIT: usize = 256;
/// `latency_ms.p99` is taken per window of about this length and
/// reported as the median over windows, so one host stall moves one
/// window rather than the whole figure.
const WINDOW: Duration = Duration::from_secs(1);
/// Requests submitted and awaited during set-up to warm the lanes.
const WARMUP_REQUESTS: usize = 32;
/// Most 1-hop neighbours a subgraph request adds to its vertex.
const SUBGRAPH_NEIGHBOURS: usize = 15;

/// One serving traffic: graph, model and request mix.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Twin the service runs on.
    pub dataset: OgbDataset,
    /// Vertex cap of the twin.
    pub cap: usize,
    /// Model dimensions, input first.
    pub dims: &'static [usize],
    /// Nominal offered load, requests per second. Well below capacity:
    /// near it, a batch that runs longer collects more requests and runs
    /// longer again, which multiplies any slowdown of the host. Far
    /// below it, latency is mostly timer and wake-up delay, which
    /// follows the host's stolen time.
    pub nominal_rps: f64,
    /// Every `n`-th request is a subgraph request (`None`: all per-vertex).
    pub subgraph_every: Option<usize>,
}

/// `serve-deep`: 3-layer model on a 4,096-vertex products twin, where
/// one vertex's 3-hop gather already covers most of the graph. A batch
/// of any size then costs about one full pass, so the two lanes serve
/// about 250 batches per second; the nominal rate keeps most requests in
/// batches of their own.
pub const DEEP: Traffic = Traffic {
    dataset: OgbDataset::Products,
    cap: 1 << 12,
    dims: &[64, 64, 64, 2],
    nominal_rps: 150.0,
    subgraph_every: None,
};

/// `serve-shallow`: 2-layer model on a 16,384-vertex arxiv twin; one
/// request in four asks for a vertex plus up to 15 of its neighbours.
pub const SHALLOW: Traffic = Traffic {
    dataset: OgbDataset::Arxiv,
    cap: 1 << 14,
    dims: &[64, 64, 2],
    nominal_rps: 2_000.0,
    subgraph_every: Some(4),
};

/// One scheduled request: when it is due (offset from the phase start)
/// and which rows it asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time relative to the start of the phase.
    pub due: Duration,
    /// Target vertices (one for a per-vertex request).
    pub targets: Vec<usize>,
    /// Whether the request is a subgraph request.
    pub subgraph: bool,
}

/// Draws one request's targets.
fn draw_request(rng: &mut StdRng, a: &Csr, subgraph: bool) -> Vec<usize> {
    let v = rng.gen_range(0..a.nrows());
    let mut targets = vec![v];
    if subgraph {
        let mut nbrs: Vec<usize> = a
            .row_cols(v)
            .iter()
            .map(|&c| c as usize)
            .filter(|&c| c != v)
            .collect();
        // Partial Fisher-Yates: a seeded choice of up to 15 neighbours.
        let take = nbrs.len().min(SUBGRAPH_NEIGHBOURS);
        for i in 0..take {
            let j = rng.gen_range(i..nbrs.len());
            nbrs.swap(i, j);
        }
        targets.extend_from_slice(&nbrs[..take]);
    }
    targets
}

/// The request schedule of one phase: Poisson arrivals at `rate` for
/// `span`, targets uniform over the vertices. Fixed by `seed`.
pub fn schedule(seed: u64, rate: f64, span: Duration, a: &Csr, t: &Traffic) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut at = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        at += -u.ln() / rate;
        if at >= span.as_secs_f64() {
            return out;
        }
        let subgraph = t
            .subgraph_every
            .is_some_and(|every| out.len() % every == every - 1);
        out.push(Arrival {
            due: Duration::from_secs_f64(at),
            targets: draw_request(&mut rng, a, subgraph),
            subgraph,
        });
    }
}

/// What the generator saw when it submitted one request.
#[derive(Debug)]
pub struct Sent<H> {
    /// How late the submit call started after the request was due.
    pub late: Duration,
    /// How long the submit call took.
    pub admit: Duration,
    /// The submit call's result.
    pub handle: H,
}

/// Drives `arrivals` open loop: each request is submitted when due,
/// whatever happened to earlier ones. Sleeps rather than spins, so the
/// generator leaves the cores to the service; lateness is recorded.
pub fn open_loop<H>(arrivals: &[Arrival], mut submit: impl FnMut(&Arrival) -> H) -> Vec<Sent<H>> {
    let t0 = Instant::now();
    let mut sent = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let due = t0 + a.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let at = Instant::now();
        let handle = submit(a);
        sent.push(Sent {
            late: at.saturating_duration_since(due),
            admit: at.elapsed(),
            handle,
        });
    }
    sent
}

/// Latency of a request timed from its due time: generator lateness plus
/// the service's submission-to-completion time.
pub fn latency_from_due(late: Duration, total: Duration) -> Duration {
    late + total
}

/// The service, its inputs and the expected rows, built by [`setup`].
pub struct Serve {
    traffic: Traffic,
    model: GcnModel,
    a: Csr,
    x: DenseMatrix,
    config: ServiceConfig,
    svc: GcnService,
}

/// Builds the twin, model and service, and warms the lanes. This is the
/// serving share of `setup_s`.
pub fn setup(seed: u64, t: Traffic) -> Serve {
    let name = t.dataset.stats().name;
    let g: Graph = t.dataset.materialize_scaled(t.cap, sub_seed(seed, name));
    let a = g.normalized_adjacency().expect("a Graph is square");
    let x = g.random_features(t.dims[0], sub_seed(seed, "serve.x"));
    let model = GcnModel::new(
        &GcnConfig::from_dims(t.dims.to_vec()),
        sub_seed(seed, "serve.w"),
    );
    let config = ServiceConfig {
        queue_limit: QUEUE_LIMIT,
        ..ServiceConfig::single_tenant()
    };
    let svc = GcnService::planned(model.clone(), a.clone(), x.clone(), config.clone())
        .expect("single-tenant config over consistent inputs is valid");
    let warm: Vec<_> = (0..WARMUP_REQUESTS)
        .map(|i| {
            svc.submit_vertex(0, i * 97 % a.nrows())
                .expect("an idle service admits")
        })
        .collect();
    for h in warm {
        h.wait().expect("warm-up requests complete");
    }
    Serve {
        traffic: t,
        model,
        a,
        x,
        config,
        svc,
    }
}

impl Serve {
    /// Model dims and graph size, for the provenance stamp.
    pub fn shape(&self) -> (Vec<usize>, usize, usize) {
        let dims = std::iter::once(self.model.input_dim())
            .chain(self.model.layers().iter().map(|l| l.out_dim()))
            .collect();
        (dims, self.a.nrows(), self.a.nnz())
    }

    /// The width-1 full-graph output: every non-degraded response must
    /// equal its rows bitwise (untimed).
    pub fn expected(&self) -> DenseMatrix {
        let mut ws = InferenceWorkspace::new();
        ws.install_plan(SpmmPlan::with_width(&self.a, self.x.cols(), 1));
        self.model
            .infer_planned_with(&self.a, &self.x, &mut ws)
            .expect("service inputs are consistent")
            .clone()
    }

    /// Stops the service, joining its lanes.
    pub fn shutdown(self) {
        self.svc.shutdown();
    }
}

/// Whether `resp` carries exactly `expected`'s rows for `targets`.
fn rows_match(resp: &Response, targets: &[usize], expected: &DenseMatrix) -> bool {
    resp.rows.rows() == targets.len()
        && targets
            .iter()
            .enumerate()
            .all(|(i, &t)| resp.rows.row(i) == expected.row(t))
}

/// What one phase (nominal or overload) observed, accumulated over every
/// slice of that phase in the run.
#[derive(Debug, Default)]
struct Phase {
    latency_ms: Vec<f64>,
    /// Latency samples per window of due time.
    window_latency_ms: Vec<Vec<f64>>,
    /// Correct responses within [`GOODPUT_LIMIT`] of due.
    good: u64,
    /// Total length of the phase's schedules.
    span: Duration,
    late_ms: Vec<f64>,
    admit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    shed_queue_full: u64,
    shed_deadline: u64,
    shed_other: u64,
    degraded: u64,
    /// Per-response batch sizes (requests in the batch that served it).
    batch_sizes: Vec<usize>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Splits `span` into equal windows of about [`WINDOW`]: `(count, length)`.
pub fn windows(span: Duration) -> (usize, Duration) {
    let count = ((span.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(1);
    (count, span / count as u32)
}

/// Runs one slice of a phase, `span` long, waits for every response (the
/// drain), and adds what it saw to `p`.
fn phase(
    s: &Serve,
    arrivals: &[Arrival],
    span: Duration,
    expected: &DenseMatrix,
    p: &mut Phase,
    tally: &mut Tally,
) {
    let svc = &s.svc;
    let sent = open_loop(arrivals, |a| {
        let req = if a.subgraph {
            Request::subgraph(0, a.targets.clone())
        } else {
            Request::vertex(0, a.targets[0])
        };
        svc.submit(req)
    });
    let (count, window) = windows(span);
    let first = p.window_latency_ms.len();
    p.window_latency_ms.resize(first + count, Vec::new());
    p.span += span;
    let refused_ms = ms(s.config.latency_budget);
    for (a, s) in arrivals.iter().zip(sent) {
        let w = first + ((a.due.as_secs_f64() / window.as_secs_f64()) as usize).min(count - 1);
        p.late_ms.push(ms(s.late));
        p.admit_us.push(s.admit.as_secs_f64() * 1e6);
        match s.handle.and_then(|h| h.wait()) {
            Ok(resp) => {
                let latency = latency_from_due(s.late, resp.total);
                let degraded = resp.degraded.is_some();
                let ok = degraded || rows_match(&resp, &a.targets, expected);
                tally.op(ok);
                p.degraded += u64::from(degraded);
                p.good += u64::from(ok && latency <= GOODPUT_LIMIT);
                p.latency_ms.push(ms(latency));
                p.window_latency_ms[w].push(ms(latency));
                p.queue_ms.push(ms(resp.queued));
                p.exec_ms.push(ms(resp.total.saturating_sub(resp.queued)));
                p.batch_sizes.push(resp.batch_size);
            }
            Err(why) => {
                // A refused request misses every latency limit.
                let missed = refused_ms.max(ms(s.late));
                p.latency_ms.push(missed);
                p.window_latency_ms[w].push(missed);
                match why {
                    Rejection::QueueFull { .. } => p.shed_queue_full += 1,
                    Rejection::DeadlineExceeded { .. } => p.shed_deadline += 1,
                    _ => p.shed_other += 1,
                }
                // Load shedding is the service's answer to overload;
                // anything else is a failed operation.
                let shed = matches!(
                    why,
                    Rejection::QueueFull { .. } | Rejection::DeadlineExceeded { .. }
                );
                tally.op(shed);
            }
        }
    }
}

/// Serving samples accumulated over the slices of one run.
pub struct Load {
    expected: DenseMatrix,
    before: MetricsSnapshot,
    nominal: Phase,
    overload: Phase,
    /// Operations attempted and failed so far.
    pub tally: Tally,
}

impl Load {
    /// Starts accumulating for `s`; computes the expected rows (untimed).
    pub fn new(s: &Serve) -> Load {
        Load {
            expected: s.expected(),
            before: s.svc.metrics(),
            nominal: Phase::default(),
            overload: Phase::default(),
            tally: Tally::default(),
        }
    }
}

/// Runs slice `slice` of the serving traffic: `budget` split
/// [`NOMINAL_SHARE`] to the nominal phase and the rest to the overload
/// phase, each with its own seeded schedule.
pub fn run(s: &Serve, load: &mut Load, seed: u64, slice: usize, budget: Duration) {
    let Load {
        expected,
        nominal,
        overload,
        tally,
        ..
    } = load;
    for (name, rate, share, p) in [
        ("nominal", s.traffic.nominal_rps, NOMINAL_SHARE, nominal),
        ("overload", OVERLOAD_RPS, 1.0 - NOMINAL_SHARE, overload),
    ] {
        let span = budget.mul_f64(share);
        let label = format!("{name}.{slice}");
        let arrivals = schedule(sub_seed(seed, &label), rate, span, &s.a, &s.traffic);
        phase(s, &arrivals, span, expected, p, tally);
    }
}

/// The end-to-end serving metrics: `latency_ms.p50` over every nominal
/// request, `latency_ms.p99` as the median over nominal windows of each
/// window's p99, and `goodput_rps` over the whole overload phase.
pub fn end_to_end(load: &Load) -> Tally {
    let mut tally = Tally::default();
    let nom = &load.nominal;
    tally.put(
        "latency_ms.p50",
        median(&nom.latency_ms).unwrap_or(f64::NAN),
        "ms",
    );
    let p99s: Vec<f64> = nom
        .window_latency_ms
        .iter()
        .filter_map(|w| quantile(w, 0.99))
        .collect();
    tally.put("latency_ms.p99", median(&p99s).unwrap_or(f64::NAN), "ms");
    let over = &load.overload;
    tally.put(
        "goodput_rps",
        over.good as f64 / over.span.as_secs_f64(),
        "1/s",
    );
    tally
}

/// The per-layer serving metrics (`serving.*`, `loadgen.*`) from the
/// accumulated responses, then `rows.*` from a replay of `replay` length.
pub fn per_layer(s: &Serve, load: &Load, seed: u64, replay: Duration) -> Tally {
    let mut tally = Tally::default();
    let after = s.svc.metrics();
    let (nom, over) = (&load.nominal, &load.overload);
    let q = |v: &[f64], q: f64| quantile(v, q).unwrap_or(f64::NAN);
    tally.put("serving.admit_us.p99", q(&nom.admit_us, 0.99), "us");
    tally.put("serving.queue_ms.p50", q(&nom.queue_ms, 0.5), "ms");
    tally.put("serving.queue_ms.p99", q(&nom.queue_ms, 0.99), "ms");
    tally.put("serving.exec_ms.p50", q(&nom.exec_ms, 0.5), "ms");
    tally.put("serving.exec_ms.p99", q(&nom.exec_ms, 0.99), "ms");
    let batches = after.batches - load.before.batches;
    let served = (nom.batch_sizes.len() + over.batch_sizes.len()) as f64;
    tally.put("serving.batches", batches as f64, "count");
    tally.put(
        "serving.batch_mean",
        served / batches.max(1) as f64,
        "requests",
    );
    let both = |f: fn(&Phase) -> u64| (f(nom) + f(over)) as f64;
    tally.put(
        "serving.shed.queue_full",
        both(|p| p.shed_queue_full),
        "count",
    );
    tally.put("serving.shed.deadline", both(|p| p.shed_deadline), "count");
    tally.put("serving.shed.other", both(|p| p.shed_other), "count");
    tally.put("serving.degraded", both(|p| p.degraded), "count");
    let late: Vec<f64> = nom.late_ms.iter().chain(&over.late_ms).copied().collect();
    tally.put("loadgen.late_ms.p99", q(&late, 0.99), "ms");
    tally.put("loadgen.late_ms.max", q(&late, 1.0), "ms");

    let sizes: Vec<usize> = nom
        .batch_sizes
        .iter()
        .chain(&over.batch_sizes)
        .copied()
        .collect();
    let batches = replay_batches(s, seed, &sizes);
    tally.absorb(replay_rows(s, &batches, &load.expected, replay));
    tally
}

/// Batch sizes drawn with the observed per-batch frequencies: a batch of
/// `b` requests delivered `b` responses, so each response counts `1/b`.
fn batch_picker(response_batch_sizes: &[usize]) -> Vec<(usize, f64)> {
    let mut weights: std::collections::BTreeMap<usize, f64> = Default::default();
    for &b in response_batch_sizes {
        *weights.entry(b.max(1)).or_default() += 1.0 / b.max(1) as f64;
    }
    let total: f64 = weights.values().sum();
    let mut acc = 0.0;
    weights
        .into_iter()
        .map(|(b, w)| {
            acc += w / total;
            (b, acc)
        })
        .collect()
}

/// Batches in the rows replay list.
const REPLAY_BATCHES: usize = 64;

/// The rows replay list: [`REPLAY_BATCHES`] batches whose sizes follow
/// the observed per-batch histogram and whose requests come from the
/// traffic's generator. Fixed by `seed` and the histogram.
fn replay_batches(s: &Serve, seed: u64, response_batch_sizes: &[usize]) -> Vec<Vec<usize>> {
    let cdf = batch_picker(if response_batch_sizes.is_empty() {
        &[1]
    } else {
        response_batch_sizes
    });
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "rows.replay"));
    let mut request = 0usize;
    (0..REPLAY_BATCHES)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            let b = cdf.iter().find(|(_, c)| u < *c).map_or(1, |(b, _)| *b);
            let mut targets = Vec::new();
            for _ in 0..b {
                let subgraph = s
                    .traffic
                    .subgraph_every
                    .is_some_and(|every| request % every == every - 1);
                request += 1;
                targets.extend(draw_request(&mut rng, &s.a, subgraph));
            }
            targets
        })
        .collect()
}

/// Replays the [`replay_batches`] list through
/// `GcnModel::infer_rows_planned_into` — the call a serving lane makes —
/// cycling it until `budget` is spent, and reads `RowsBatchStats` from the
/// first cycle. Emits `rows.*`.
fn replay_rows(
    s: &Serve,
    batches: &[Vec<usize>],
    expected: &DenseMatrix,
    budget: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let mut ws = RowsWorkspace::new();
    let mut out = DenseMatrix::default();
    let (n, nnz) = (s.a.nrows() as f64, s.a.nnz() as f64);
    let (mut call_ms, mut gathered, mut useful, mut sub_nnz) = (vec![], vec![], vec![], vec![]);
    let mut full = 0usize;
    let start = Instant::now();
    for (i, targets) in batches.iter().cycle().enumerate() {
        if i >= batches.len() && start.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let stats = s
            .model
            .infer_rows_planned_into(&s.a, &s.x, targets, &mut ws, &mut out);
        call_ms.push(ms(t.elapsed()));
        let ok = stats.is_ok()
            && targets
                .iter()
                .enumerate()
                .all(|(i, &v)| out.row(i) == expected.row(v));
        tally.op(ok);
        if let (Ok(st), true) = (stats, i < batches.len()) {
            gathered.push(st.gathered as f64 / n);
            useful.push(st.targets as f64 / st.gathered.max(1) as f64);
            sub_nnz.push(st.sub_nnz as f64 / nnz);
            full += usize::from(st.full_graph);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    tally.put(
        "rows.call_ms.p50",
        median(&call_ms).unwrap_or(f64::NAN),
        "ms",
    );
    tally.put("rows.gathered_frac", mean(&gathered), "fraction");
    tally.put("rows.useful_ratio", mean(&useful), "ratio");
    tally.put("rows.sub_nnz_frac", mean(&sub_nnz), "fraction");
    tally.put(
        "rows.full_graph_share",
        full as f64 / batches.len().max(1) as f64,
        "fraction",
    );
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::rmat::RmatConfig;

    fn small() -> Csr {
        Graph::rmat(&RmatConfig::power_law(8, 4), 5)
            .normalized_adjacency()
            .unwrap()
    }

    #[test]
    fn a_seed_fixes_the_request_schedule() {
        let a = small();
        let span = Duration::from_millis(50);
        let one = schedule(11, 4_000.0, span, &a, &SHALLOW);
        assert_eq!(one, schedule(11, 4_000.0, span, &a, &SHALLOW));
        assert_ne!(one, schedule(12, 4_000.0, span, &a, &SHALLOW));
        // Roughly rate x span arrivals, every fourth a subgraph request.
        assert!((120..=280).contains(&one.len()), "{}", one.len());
        assert!(one.iter().skip(3).step_by(4).all(|r| r.subgraph));
        assert!(one
            .iter()
            .all(|r| r.targets.len() <= 1 + SUBGRAPH_NEIGHBOURS));
        assert!(one.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn a_stalled_submit_raises_latency_from_due() {
        let arrivals: Vec<Arrival> = (0..20)
            .map(|i| Arrival {
                due: Duration::from_micros(200 * i),
                targets: vec![0],
                subgraph: false,
            })
            .collect();
        let service_time = Duration::from_micros(50);
        let run = |stall_at: Option<usize>| {
            let mut i = 0;
            open_loop(&arrivals, |_| {
                if Some(i) == stall_at {
                    std::thread::sleep(Duration::from_millis(20));
                }
                i += 1;
            })
            .iter()
            .map(|s| latency_from_due(s.late, service_time))
            .collect::<Vec<_>>()
        };
        let stalled = run(Some(5));
        // Requests after the stall were submitted late, and their latency
        // counts the wait even though the service time is unchanged.
        for (i, l) in stalled.iter().enumerate().skip(6).take(10) {
            assert!(*l >= Duration::from_millis(15), "request {i}: {l:?}");
        }
        let clean = run(None);
        let sum = |v: &[Duration]| v.iter().sum::<Duration>();
        assert!(sum(&stalled) > sum(&clean) + Duration::from_millis(100));
    }

    /// A service on a 256-vertex twin: small enough for a debug build.
    fn small_serve(seed: u64, t: Traffic) -> Serve {
        setup(seed, Traffic { cap: 256, ..t })
    }

    #[test]
    fn rows_counts_repeat_exactly_for_one_seed() {
        let counts = |seed| {
            let s = small_serve(seed, SHALLOW);
            let expected = s.expected();
            let batches = replay_batches(&s, seed, &[1, 4, 4, 4, 4, 16]);
            let t = replay_rows(&s, &batches, &expected, Duration::ZERO);
            s.shutdown();
            assert_eq!(t.failed, 0);
            t.metrics
                .into_iter()
                .filter(|m| m.name != "rows.call_ms.p50")
                .collect::<Vec<_>>()
        };
        let once = counts(3);
        assert_eq!(once.len(), 4);
        assert_eq!(once, counts(3));
    }

    #[test]
    fn served_rows_equal_the_width1_full_graph_rows() {
        let s = small_serve(5, DEEP);
        let expected = s.expected();
        let mut tally = Tally::default();
        let mut p = Phase::default();
        let a = schedule(5, 2_000.0, Duration::from_millis(100), &s.a, &s.traffic);
        phase(
            &s,
            &a,
            Duration::from_millis(100),
            &expected,
            &mut p,
            &mut tally,
        );
        s.shutdown();
        assert_eq!(tally.attempted, a.len() as u64);
        assert_eq!(tally.failed, 0);
        assert_eq!(p.latency_ms.len(), a.len());
    }

    #[test]
    fn windows_tile_the_span() {
        assert_eq!(windows(Duration::from_secs(9)), (9, Duration::from_secs(1)));
        assert_eq!(
            windows(Duration::from_millis(400)),
            (1, Duration::from_millis(400))
        );
        let (n, w) = windows(Duration::from_millis(5400));
        assert_eq!(n, 5);
        assert_eq!(w * n as u32, Duration::from_millis(5400));
    }

    #[test]
    fn batch_picker_weights_batches_not_responses() {
        // One batch of 4 and two batches of 1 deliver 4 + 2 responses.
        let cdf = batch_picker(&[4, 4, 4, 4, 1, 1]);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf[0].0, 1);
        assert!((cdf[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert!((cdf[1].1 - 1.0).abs() < 1e-12);
    }
}
