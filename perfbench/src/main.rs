//! The repository benchmark: a full-graph K-sweep plus open-loop serving.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-deep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every run alternates five times between the full-graph K-sweep, the
//! workload's serving traffic and a fresh set-up (`setup_s` is the median
//! of six set-ups), checks every output, and prints as its last stdout line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See `README.md` for what each workload and metric is for.

mod fullgraph;
mod record;
mod serve;
mod stats;

use record::{json_num, json_obj, json_str, result_line, Tally};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Environment variables that change what the program computes or which
/// kernels it runs; a benchmark run refuses to start under any of them.
const REFUSED_ENV: [&str; 4] = [
    "FAULT_SEED",
    "FAULT_RATE",
    "FAULT_POINTS",
    "MICROKERNEL_FORCE",
];

/// Slices per run: the measured time alternates this many times between
/// the K-sweep and the serving traffic.
const SLICES: usize = 5;

/// Share of the measured time spent serving; the K-sweep gets the rest
/// (less [`REPLAY_SHARE`] when traced). The K-sweep's medians settle in
/// fewer seconds than the overload goodput does.
const SERVE_SHARE: f64 = 0.6;

/// Share of the measured time a traced run spends on the rows replay.
const REPLAY_SHARE: f64 = 0.1;

/// The workloads: each name selects a serving traffic.
const WORKLOADS: [(&str, serve::Traffic); 2] = [
    ("serve-deep", serve::DEEP),
    ("serve-shallow", serve::SHALLOW),
];

/// A seed for the input labelled `label`, derived from the run's seed.
pub fn sub_seed(seed: u64, label: &str) -> u64 {
    // FNV-1a over the label, then one splitmix64 round.
    let h = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut z = (seed ^ h).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// End-to-end metric names, in emission order.
pub fn end_to_end_names() -> Vec<String> {
    let mut names: Vec<String> = fullgraph::CELLS
        .iter()
        .map(|c| format!("{c}.pass_ms.p50"))
        .collect();
    names.extend(["latency_ms.p50", "goodput_rps", "setup_s"].map(String::from));
    names
}

/// End-to-end metrics a run reports in its `record` line but does not
/// gate on: on a host whose stolen time drifts, a tail or p99 moves by
/// 50% to 100% between quiet and busy minutes, beyond any usable
/// regression bound.
pub fn reported_names() -> Vec<String> {
    let mut names: Vec<String> = fullgraph::CELLS
        .iter()
        .map(|c| format!("{c}.pass_ms.tail"))
        .collect();
    names.push("latency_ms.p99".into());
    names
}

/// Per-layer metric names, in emission order.
pub fn per_layer_names() -> Vec<String> {
    let per_cell = [
        "kernels.spmm_ms",
        "kernels.spmm_share",
        "kernels.spmm_gbps",
        "kernels.spmm_flops",
        "kernels.spmm_bytes",
        "matrix.gemm_ms",
        "matrix.gemm_gflops",
        "matrix.gemm_flops",
        "matrix.act_ms",
        "kernels.plan_build_ms",
    ];
    let mut names: Vec<String> = fullgraph::PLANNED
        .iter()
        .flat_map(|c| per_cell.map(|m| format!("{c}.{m}")))
        .collect();
    names.extend(
        [
            "gcn.trace_overhead_pct",
            "shard.pass_ms",
            "shard.overhead_ratio",
            "shard.staged_bytes",
            "shard.halo_bytes",
            "shard.halo_fraction",
            "shard.imbalance",
            "shard.replayed_tasks",
            "serving.admit_us.p99",
            "serving.queue_ms.p50",
            "serving.queue_ms.p99",
            "serving.exec_ms.p50",
            "serving.exec_ms.p99",
            "serving.batches",
            "serving.batch_mean",
            "serving.shed.queue_full",
            "serving.shed.deadline",
            "serving.shed.other",
            "serving.degraded",
            "loadgen.late_ms.p99",
            "loadgen.late_ms.max",
            "rows.call_ms.p50",
            "rows.gathered_frac",
            "rows.useful_ratio",
            "rows.sub_nnz_frac",
            "rows.full_graph_share",
        ]
        .map(String::from),
    );
    names
}

struct Args {
    workload: &'static str,
    traffic: serve::Traffic,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let (workload, traffic) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .copied()
        .ok_or(format!("unknown workload {workload:?}"))?;
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        traffic,
        seed,
        seconds,
        trace,
    })
}

/// Builds the K-sweep and the service from the run's seed, recording the
/// wall time in `setup_s`.
fn timed_setup(args: &Args, setup_s: &mut Vec<f64>) -> (fullgraph::FullGraph, serve::Serve) {
    let t = Instant::now();
    let fg = fullgraph::setup(args.seed);
    let sv = serve::setup(args.seed, args.traffic);
    setup_s.push(t.elapsed().as_secs_f64());
    (fg, sv)
}

/// Keeps `names`' metrics, in that order; errors on any missing one.
fn select(tally: &Tally, names: &[String]) -> Result<Vec<record::Metric>, String> {
    names
        .iter()
        .map(|n| {
            tally
                .metrics
                .iter()
                .find(|m| &m.name == n)
                .cloned()
                .ok_or(format!("metric {n} was not measured"))
        })
        .collect()
}

/// The `record` line: provenance, sample counts and `failed_pct`.
fn record_line(
    args: &Args,
    fg: &fullgraph::FullGraph,
    sv: &serve::Serve,
    tally: &Tally,
    notes: &[String],
    setup_s: &[f64],
    failed_pct: f64,
) -> String {
    let kd = matrix::microkernel::KernelDispatch::get();
    let fallback = matrix::microkernel::probe_fallback().map_or("none".into(), |(a, b)| {
        format!("{} -> {}", a.name(), b.name())
    });
    let (serve_dims, serve_v, serve_nnz) = sv.shape();
    let serve_dims: Vec<String> = serve_dims.iter().map(usize::to_string).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cells = json_obj(&fullgraph::provenance(fg));
    let serve_fields = [
        ("graph", json_str(args.traffic.dataset.stats().name)),
        ("dims", format!("[{}]", serve_dims.join(", "))),
        ("vertices", serve_v.to_string()),
        ("nnz", serve_nnz.to_string()),
        ("nominal_rps", json_num(args.traffic.nominal_rps)),
        ("overload_rps", json_num(serve::OVERLOAD_RPS)),
        (
            "goodput_limit_ms",
            json_num(serve::GOODPUT_LIMIT.as_secs_f64() * 1e3),
        ),
    ];
    let setups: Vec<String> = setup_s.iter().map(|&s| json_num(s)).collect();
    let reported = record::metrics_obj(
        tally
            .metrics
            .iter()
            .filter(|m| reported_names().contains(&m.name)),
    );
    let record = json_obj(&[
        ("workload", json_str(args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("git_rev", json_str(&record::git_rev())),
        ("nproc", nproc.to_string()),
        ("pool_width", pool::global().width().to_string()),
        ("kernel_dispatch", json_str(kd.backend().name())),
        ("probe_fallback", json_str(&fallback)),
        ("fullgraph", cells),
        ("serve", json_obj(&serve_fields)),
        ("tails", format!("[{}]", notes.join(", "))),
        ("setup_s_samples", format!("[{}]", setups.join(", "))),
        ("failed_pct", json_num(failed_pct)),
        ("reported", reported),
    ]);
    json_obj(&[("record", record)])
}

fn main() -> ExitCode {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes what is measured");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };

    // The first set-up is the one measured; one more follows each slice,
    // so the set-up samples span the run like every other sample.
    let mut setup_s = Vec::with_capacity(1 + SLICES);
    let (mut fg, sv) = timed_setup(&args, &mut setup_s);
    let expected = fullgraph::expected(&fg);

    // Alternate K-sweep and serving slices so host drift during the run
    // reaches every metric alike.
    let budget = Duration::from_secs(args.seconds);
    let replay_share = if args.trace { REPLAY_SHARE } else { 0.0 };
    let sweep_share = 1.0 - SERVE_SHARE - replay_share;
    let mut sweep = fullgraph::Sweep::default();
    let mut load = serve::Load::new(&sv);
    for slice in 0..SLICES {
        let part = |share: f64| budget.mul_f64(share / SLICES as f64);
        fullgraph::run(
            &mut fg,
            &expected,
            &mut sweep,
            part(sweep_share),
            args.trace,
        );
        serve::run(&sv, &mut load, args.seed, slice, part(SERVE_SHARE));
        let (_, extra) = timed_setup(&args, &mut setup_s);
        extra.shutdown();
    }
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    if args.trace {
        tally.absorb(fullgraph::per_layer(&fg, &sweep));
        tally.absorb(serve::per_layer(
            &sv,
            &load,
            args.seed,
            budget.mul_f64(replay_share),
        ));
    } else {
        let (t, n) = fullgraph::end_to_end(&sweep);
        tally.absorb(t);
        notes = n;
        tally.absorb(serve::end_to_end(&load));
    }
    tally.absorb(sweep.tally);
    tally.absorb(load.tally);
    tally.put(
        "setup_s",
        stats::median(&setup_s).expect("at least one set-up"),
        "s",
    );

    let failed_pct = 100.0 * tally.failed as f64 / tally.attempted.max(1) as f64;
    let names = if args.trace {
        per_layer_names()
    } else {
        end_to_end_names()
    };
    let selected = select(&tally, &names);
    let finite = tally
        .metrics
        .iter()
        .all(|m| m.value.is_finite() && stats::valid_metric_name(&m.name));
    let correct = tally.failed == 0 && selected.is_ok() && finite && tally.attempted > 0;

    println!(
        "{}",
        record_line(&args, &fg, &sv, &tally, &notes, &setup_s, failed_pct)
    );

    for m in &tally.metrics {
        eprintln!("{:<40} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    eprintln!("{:<40} {:>16} %", "failed_pct", json_num(failed_pct));
    sv.shutdown();

    let out = Tally {
        metrics: selected.as_ref().cloned().unwrap_or_default(),
        attempted: tally.attempted,
        failed: tally.failed,
    };
    println!("{}", result_line(correct, &out));
    if let Err(e) = selected {
        eprintln!("perfbench: {e}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: incorrect run: {} of {} operations failed",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut all = end_to_end_names();
        all.extend(reported_names());
        all.extend(per_layer_names());
        for n in &all {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(per_layer_names().len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut expected: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        expected.extend(end_to_end_names());
        expected.extend(per_layer_names());
        assert_eq!(declared, expected);
    }

    #[test]
    fn sub_seeds_are_fixed_and_label_dependent() {
        assert_eq!(sub_seed(1, "a"), sub_seed(1, "a"));
        assert_ne!(sub_seed(1, "a"), sub_seed(1, "b"));
        assert_ne!(sub_seed(1, "a"), sub_seed(2, "a"));
    }
}
