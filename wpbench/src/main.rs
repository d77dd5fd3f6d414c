//! Whole-path benchmark for pgvn: four named workloads, end-to-end
//! metrics with tracing off, and a traced run that breaks the same work
//! down by layer. See `wpbench/README.md` for what each workload is for
//! and which end-to-end metric each layer metric should move.
//!
//! ```text
//! cargo run --release --offline --manifest-path wpbench/Cargo.toml -- \
//!     --workload batch-typical --seed 2002 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Any correctness failure prints `correct:false` and exits 1; a usage
//! error exits 2 without a result line.

mod batch;
mod fuzz;
mod serve;
mod stats;
mod trace;
mod unit;

use std::collections::BTreeMap;
use std::time::Instant;
use unit::Inject;

/// The workload seed used when `--seed` is absent. Any other seed is a
/// held-out run: `--seed 7`.
pub const DEFAULT_SEED: u64 = 2002;

/// Where spans and per-run result files go (ignored by git).
pub const OUT_DIR: &str = "wpbench/out";

pub const WORKLOADS: [&str; 4] = ["batch-typical", "batch-large", "serve-open", "fuzz-campaign"];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 4] =
    [("routines_per_s", "routines/s"), ("p50_ms", "ms"), ("peak_rss_mb", "MiB"), ("setup_s", "s")];

/// Per-layer metrics, reported by every workload in the traced run. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("lang.parse_us", "us"),
    ("lang.lower_us", "us"),
    ("lang.src_mb_per_s", "MB/s"),
    ("ssa.build_us", "us"),
    ("ssa.phis", "count"),
    ("ssa.liveness_us", "us"),
    ("ir.verify_us", "us"),
    ("ir.print_us", "us"),
    ("ir.insts_in", "count"),
    ("ir.blocks_in", "count"),
    ("core.gvn_us", "us"),
    ("core.runs", "count"),
    ("core.passes", "count"),
    ("core.touches", "count"),
    ("core.insts_processed", "count"),
    ("core.hash_cons_hit_ratio", "ratio"),
    ("core.vi_cache_hit_ratio", "ratio"),
    ("transform.uce_us", "us"),
    ("transform.constprop_us", "us"),
    ("transform.redundancy_us", "us"),
    ("transform.copyfwd_us", "us"),
    ("transform.dce_us", "us"),
    ("transform.pre_us", "us"),
    ("transform.ladder_clone_us", "us"),
    ("transform.branches_folded", "count"),
    ("transform.constants_propagated", "count"),
    ("transform.redundancies_eliminated", "count"),
    ("transform.copies_forwarded", "count"),
    ("transform.dead_removed", "count"),
    ("transform.pre_inserted", "count"),
    ("transform.pre_eliminated", "count"),
    ("transform.out_insts", "count"),
    ("batch.self_us", "us"),
    ("batch.routine_p50_us", "us"),
    ("batch.routine_p99_us", "us"),
    ("batch.worker_imbalance", "ratio"),
    ("batch.merge_wait_ms", "ms"),
    ("serve.p50_ms.light", "ms"),
    ("serve.p99_ms.light", "ms"),
    ("serve.p99_ms.heavy", "ms"),
    ("serve.max_rate_rps", "req/s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.ping_rtt_us", "us"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.backlog_max", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// The oracle layer's metrics, reported (after [`PER_LAYER`]) only by
/// `fuzz-campaign`, the one workload that runs that layer.
pub const ORACLE_LAYER: [(&str, &str); 7] = [
    ("oracle.iter_p50_us", "us"),
    ("oracle.iter_p99_us", "us"),
    ("oracle.validate_us", "us"),
    ("oracle.lattice_us", "us"),
    ("oracle.resilient_us", "us"),
    ("oracle.diagnostics_us", "us"),
    ("oracle.worker_imbalance", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Inject,
}

fn usage(msg: &str) -> ! {
    eprintln!("wpbench: {msg}");
    eprintln!(
        "usage: wpbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--inject bytes|interp]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        inject: Inject::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--inject" => {
                args.inject = match value().as_str() {
                    "bytes" => Inject::Bytes,
                    "interp" => Inject::Interp,
                    _ => usage("--inject takes bytes or interp"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload is required");
    }
    args
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry makes the run fail.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("wpbench: correctness failure: {msg}");
        self.errors.push(msg);
    }
}

/// Times `f` `n` times; returns the median seconds and the last result.
pub fn median_setup<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("n >= 1"))
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = parse_args();
    let nproc = stats::nproc();
    let (capacity, spin_ms) = stats::parallel_capacity(nproc);
    let cpu = stats::cpu_model();
    let out = match args.workload.as_str() {
        "batch-typical" => batch::run(&args, batch::Shape::Typical, nproc),
        "batch-large" => batch::run(&args, batch::Shape::Large, nproc),
        "serve-open" => serve::run(&args, nproc),
        _ => fuzz::run(&args, nproc),
    };

    let mut wanted = if args.trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
    if args.trace && args.workload == "fuzz-campaign" {
        wanted.extend(ORACLE_LAYER);
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("{:<36} {:>14.4} {unit}", format!("{}.{name}", args.workload), v);
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_f64(v)));
    }
    let calibration = format!(
        "{{\"calibration\":{{\"nproc\":{nproc},\"cpu_model\":\"{}\",\"parallel_capacity\":{:.4},\"spin_ms\":{:.3},\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}}}",
        cpu.replace('"', "'"),
        capacity,
        spin_ms,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed + out.errors.len() as u64
    );
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let path = format!(
            "{OUT_DIR}/result-{}-{}-trace{}.jsonl",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let _ = std::fs::write(&path, format!("{calibration}\n{result}\n"));
    }
    // Standard output is line-buffered, so both lines are out before exit.
    println!("{calibration}");
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}
