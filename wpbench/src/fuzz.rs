//! The `fuzz-campaign` workload: `run_campaign` in `both` mode with the
//! resilient and diagnostic classes on, at `jobs = nproc`.
//!
//! The campaign generates its routines itself from the seed (the
//! generator is part of the oracle's iteration), so this is the one
//! workload whose timed path includes generation.

use crate::stats::{median, quantile};
use crate::trace::{write_spans, SelfTimes, Span, NO_PARENT};
use crate::{median_setup, Args, Outcome, OUT_DIR};
use pgvn::oracle::{
    default_relations, run_campaign, run_campaign_with, CampaignOptions, CampaignReport, FuzzMode,
    FuzzOptions,
};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Iterations per campaign call.
const ITERS: u64 = 600;

fn options(seed: u64, jobs: usize, iterations: u64) -> CampaignOptions {
    CampaignOptions {
        fuzz: FuzzOptions {
            seed,
            iterations,
            mode: FuzzMode::Both,
            shrink: None,
            max_failures: 0,
            check_resilient: true,
            check_diagnostics: true,
            ..FuzzOptions::default()
        },
        jobs,
        ..CampaignOptions::default()
    }
}

thread_local! {
    static LAST: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// One campaign call whose progress callback records, per worker
/// thread, the interval since that thread's previous compiled
/// iteration (or since the call began) as an `oracle.iteration` span.
fn timed_campaign(opts: &CampaignOptions, epoch: Instant) -> (CampaignReport, Vec<Span>, u64) {
    let spans = Mutex::new(Vec::with_capacity(opts.fuzz.iterations as usize));
    let t0 = Instant::now();
    let ns = |t: Instant| u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
    let report = run_campaign_with(opts, &|i, _| {
        let now = Instant::now();
        let start = LAST.with(|c| c.replace(Some(now))).unwrap_or(t0);
        let span = Span {
            name: "oracle.iteration",
            start: ns(start.max(t0)),
            end: ns(now),
            parent: NO_PARENT,
            routine: i as u32,
        };
        spans.lock().expect("span lock").push(span);
    });
    let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (report, spans.into_inner().expect("span lock"), wall)
}

fn check(report: &CampaignReport, out: &mut Outcome) {
    out.attempted += report.report.iterations_run;
    out.failed += report.report.failures.len() as u64;
    for f in &report.report.failures {
        out.fail(format!("oracle failure at iteration {}: {}: {}", f.iteration, f.kind, f.detail));
    }
}

pub fn run(args: &Args, nproc: usize) -> Outcome {
    let opts = options(args.seed, nproc, ITERS);
    let mut out = Outcome::default();
    // Set-up: option construction plus a short warm-up campaign
    // (thread start, first-touch of every worker's context).
    let (setup_s, _) =
        median_setup(5, || run_campaign(&options(args.seed ^ 1, nproc, 2 * nproc as u64)));
    out.set("setup_s", setup_s);
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut walls = Vec::new();
        let mut iter_ms = Vec::new();
        let mut iters = 0;
        let epoch = Instant::now();
        while walls.len() < 3 || Instant::now() < end {
            let (report, spans, wall) = timed_campaign(&opts, epoch);
            walls.push(wall as f64 / 1e9);
            iters = report.report.iterations_run;
            iter_ms.extend(spans.iter().map(|s| s.dur() as f64 / 1e6));
            check(&report, &mut out);
        }
        out.set("routines_per_s", iters as f64 / median(&walls));
        out.set("p50_ms", quantile(&iter_ms, 0.5));
        out.set("peak_rss_mb", crate::stats::peak_rss_mb());
        return out;
    }

    // Traced: interleaved untraced/traced pairs for most of the budget,
    // then the per-class probes.
    let epoch = Instant::now();
    let pair_end = epoch + Duration::from_secs_f64(args.seconds * 0.6);
    let (mut ratios, mut unattributed) = (Vec::new(), Vec::new());
    let (mut iter_us, mut imbalance) = (Vec::new(), Vec::new());
    let mut self_times = SelfTimes::default();
    let mut last_spans = Vec::new();
    let mut pair = 0usize;
    while pair < 3 || Instant::now() < pair_end {
        let mut wall_u = f64::NAN;
        let mut untraced = |out: &mut Outcome| {
            let t0 = Instant::now();
            let report = run_campaign(&opts);
            wall_u = t0.elapsed().as_secs_f64();
            check(&report, out);
        };
        if pair.is_multiple_of(2) {
            untraced(&mut out);
        }
        let (report, spans, wall) = timed_campaign(&opts, epoch);
        if !pair.is_multiple_of(2) {
            untraced(&mut out);
        }
        check(&report, &mut out);
        ratios.push(wall as f64 / 1e9 / wall_u);
        let jobs = report.worker_iterations.len().max(1);
        let mut st = SelfTimes::default();
        st.add_spans(&spans);
        self_times.add_spans(&spans);
        unattributed.push(100.0 * (1.0 - st.roots as f64 / (wall * jobs as u64).max(1) as f64));
        let max = report.worker_iterations.iter().copied().max().unwrap_or(0) as f64;
        let total: u64 = report.worker_iterations.iter().sum();
        imbalance.push(max / (total as f64 / jobs as f64).max(1.0));
        iter_us.extend(spans.iter().map(|s| s.dur() as f64 / 1e3));
        last_spans = spans;
        pair += 1;
    }
    let _ = std::fs::create_dir_all(OUT_DIR);
    let path = format!("{OUT_DIR}/trace-{}-{}.jsonl", args.workload, args.seed);
    if let Err(e) = write_spans(&path, &[last_spans]) {
        eprintln!("wpbench: could not write {path}: {e}");
    }
    out.set("oracle.iter_p50_us", quantile(&iter_us, 0.5));
    out.set("oracle.iter_p99_us", quantile(&iter_us, 0.99));
    out.set("oracle.worker_imbalance", median(&imbalance));
    // Each pair's traced ÷ untraced time, so drift between pairs cancels.
    out.set("trace.overhead_pct", 100.0 * (median(&ratios) - 1.0));
    out.set("trace.unattributed_pct", median(&unattributed));

    // Per-class probes: the same iterations with one oracle class on,
    // minus a generate+compile baseline (lattice mode with no
    // relations). Cost is worker-thread time per iteration.
    let probe = |mode: FuzzMode, lattice: bool, resilient: bool, diagnostics: bool| {
        let mut o = options(args.seed, nproc, ITERS);
        o.fuzz.mode = mode;
        o.fuzz.relations = if lattice { default_relations() } else { Vec::new() };
        o.fuzz.check_resilient = resilient;
        o.fuzz.check_diagnostics = diagnostics;
        let t0 = Instant::now();
        let report = run_campaign(&o);
        let thread_us = t0.elapsed().as_secs_f64() * 1e6 * report.worker_iterations.len() as f64;
        let per_iter = thread_us / report.report.iterations_run.max(1) as f64;
        (report, per_iter)
    };
    let mut classes = Vec::new();
    for (mode, lattice, resilient, diagnostics) in [
        (FuzzMode::Lattice, false, false, false),
        (FuzzMode::Validate, false, false, false),
        (FuzzMode::Lattice, true, false, false),
        (FuzzMode::Lattice, false, true, false),
        (FuzzMode::Lattice, false, false, true),
    ] {
        let (report, us) = probe(mode, lattice, resilient, diagnostics);
        check(&report, &mut out);
        classes.push(us);
    }
    let base = classes[0];
    out.set("oracle.validate_us", classes[1] - base);
    out.set("oracle.lattice_us", classes[2] - base);
    out.set("oracle.resilient_us", classes[3] - base);
    out.set("oracle.diagnostics_us", classes[4] - base);
    out
}
