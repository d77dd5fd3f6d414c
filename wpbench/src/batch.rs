//! The `batch-typical` and `batch-large` workloads, and the traced
//! layer breakdown shared with `serve-open`.

use crate::stats::{median, quantile};
use crate::trace::{write_spans, SelfTimes, Span};
use crate::unit::{check_group, compose_batch, Counts};
use crate::{median_setup, Args, Outcome, OUT_DIR};
use pgvn::batch::{run_batch, BatchInput, BatchOptions, RoutineStatus};
use pgvn::core::GvnContext;
use pgvn::oracle::mix64;
use pgvn::ssa::{Liveness, SsaStyle};
use pgvn::telemetry::Metric;
use pgvn::transform::Pipeline;
use pgvn::workload::GenConfig;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// The default generator config at `jobs = nproc`.
    Typical,
    /// Big routines at `jobs = 1`.
    Large,
}

impl Shape {
    fn routines(self) -> u64 {
        match self {
            Shape::Typical => 1000,
            Shape::Large => 120,
        }
    }

    fn gen(self, seed: u64) -> GenConfig {
        match self {
            Shape::Typical => GenConfig { seed, ..GenConfig::default() },
            Shape::Large => {
                GenConfig { seed, target_stmts: 300, max_depth: 5, ..GenConfig::default() }
            }
        }
    }
}

/// One routine's source from the generator (set-up only).
pub fn gen_input(name: String, cfg: &GenConfig) -> BatchInput {
    let routine = pgvn::workload::generate_routine(&name, cfg);
    BatchInput { name, source: Ok(pgvn::lang::print_routine(&routine)) }
}

fn corpus(shape: Shape, seed: u64) -> Vec<BatchInput> {
    (0..shape.routines())
        .map(|i| gen_input(format!("r{i}"), &shape.gen(mix64(seed ^ mix64(i)))))
        .collect()
}

/// A corpus slice processed under one option set.
pub struct Group {
    pub inputs: Vec<BatchInput>,
    pub opts: BatchOptions,
}

pub fn run(args: &Args, shape: Shape, nproc: usize) -> Outcome {
    let jobs = match shape {
        Shape::Typical => nproc,
        Shape::Large => 1,
    };
    let opts = BatchOptions { jobs, ..BatchOptions::default() };
    // Set-up: generate the corpus, then one warm-up pass over a slice of
    // it so allocator and page-cache warm-up stay off the timed path.
    let (setup_s, inputs) = median_setup(5, || {
        let inputs = corpus(shape, args.seed);
        let warm = inputs.len().min(16);
        run_batch(&inputs[..warm], &opts);
        inputs
    });
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    let groups = [Group { inputs, opts }];
    let timed = if args.trace {
        traced(args, args.seconds, &groups, jobs, &mut out)
    } else {
        vec![untraced(args, &groups[0], &mut out)]
    };
    out.set("peak_rss_mb", crate::stats::peak_rss_mb());
    gate(args, &groups, &timed, &mut out);
    out
}

/// Timed passes of the engine itself, tracing off. Returns the first
/// pass's record lines; every later pass must repeat them.
fn untraced(args: &Args, g: &Group, out: &mut Outcome) -> Vec<String> {
    let end = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut walls = Vec::new();
    let mut per_routine = Vec::new();
    let mut first: Option<Vec<String>> = None;
    while walls.len() < 3 || Instant::now() < end {
        let t0 = Instant::now();
        let rep = run_batch(&g.inputs, &g.opts);
        walls.push(t0.elapsed().as_secs_f64());
        per_routine.extend(rep.records.iter().map(|r| r.wall_nanos as f64 / 1e6));
        out.attempted += rep.records.len() as u64;
        out.failed +=
            rep.records.iter().filter(|r| r.status != RoutineStatus::Optimized).count() as u64;
        let lines: Vec<String> = rep.records.into_iter().map(|r| r.json).collect();
        match &first {
            None => first = Some(lines),
            Some(f) if *f != lines => out.fail("batch records differ between identical passes"),
            Some(_) => {}
        }
    }
    out.set("routines_per_s", g.inputs.len() as f64 / median(&walls));
    out.set("p50_ms", quantile(&per_routine, 0.5));
    first.unwrap_or_default()
}

/// The correctness gate over every group (outside all timed regions).
/// `timed[i]`, when present, holds the record lines the timed path
/// produced for group `i`; they must equal a sequential engine run's.
/// Returns the summed output instruction count.
pub fn gate(args: &Args, groups: &[Group], timed: &[Vec<String>], out: &mut Outcome) -> u64 {
    let mut out_insts = 0;
    for (i, g) in groups.iter().enumerate() {
        let engine = run_batch(&g.inputs, &BatchOptions { jobs: 1, ..g.opts.clone() });
        let seen = timed.get(i).filter(|t| !t.is_empty());
        if seen.is_some_and(|t| t.iter().ne(engine.records.iter().map(|r| &r.json))) {
            out.fail("timed records differ from a sequential run_batch over the same input");
        }
        match check_group(&g.inputs, &g.opts, &engine.records, args.seed, args.inject) {
            Ok(n) => out_insts += n,
            Err(e) => out.fail(e),
        }
    }
    out.set("transform.out_insts", out_insts as f64);
    out_insts
}

/// The traced run for batch-shaped work: interleaved pairs of an
/// untraced engine pass and a traced composed pass over every group,
/// alternating which goes first, until `seconds` have elapsed. Layer
/// self times come from the traced passes; the engine passes give the
/// `batch.*` timings and the untraced side of `trace.overhead_pct`.
/// Returns the engine's record lines per group from the first pair.
pub fn traced(
    args: &Args,
    seconds: f64,
    groups: &[Group],
    jobs: usize,
    out: &mut Outcome,
) -> Vec<Vec<String>> {
    let epoch = Instant::now();
    let end = epoch + std::time::Duration::from_secs_f64(seconds);
    let mut self_times = SelfTimes::default();
    let mut counts = Counts::default();
    let mut first_counts: Option<Counts> = None;
    let (mut ratios, mut unattributed) = (Vec::new(), Vec::new());
    let (mut routine_us, mut imbalance, mut merge_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_spans: Vec<Vec<Span>> = Vec::new();
    let mut first_records: Vec<Vec<String>> = Vec::new();
    let mut pair = 0usize;
    while pair < 3 || Instant::now() < end {
        let mut wall_u = 0.0;
        let mut engine_records: Vec<Vec<String>> = Vec::new();
        let mut run_untraced = |routine_us: &mut Vec<f64>| {
            for g in groups {
                let t0 = Instant::now();
                let rep = run_batch(&g.inputs, &g.opts);
                wall_u += t0.elapsed().as_secs_f64();
                routine_us.extend(rep.records.iter().map(|r| r.wall_nanos as f64 / 1e3));
                let max = rep.worker_routines.iter().copied().max().unwrap_or(0) as f64;
                let mean = rep.records.len() as f64 / rep.worker_routines.len().max(1) as f64;
                imbalance.push(max / mean.max(1.0));
                merge_ms.push(rep.timing.value(Metric::BatchMergeWaitNanos) as f64 / 1e6);
                engine_records.push(rep.records.into_iter().map(|r| r.json).collect());
            }
        };
        if pair.is_multiple_of(2) {
            run_untraced(&mut routine_us);
        }
        let mut wall_t = 0.0;
        let mut thread_ns = 0u64;
        let mut root_ns = 0u64;
        let mut traced_records = Vec::new();
        let mut spans = Vec::new();
        let mut pass_counts = Counts::default();
        for g in groups {
            let c = compose_batch(&g.inputs, &g.opts, jobs, Some(epoch), false);
            for e in &c.errors {
                out.fail(format!("traced composition: {e}"));
            }
            wall_t += c.wall_ns as f64 / 1e9;
            thread_ns += c.wall_ns * c.threads.len() as u64;
            let mut st = SelfTimes::default();
            for t in &c.threads {
                st.add_spans(t);
                self_times.add_spans(t);
            }
            root_ns += st.roots;
            pass_counts.merge(&c.counts);
            traced_records.push(c.records);
            spans.extend(c.threads);
        }
        if !pair.is_multiple_of(2) {
            run_untraced(&mut routine_us);
        }
        if traced_records != engine_records {
            out.fail("traced composition's record bytes differ from the engine's");
        }
        if first_records.is_empty() {
            first_records = engine_records;
        }
        counts.merge(&pass_counts);
        first_counts.get_or_insert(pass_counts);
        ratios.push(wall_t / wall_u);
        unattributed.push(100.0 * (1.0 - root_ns as f64 / thread_ns.max(1) as f64));
        last_spans = spans;
        pair += 1;
    }
    let _ = std::fs::create_dir_all(OUT_DIR);
    let path = format!("{OUT_DIR}/trace-{}-{}.jsonl", args.workload, args.seed);
    if let Err(e) = write_spans(&path, &last_spans) {
        eprintln!("wpbench: could not write {path}: {e}");
    }

    let n = counts.routines.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / n;
    for (metric, span) in [
        ("lang.parse_us", "lang.parse"),
        ("lang.lower_us", "lang.lower"),
        ("ssa.build_us", "ssa.build"),
        ("ir.verify_us", "ir.verify"),
        ("core.gvn_us", "core.gvn"),
        ("transform.uce_us", "transform.uce"),
        ("transform.constprop_us", "transform.constprop"),
        ("transform.redundancy_us", "transform.redundancy"),
        ("transform.copyfwd_us", "transform.copyfwd"),
        ("transform.dce_us", "transform.dce"),
        ("transform.pre_us", "transform.pre"),
        ("transform.ladder_clone_us", "transform.ladder_clone"),
    ] {
        out.set(metric, us(self_times.get(span)));
    }
    out.set("batch.self_us", us(self_times.layer("batch")));
    let parse_s = self_times.get("lang.parse") as f64 / 1e9;
    out.set("lang.src_mb_per_s", counts.src_bytes as f64 / 1e6 / parse_s.max(1e-12));
    let c = first_counts.unwrap_or_default();
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    for (metric, v) in [
        ("core.runs", c.gvn_runs),
        ("core.passes", c.passes),
        ("core.touches", c.touches),
        ("core.insts_processed", c.insts_processed),
        ("transform.branches_folded", c.branches_folded),
        ("transform.constants_propagated", c.constants_propagated),
        ("transform.redundancies_eliminated", c.redundancies_eliminated),
        ("transform.copies_forwarded", c.copies_forwarded),
        ("transform.dead_removed", c.dead_removed),
        ("transform.pre_inserted", c.pre_inserted),
        ("transform.pre_eliminated", c.pre_eliminated),
    ] {
        out.set(metric, v as f64);
    }
    out.set("core.hash_cons_hit_ratio", ratio(c.hash_cons_hits, c.hash_cons_misses));
    out.set("core.vi_cache_hit_ratio", ratio(c.vi_cache_hits, c.vi_cache_misses));
    out.set("batch.routine_p50_us", quantile(&routine_us, 0.5));
    out.set("batch.routine_p99_us", quantile(&routine_us, 0.99));
    out.set("batch.worker_imbalance", median(&imbalance));
    out.set("batch.merge_wait_ms", median(&merge_ms));
    // Each pair's traced ÷ untraced time, so drift between pairs cancels.
    out.set("trace.overhead_pct", 100.0 * (median(&ratios) - 1.0));
    out.set("trace.unattributed_pct", median(&unattributed));
    out.attempted += counts.routines;
    probes(groups, out);
    first_records
}

/// Separate probes, excluded from the layer sum and the overhead check:
/// a standalone `Liveness::compute` on each routine's `VarFunction`
/// (already inside `build_ssa`), rendering each optimized function as
/// text (the batch record carries no IR text), and the input shape.
fn probes(groups: &[Group], out: &mut Outcome) {
    let (mut n, mut live_ns, mut print_ns) = (0u64, 0u64, 0u64);
    let (mut phis, mut insts, mut blocks) = (0u64, 0u64, 0u64);
    let mut ctx = GvnContext::new();
    for g in groups {
        for input in &g.inputs {
            let Ok(src) = &input.source else { continue };
            let Ok(routine) = pgvn::lang::parse(src) else { continue };
            let vf = pgvn::lang::lower(&routine);
            let t0 = Instant::now();
            let live = Liveness::compute(&vf);
            live_ns += t0.elapsed().as_nanos() as u64;
            drop(live);
            let Ok(mut func) = pgvn::ssa::build_ssa(&vf, SsaStyle::Pruned) else { continue };
            insts += func.num_insts() as u64;
            blocks += func.num_blocks() as u64;
            phis += func
                .blocks()
                .flat_map(|b| func.block_insts(b).to_vec())
                .filter(|&i| func.kind(i).is_phi())
                .count() as u64;
            let mut pipeline = Pipeline::new(g.opts.cfg.clone()).rounds(g.opts.rounds);
            if let Some(spec) = &g.opts.passes {
                pipeline = pipeline.passes(spec.clone());
            }
            pipeline.optimize_resilient_with(&mut ctx, &mut func);
            let t0 = Instant::now();
            let text = func.to_string();
            print_ns += t0.elapsed().as_nanos() as u64;
            std::hint::black_box(text);
            n += 1;
        }
    }
    let per = |ns: u64| ns as f64 / 1e3 / n.max(1) as f64;
    out.set("ssa.liveness_us", per(live_ns));
    out.set("ir.print_us", per(print_ns));
    out.set("ssa.phis", phis as f64);
    out.set("ir.insts_in", insts as f64);
    out.set("ir.blocks_in", blocks as f64);
}
