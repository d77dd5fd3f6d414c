//! The whole-path unit of work, composed from pgvn's public calls.
//!
//! [`compose_batch`] mirrors `pgvn::batch::run_batch` with the default
//! resilient pipeline committing on its first rung: the same sharding
//! (scoped workers, an atomic cursor, one warmed `GvnContext` and one
//! metrics registry per worker, input-order merge), and per routine the
//! same calls `process_one` and the ladder make — parse, lower,
//! `build_ssa`, the input `verify`, both ladder clones, then per pass
//! the GVN run and its rewrites over one `AnalysisManager`, the output
//! `verify`, and the record JSON. Because it makes the same calls it
//! produces the same record bytes, which [`check_group`] asserts; the
//! traced run wraps each call in a span.

use crate::trace::{span, Span, Tracer};
use pgvn::batch::{warm_context, BatchInput, BatchOptions, RoutineRecord, RoutineStatus};
use pgvn::core::{try_run_traced_in_context, GvnConfig, GvnContext};
use pgvn::ir::{verify, Function};
use pgvn::oracle::{mix64, validate_optimized, ValidatorOptions};
use pgvn::ssa::{build_ssa, SsaStyle};
use pgvn::telemetry::json::JsonWriter;
use pgvn::telemetry::{Metric, MetricsRegistry, Telemetry};
use pgvn::transform::{
    eliminate_dead_code, eliminate_partial_redundancies, eliminate_redundancies_with,
    eliminate_unreachable, forward_copies, propagate_constants, AnalysisManager, OptimizeReport,
    PassId, Pipeline, ResilienceReport, ResilientOutcome, RungId,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Exact work counts gathered from the values the layers return.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub routines: u64,
    pub src_bytes: u64,
    pub gvn_runs: u64,
    pub passes: u64,
    pub touches: u64,
    pub insts_processed: u64,
    pub hash_cons_hits: u64,
    pub hash_cons_misses: u64,
    pub vi_cache_hits: u64,
    pub vi_cache_misses: u64,
    pub branches_folded: u64,
    pub constants_propagated: u64,
    pub redundancies_eliminated: u64,
    pub copies_forwarded: u64,
    pub dead_removed: u64,
    pub pre_inserted: u64,
    pub pre_eliminated: u64,
}

impl Counts {
    pub fn merge(&mut self, o: &Counts) {
        self.routines += o.routines;
        self.src_bytes += o.src_bytes;
        self.gvn_runs += o.gvn_runs;
        self.passes += o.passes;
        self.touches += o.touches;
        self.insts_processed += o.insts_processed;
        self.hash_cons_hits += o.hash_cons_hits;
        self.hash_cons_misses += o.hash_cons_misses;
        self.vi_cache_hits += o.vi_cache_hits;
        self.vi_cache_misses += o.vi_cache_misses;
        self.branches_folded += o.branches_folded;
        self.constants_propagated += o.constants_propagated;
        self.redundancies_eliminated += o.redundancies_eliminated;
        self.copies_forwarded += o.copies_forwarded;
        self.dead_removed += o.dead_removed;
        self.pre_inserted += o.pre_inserted;
        self.pre_eliminated += o.pre_eliminated;
    }
}

/// One routine through the whole path. Returns the record line and the
/// optimized function. `Err` means the composition left
/// the path the batch engine takes for a healthy routine (an input
/// error or a rung failure) — a benchmark failure, never expected on
/// generated input.
pub fn compose_one(
    ctx: &mut GvnContext,
    reg: &MetricsRegistry,
    input: &BatchInput,
    opts: &BatchOptions,
    mut tr: Option<&mut Tracer>,
    counts: &mut Counts,
) -> Result<(String, Function), String> {
    let src = input.source.as_ref().map_err(|e| format!("{}: unreadable: {e}", input.name))?;
    let mut w = JsonWriter::object();
    w.field_str("event", "routine").field_str("name", &input.name);
    let routine = span(&mut tr, "lang.parse", || pgvn::lang::parse(src))
        .map_err(|e| format!("{}: parse: {e}", input.name))?;
    let vf = span(&mut tr, "lang.lower", || pgvn::lang::lower(&routine));
    let func = span(&mut tr, "ssa.build", || build_ssa(&vf, SsaStyle::Pruned))
        .map_err(|e| format!("{}: build_ssa: {e}", input.name))?;
    counts.routines += 1;
    counts.src_bytes += src.len() as u64;

    let before = reg.snapshot();
    let mut tel = Telemetry::off();
    tel.attach_metrics(reg);
    span(&mut tr, "ir.verify", || verify(&func))
        .map_err(|e| format!("{}: input rejected: {e}", input.name))?;
    // The ladder's two clones: the pristine copy, and the first rung's
    // candidate taken from it.
    let mut candidate = span(&mut tr, "transform.ladder_clone", || {
        let pristine = func.clone();
        pristine.clone()
    });
    drop(func);

    let mut cfg_pipeline = Pipeline::new(opts.cfg.clone()).rounds(opts.rounds);
    if let Some(spec) = &opts.passes {
        cfg_pipeline = cfg_pipeline.passes(spec.clone());
    }
    let spec = cfg_pipeline.spec();
    // The ladder's rung list; a healthy routine commits on the first.
    let rungs = cfg_pipeline.ladder();
    let cfg: &GvnConfig = &rungs[0].1;
    let mut report = OptimizeReport::default();
    let mut analyses = AnalysisManager::new();
    let t0 = Instant::now();
    for &pass in spec.passes() {
        tel.count(Metric::PassRuns, 1);
        match pass {
            PassId::Gvn | PassId::Pre => {
                let g0 = Instant::now();
                let results = span(&mut tr, "core.gvn", || {
                    try_run_traced_in_context(ctx, &candidate, cfg, &mut tel)
                })
                .map_err(|e| format!("{}: full rung failed: {e}", input.name))?;
                report.gvn_nanos += g0.elapsed().as_nanos();
                report.gvn_stats = results.stats;
                let s = &results.stats;
                counts.gvn_runs += 1;
                counts.passes += u64::from(s.passes);
                counts.touches += s.touches;
                counts.insts_processed += s.insts_processed;
                counts.hash_cons_hits += s.hash_cons_hits;
                counts.hash_cons_misses += s.hash_cons_misses;
                counts.vi_cache_hits += s.vi_cache_hits;
                counts.vi_cache_misses += s.vi_cache_misses;
                if pass == PassId::Pre {
                    let stats = span(&mut tr, "transform.pre", || {
                        let an = analyses.cfg(&candidate);
                        eliminate_partial_redundancies(
                            &mut candidate,
                            &results,
                            &an.rpo,
                            &an.domtree,
                        )
                    });
                    report.pre_inserted += stats.inserted;
                    report.pre_eliminated += stats.eliminated;
                    tel.count(Metric::PreInserted, stats.inserted as u64);
                    tel.count(Metric::PreEliminated, stats.eliminated as u64);
                    continue;
                }
                let uce = span(&mut tr, "transform.uce", || {
                    eliminate_unreachable(&mut candidate, &results)
                });
                report.uce.branches_folded += uce.branches_folded;
                report.uce.blocks_removed += uce.blocks_removed;
                report.uce.phis_simplified += uce.phis_simplified;
                if uce.branches_folded > 0 || uce.blocks_removed > 0 {
                    analyses.invalidate();
                }
                report.constants_propagated += span(&mut tr, "transform.constprop", || {
                    propagate_constants(&mut candidate, &results)
                });
                report.redundancies_eliminated += span(&mut tr, "transform.redundancy", || {
                    let an = analyses.cfg(&candidate);
                    eliminate_redundancies_with(&mut candidate, &results, &an.domtree)
                });
                report.copies_forwarded +=
                    span(&mut tr, "transform.copyfwd", || forward_copies(&mut candidate));
                report.dead_removed +=
                    span(&mut tr, "transform.dce", || eliminate_dead_code(&mut candidate));
            }
            PassId::Cleanup => {
                let forwarded =
                    span(&mut tr, "transform.copyfwd", || forward_copies(&mut candidate));
                let removed =
                    span(&mut tr, "transform.dce", || eliminate_dead_code(&mut candidate));
                report.copies_forwarded += forwarded;
                report.cleanup_removed += removed;
                tel.count(Metric::CleanupRemoved, removed as u64);
            }
        }
    }
    let (hits, misses) = analyses.take_cache_counts();
    tel.count(Metric::AnalysisCacheHits, hits);
    tel.count(Metric::AnalysisCacheMisses, misses);
    span(&mut tr, "ir.verify", || verify(&candidate))
        .map_err(|e| format!("{}: output rejected: {e}", input.name))?;
    report.total_nanos = t0.elapsed().as_nanos();
    report.gvn_stats.ladder_rung = RungId::Full.index();
    report.gvn_stats.ladder_failures = 0;
    tel.observe(Metric::LadderRung, u64::from(RungId::Full.index()));
    tel.flush();
    counts.branches_folded += report.uce.branches_folded as u64;
    counts.constants_propagated += report.constants_propagated as u64;
    counts.redundancies_eliminated += report.redundancies_eliminated as u64;
    counts.copies_forwarded += report.copies_forwarded as u64;
    counts.dead_removed += report.dead_removed as u64;
    counts.pre_inserted += report.pre_inserted as u64;
    counts.pre_eliminated += report.pre_eliminated as u64;

    let rep = ResilienceReport {
        outcome: ResilientOutcome::Optimized(RungId::Full),
        failures: Vec::new(),
        report,
    };
    let delta = reg.snapshot().delta(&before).stable_only();
    w.field_str("status", "classified")
        .field_u64("insts", candidate.num_insts() as u64)
        .field_raw("resilience", &rep.to_json())
        .field_raw("metrics", &delta.to_json());
    Ok((w.finish(), candidate))
}

/// One routine's record and, when kept, its optimized function.
type UnitResult = Result<(String, Option<Function>), String>;

/// The outcome of one composed pass over a corpus.
pub struct Composed {
    /// Record lines in input order.
    pub records: Vec<String>,
    /// Optimized functions in input order (only when requested).
    pub funcs: Vec<Function>,
    /// One span vector per worker (empty when untraced).
    pub threads: Vec<Vec<Span>>,
    pub counts: Counts,
    pub wall_ns: u64,
    pub errors: Vec<String>,
}

/// A composed pass over `inputs` on `jobs` workers, sharded exactly as
/// `run_batch` shards. Traced passes record spans against `epoch`.
pub fn compose_batch(
    inputs: &[BatchInput],
    opts: &BatchOptions,
    jobs: usize,
    traced: Option<Instant>,
    keep_funcs: bool,
) -> Composed {
    let t0 = Instant::now();
    let jobs = jobs.max(1).min(inputs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<UnitResult>> = Vec::new();
    slots.resize_with(inputs.len(), || None);
    let mut threads = Vec::new();
    let mut counts = Counts::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut tracer = traced.map(Tracer::new);
                    let root = tracer.as_mut().map(|t| t.enter("batch.worker"));
                    let mut ctx = GvnContext::new();
                    if opts.warm_start {
                        let mut tr = tracer.as_mut();
                        span(&mut tr, "batch.warm", || warm_context(&mut ctx));
                    }
                    let reg = MetricsRegistry::new();
                    let mut local = Counts::default();
                    let mut produced = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(i) else { break };
                        let out = match tracer.as_mut() {
                            Some(t) => {
                                t.routine = i as u32;
                                let idx = t.enter("batch.routine");
                                let out = compose_one(
                                    &mut ctx,
                                    &reg,
                                    input,
                                    opts,
                                    Some(&mut *t),
                                    &mut local,
                                );
                                t.exit(idx);
                                out
                            }
                            None => compose_one(&mut ctx, &reg, input, opts, None, &mut local),
                        };
                        // Like the engine, drop each function once its
                        // record exists unless the caller needs it.
                        produced.push((i, out.map(|(rec, f)| (rec, keep_funcs.then_some(f)))));
                    }
                    if let (Some(t), Some(idx)) = (tracer.as_mut(), root) {
                        t.exit(idx);
                    }
                    (produced, local, tracer.map(|t| t.spans).unwrap_or_default())
                })
            })
            .collect();
        for h in handles {
            let (produced, local, spans) = h.join().expect("composed worker panicked");
            counts.merge(&local);
            threads.push(spans);
            for (i, out) in produced {
                slots[i] = Some(out);
            }
        }
    });
    let mut records = Vec::with_capacity(inputs.len());
    let mut funcs = Vec::new();
    let mut errors = Vec::new();
    for slot in slots {
        match slot.expect("every input produces an outcome") {
            Ok((rec, f)) => {
                records.push(rec);
                funcs.extend(f);
            }
            Err(e) => {
                records.push(String::new());
                errors.push(e);
            }
        }
    }
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Composed { records, funcs, threads, counts, wall_ns, errors }
}

/// A deliberately planted defect, to prove the correctness gate trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Corrupt one byte of one expected record.
    Bytes,
    /// Swap the optimized functions for a miscompiling pipeline's output.
    Interp,
}

/// The instruction count a record reports after optimization.
pub fn record_insts(json: &str) -> Option<u64> {
    pgvn::telemetry::json::parse(json).ok()?.get("insts")?.as_u64()
}

/// The correctness gate for one option group, run outside every timed
/// region: every record the engine produced must be `optimized`, equal
/// the composed path's record byte for byte, and the optimized routine
/// must agree with its source under the reference interpreter on
/// seeded argument vectors. Returns the summed output instruction count.
pub fn check_group(
    inputs: &[BatchInput],
    opts: &BatchOptions,
    engine: &[RoutineRecord],
    seed: u64,
    inject: Inject,
) -> Result<u64, String> {
    if engine.len() != inputs.len() {
        return Err(format!(
            "engine returned {} records for {} inputs",
            engine.len(),
            inputs.len()
        ));
    }
    let composed = compose_batch(inputs, opts, 1, None, true);
    if let Some(e) = composed.errors.first() {
        return Err(format!("composed path failed: {e}"));
    }
    let mut out_insts = 0;
    for (i, (input, rec)) in inputs.iter().zip(engine).enumerate() {
        if rec.status != RoutineStatus::Optimized {
            return Err(format!("{}: status {:?}, not optimized", input.name, rec.status));
        }
        let mut expected = rec.json.clone();
        if inject == Inject::Bytes && i == inputs.len() / 2 {
            expected = expected.replacen("\"insts\":", "\"insts\":1", 1);
        }
        if composed.records[i] != expected {
            return Err(format!(
                "{}: record bytes differ between the engine and the composed path",
                input.name
            ));
        }
        out_insts += record_insts(&rec.json)
            .ok_or_else(|| format!("{}: record has no insts field", input.name))?;
        let src = input.source.as_ref().map_err(|e| e.clone())?;
        let original = pgvn::lang::compile(src, SsaStyle::Pruned).map_err(|e| e.to_string())?;
        let mut optimized = composed.funcs[i].clone();
        if inject == Inject::Interp {
            optimized = original.clone();
            Pipeline::new(GvnConfig::full().miscompile(true)).rounds(2).optimize(&mut optimized);
        }
        let vopts =
            ValidatorOptions { input_seed: mix64(seed ^ mix64(i as u64)), ..Default::default() };
        validate_optimized(&original, &optimized, "wpbench", &vopts)
            .map_err(|e| format!("{}: interpreter check: {e}", input.name))?;
    }
    Ok(out_insts)
}
