//! The `serve-open` workload: an open loop over a Unix socket against
//! `pgvn::serve::serve_socket` at two fixed offered rates, and a
//! saturation step that keeps a fixed number of requests outstanding.
//! Untraced, the three steps repeat in short rounds across the run. The
//! traced run adds a rising sweep for the highest rate that meets the
//! latency limit.
//!
//! One connection carries each step. In an open-loop step a sender
//! thread writes each frame at its due time whether or not earlier ones
//! were answered, while the calling thread collects responses. Latency
//! runs from the due time, so a stall is charged to every request queued
//! behind it. The saturation step runs on the calling thread alone.

use crate::batch::{gate, gen_input, traced, Group};
use crate::stats::{median, quantile};
use crate::{median_setup, Args, Outcome, OUT_DIR};
use pgvn::batch::{run_batch, BatchInput, BatchOptions};
use pgvn::oracle::mix64;
use pgvn::serve::proto::{extract_record, parse_request, read_frame, write_frame, FrameEvent};
use pgvn::serve::{resolve_request_options, serve_socket, ServeOptions, ServeSummary};
use pgvn::telemetry::json::JsonWriter;
use pgvn::telemetry::{Metric, MetricsSnapshot, NUM_BUCKETS};
use pgvn::workload::GenConfig;
use std::io::{self, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rate of the `light` step, requests per second.
pub const LIGHT_RPS: f64 = 150.0;
/// Offered rate of the `heavy` step, requests per second.
pub const HEAVY_RPS: f64 = 450.0;
/// The latency limit a sweep step's p99 must meet.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Sweep steps above `heavy`, requests per second.
pub const SWEEP_RPS: [f64; 6] = [600.0, 900.0, 1200.0, 1600.0, 2000.0, 2400.0];
/// Requests kept outstanding by the saturation step (below the server's
/// admission-queue bound of 64, so nothing is shed).
const WINDOW: u64 = 16;
/// Target length of a saturation throughput bin, seconds.
const BIN_S: f64 = 0.5;
/// Target length of one light/heavy/saturation round, seconds.
const ROUND_S: f64 = 5.0;
/// Routines in the corpus; requests cycle through it.
const ROUTINES: u64 = 240;
/// Every fourth request asks for PRE between two GVN rounds.
const PRE_SPEC: &str = "gvn,pre,gvn";

/// A running server and the socket it listens on.
struct Server {
    path: String,
    handle: JoinHandle<io::Result<ServeSummary>>,
}

fn socket_path(tag: usize) -> String {
    format!("{OUT_DIR}/serve-{}-{tag}.sock", std::process::id())
}

/// One request/response round trip on a fresh connection.
fn round_trip(path: &str, frame: &str) -> io::Result<String> {
    let mut conn = UnixStream::connect(path)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    write_frame(&mut conn, frame.as_bytes())?;
    match read_frame(&mut conn, 1 << 24, &mut || false) {
        Ok(FrameEvent::Frame(p)) => Ok(String::from_utf8_lossy(&p).into_owned()),
        _ => Err(io::Error::other("no response")),
    }
}

/// Binds, starts the server thread, and waits until it answers a ping
/// and one optimize request.
fn start(opts: &ServeOptions, tag: usize, warm_frame: &str) -> io::Result<Server> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = socket_path(tag);
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    let opts = opts.clone();
    let handle = std::thread::spawn(move || serve_socket(listener, &opts));
    let server = Server { path, handle };
    round_trip(&server.path, r#"{"op":"ping"}"#)?;
    round_trip(&server.path, warm_frame)?;
    Ok(server)
}

fn stop(server: Server) -> io::Result<ServeSummary> {
    let sent = round_trip(&server.path, r#"{"op":"shutdown"}"#);
    let summary = server.handle.join().map_err(|_| io::Error::other("server thread panicked"))?;
    let _ = std::fs::remove_file(&server.path);
    sent?;
    summary
}

/// The corpus: small routines, every fourth one with the PRE pipeline.
/// Returns the request bodies (without `id`) and the per-item inputs.
fn corpus(seed: u64) -> (Vec<String>, Vec<BatchInput>) {
    let mut bodies = Vec::new();
    let mut inputs = Vec::new();
    for i in 0..ROUTINES {
        let cfg =
            GenConfig { seed: mix64(seed ^ mix64(i)), target_stmts: 20, ..GenConfig::default() };
        let input = gen_input(format!("s{i}"), &cfg);
        let mut w = JsonWriter::object();
        w.field_str("name", &input.name);
        w.field_str("routine", input.source.as_ref().expect("generated source"));
        if i % 4 == 3 {
            w.field_str("passes", PRE_SPEC);
        }
        bodies.push(w.finish());
        inputs.push(input);
    }
    (bodies, inputs)
}

fn frame(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{}", &body[1..])
}

/// What one step observed.
struct Step {
    /// Offered rate (open loop) or achieved rate (saturation), req/s.
    rate: f64,
    /// Open loop only: per answered request, from its due time to its
    /// response.
    latency_ms: Vec<f64>,
    /// Open loop only: how late the sender wrote each request.
    late_ms: Vec<f64>,
    /// Saturation only: responses per second in each bin of the step.
    bin_rates: Vec<f64>,
    sent: u64,
    failed: u64,
    mismatched: u64,
    growing: bool,
}

impl Step {
    fn new() -> Step {
        Step {
            rate: 0.0,
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
            bin_rates: Vec::new(),
            sent: 0,
            failed: 0,
            mismatched: 0,
            growing: false,
        }
    }

    fn p99(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }

    /// Met the limit: every request answered with its record, p99 within
    /// the limit, and latency not climbing across the step.
    fn meets_limit(&self) -> bool {
        self.failed == 0 && !self.growing && self.p99() <= P99_LIMIT_MS
    }

    /// Checks one response against the record `expected` holds for its
    /// corpus item; returns its `id`, or `None` (counted as failed) when
    /// it has none.
    fn check(&mut self, text: &str, expected: &[String]) -> Option<u64> {
        let Some(id) = response_id(text) else {
            self.failed += 1;
            return None;
        };
        match extract_record(text) {
            Some(rec) if text.contains("\"reply\":\"record\"") => {
                if expected.get(item(id, expected.len())).is_none_or(|e| e != rec) {
                    self.mismatched += 1;
                }
            }
            _ => self.failed += 1,
        }
        Some(id)
    }
}

/// The corpus item request `k` carries.
fn item(k: u64, len: usize) -> usize {
    (k % len as u64) as usize
}

/// The `id` of a response envelope (`{"event":"serve_response","id":N,…`).
fn response_id(text: &str) -> Option<u64> {
    let rest = &text[text.find("\"id\":")? + 5..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A reader and a writer on one fresh connection.
fn connect(path: &str) -> io::Result<(UnixStream, UnixStream)> {
    let c = UnixStream::connect(path)?;
    c.set_read_timeout(Some(Duration::from_millis(50)))?;
    Ok((c.try_clone()?, c))
}

/// One open-loop step over a fresh connection: request `k`, carrying
/// corpus item `k % len`, is due at `k / rate` seconds, answered or not.
/// A sender thread writes each frame at its due time while the calling
/// thread collects responses; each record must equal `expected` for its
/// item byte for byte, checked as it arrives.
fn open_loop(path: &str, bodies: &[String], expected: &[String], rate: f64, secs: f64) -> Step {
    let mut result = Step::new();
    let Ok((mut writer, mut reader)) = connect(path) else {
        result.failed = 1;
        return result;
    };
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / rate);
    let give_up = end + Duration::from_secs(5);
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut answers: Vec<(u64, Instant)> = Vec::new();
    let (sent_ref, done_ref) = (&sent, &done);
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut late = Vec::new();
            for k in 0u64.. {
                let d = due(k);
                if d >= end {
                    break;
                }
                let now = Instant::now();
                if d > now {
                    std::thread::sleep(d - now);
                }
                let at = Instant::now();
                let body = &bodies[item(k, bodies.len())];
                if write_frame(&mut writer, frame(k, body).as_bytes()).is_err() {
                    break;
                }
                late.push(at.saturating_duration_since(d).as_secs_f64() * 1e3);
                sent_ref.store(k + 1, Ordering::Release);
            }
            done_ref.store(true, Ordering::Release);
            late
        });
        let mut stop = || Instant::now() > give_up;
        while !(done.load(Ordering::Acquire)
            && answers.len() as u64 >= sent.load(Ordering::Acquire))
        {
            match read_frame(&mut reader, 1 << 24, &mut stop) {
                Ok(FrameEvent::Frame(p)) => {
                    let at = Instant::now();
                    if let Some(id) = result.check(&String::from_utf8_lossy(&p), expected) {
                        answers.push((id, at));
                    }
                }
                _ => break,
            }
        }
        result.late_ms = sender.join().expect("load sender panicked");
    });
    result.sent = sent.load(Ordering::Acquire);
    result.failed += result.sent.saturating_sub(answers.len() as u64);
    answers.sort_unstable_by_key(|(id, _)| *id);
    for (id, at) in &answers {
        result.latency_ms.push(at.saturating_duration_since(due(*id)).as_secs_f64() * 1e3);
    }
    result.rate = rate;
    let q = result.latency_ms.len() / 4;
    if q >= 10 {
        let first = median(&result.latency_ms[..q]);
        let last = median(&result.latency_ms[result.latency_ms.len() - q..]);
        result.growing = last > 2.0 * first + 2.0;
    }
    result
}

/// The saturation step over a fresh connection, from one thread: keeps
/// between half of [`WINDOW`] and all of it outstanding, refilling the
/// window in one write whenever half of it has been answered, until
/// `secs` have passed; then waits for the rest. Counts the responses in
/// each bin of about [`BIN_S`] seconds.
fn saturate(path: &str, bodies: &[String], expected: &[String], secs: f64) -> Step {
    let mut result = Step::new();
    let Ok((mut writer, reader)) = connect(path) else {
        result.failed = 1;
        return result;
    };
    let mut reader = BufReader::new(reader);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let give_up = end + Duration::from_secs(5);
    let mut answered = 0u64;
    let mut batch = Vec::new();
    let mut bins = vec![0u64; (secs / BIN_S).floor().max(1.0) as usize];
    let bin_s = secs / bins.len() as f64;
    let mut stop = || Instant::now() > give_up;
    loop {
        if Instant::now() < end && result.sent - answered <= WINDOW / 2 {
            batch.clear();
            for k in result.sent..answered + WINDOW {
                let body = &bodies[item(k, bodies.len())];
                write_frame(&mut batch, frame(k, body).as_bytes()).expect("writes to memory");
            }
            if writer.write_all(&batch).is_err() {
                break;
            }
            result.sent = answered + WINDOW;
            continue;
        }
        if answered >= result.sent {
            break;
        }
        let Ok(FrameEvent::Frame(p)) = read_frame(&mut reader, 1 << 24, &mut stop) else {
            break;
        };
        answered += 1;
        result.check(&String::from_utf8_lossy(&p), expected);
        let b = (start.elapsed().as_secs_f64() / bin_s) as usize;
        if let Some(n) = bins.get_mut(b) {
            *n += 1;
        }
    }
    result.failed += result.sent.saturating_sub(answered);
    result.bin_rates = bins.iter().map(|&n| n as f64 / bin_s).collect();
    result.rate = answered as f64 / start.elapsed().as_secs_f64();
    result
}

/// The `q` quantile of a log2-bucketed histogram, interpolated linearly
/// inside the bucket that holds it.
fn hist_quantile(snap: &MetricsSnapshot, m: Metric, q: f64) -> f64 {
    let count = snap.count(m);
    if count == 0 {
        return 0.0;
    }
    let target = (q * count as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for i in 0..NUM_BUCKETS {
        let b = snap.bucket(m, i) as f64;
        if seen + b >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << (i - 1)) as f64 };
            let hi = if i == 0 { 0.0 } else { ((1u128 << i) - 1) as f64 };
            return lo + (hi - lo) * ((target - seen) / b);
        }
        seen += b;
    }
    0.0
}

/// Closed-loop `ping` round trips: protocol cost with no work.
fn ping_rtt_us(path: &str, out: &mut Outcome) -> f64 {
    let mut rtt = Vec::new();
    let Ok(mut conn) = UnixStream::connect(path) else {
        out.fail("ping connection refused");
        return 0.0;
    };
    for id in 0..200u64 {
        let t0 = Instant::now();
        let sent = write_frame(&mut conn, format!("{{\"op\":\"ping\",\"id\":{id}}}").as_bytes());
        let got = read_frame(&mut conn, 1 << 20, &mut || false);
        if sent.is_err() || !matches!(got, Ok(FrameEvent::Frame(_))) {
            out.fail("ping went unanswered");
            break;
        }
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&rtt)
}

fn record(out: &mut Outcome, s: &Step) {
    out.attempted += s.sent;
    out.failed += s.failed;
    if s.mismatched > 0 {
        out.fail(format!(
            "{} serve records differ from run_batch at {} req/s",
            s.mismatched, s.rate
        ));
    }
}

/// The rate sweep, on a server of its own so its overload steps do not
/// show in the fixed-rate steps' queue metrics: rising rates above
/// `heavy` until one misses the limit. A step that misses it is the
/// measurement, not a failure of the run; a record mismatch still is.
fn sweep(
    opts: &ServeOptions,
    bodies: &[String],
    expected: &[String],
    secs: f64,
    out: &mut Outcome,
) {
    let server = match start(opts, 0, &frame(0, &bodies[0])) {
        Ok(s) => s,
        Err(e) => return out.fail(format!("sweep server start: {e}")),
    };
    for rate in SWEEP_RPS {
        let s = open_loop(&server.path, bodies, expected, rate, secs);
        if s.mismatched > 0 {
            out.fail(format!(
                "{} serve records differ from run_batch at {rate} req/s",
                s.mismatched
            ));
        }
        if !s.meets_limit() {
            break;
        }
        out.set("serve.max_rate_rps", rate);
    }
    if let Err(e) = stop(server) {
        out.fail(format!("sweep server did not drain: {e}"));
    }
}

/// Stops each server that started. A server that did not start or did
/// not drain fails the run.
fn stop_all(servers: impl IntoIterator<Item = io::Result<Server>>, out: &mut Outcome) {
    for s in servers {
        match s.map(stop) {
            Ok(Ok(summary)) if !summary.is_clean() => out.fail("server reported escaped panics"),
            Ok(Ok(_)) => {}
            Ok(Err(e)) => out.fail(format!("server did not drain: {e}")),
            Err(e) => out.fail(format!("server start: {e}")),
        }
    }
}

pub fn run(args: &Args, nproc: usize) -> Outcome {
    // Two servers. The open-loop steps run on a pool that leaves one core
    // to the load generator, so that their latency measures the server
    // and not the scheduler. The saturation step runs on a pool on every
    // core, as `run_batch` uses `jobs = nproc`.
    let open_opts =
        ServeOptions { workers: nproc.saturating_sub(1).max(1), ..ServeOptions::default() };
    let sat_opts = ServeOptions { workers: nproc, ..ServeOptions::default() };
    let mut out = Outcome::default();
    // Set-up: generate the corpus and start both servers warmed, five
    // times; the last pair stays up for the measurement.
    let mut tag = 0;
    let mut pairs = Vec::new();
    let (setup_s, (bodies, inputs)) = median_setup(5, || {
        let (bodies, inputs) = corpus(args.seed);
        let warm = frame(0, &bodies[0]);
        pairs.push([start(&open_opts, tag + 1, &warm), start(&sat_opts, tag + 2, &warm)]);
        tag += 2;
        (bodies, inputs)
    });
    out.set("setup_s", setup_s);
    let last = pairs.pop().expect("five set-ups");
    stop_all(pairs.into_iter().flatten(), &mut out);
    let (server, sat_server) = match last {
        [Ok(open), Ok(sat)] => (open, sat),
        pair => {
            stop_all(pair, &mut out);
            return out;
        }
    };

    // The two option groups, resolved exactly as the server resolves
    // each request, and the records `run_batch` produces for them.
    let mut groups = vec![
        Group { inputs: Vec::new(), opts: BatchOptions::default() },
        Group { inputs: Vec::new(), opts: BatchOptions::default() },
    ];
    let mut slot = Vec::new();
    for (i, (body, input)) in bodies.iter().zip(&inputs).enumerate() {
        let req = parse_request(frame(0, body).as_bytes()).expect("generated request parses");
        let opts = resolve_request_options(&req, &sat_opts).expect("generated request resolves");
        let g = usize::from(i % 4 == 3);
        groups[g].opts = BatchOptions { jobs: sat_opts.workers, ..opts };
        slot.push((g, groups[g].inputs.len()));
        groups[g].inputs.push(input.clone());
    }
    let mut expected = vec![String::new(); inputs.len()];
    for (gi, g) in groups.iter().enumerate() {
        let rep = run_batch(&g.inputs, &BatchOptions { jobs: 1, ..g.opts.clone() });
        for (i, (sg, si)) in slot.iter().enumerate() {
            if *sg == gi {
                expected[i] = rep.records[*si].json.clone();
            }
        }
    }

    let secs = args.seconds;
    let path = server.path.clone();
    let step = |out: &mut Outcome, rate: f64, share: f64| {
        let s = open_loop(&path, &bodies, &expected, rate, secs * share);
        record(out, &s);
        s
    };
    let mut timed = Vec::new();
    if args.trace {
        timed = traced(args, secs * 0.45, &groups, sat_opts.workers, &mut out);
        let light = step(&mut out, LIGHT_RPS, 0.1);
        out.set("serve.p50_ms.light", quantile(&light.latency_ms, 0.5));
        out.set("serve.p99_ms.light", light.p99());
        let heavy = step(&mut out, HEAVY_RPS, 0.2);
        out.set("serve.p99_ms.heavy", heavy.p99());
        out.set("loadgen.late_p99_ms", quantile(&heavy.late_ms, 0.99));
        if heavy.meets_limit() {
            out.set("serve.max_rate_rps", HEAVY_RPS);
        }
        let rtt = ping_rtt_us(&path, &mut out);
        out.set("serve.ping_rtt_us", rtt);
    } else {
        // Short interleaved rounds, so that each metric samples the whole
        // run rather than one stretch of it: on a shared machine the CPU
        // a run gets drifts over seconds.
        let rounds = (secs / ROUND_S).round().max(1.0);
        let (mut heavy_ms, mut sat_rates) = (Vec::new(), Vec::new());
        for _ in 0..rounds as usize {
            step(&mut out, LIGHT_RPS, 0.15 / rounds);
            heavy_ms.extend(step(&mut out, HEAVY_RPS, 0.45 / rounds).latency_ms);
            let sat = saturate(&sat_server.path, &bodies, &expected, secs * 0.4 / rounds);
            record(&mut out, &sat);
            sat_rates.extend(sat.bin_rates);
        }
        out.set("p50_ms", median(&heavy_ms));
        out.set("routines_per_s", median(&sat_rates));
        out.set("peak_rss_mb", crate::stats::peak_rss_mb());
    }
    stop_all([Ok(sat_server)], &mut out);
    match stop(server) {
        Ok(summary) => {
            let m = &summary.serve_metrics;
            out.set(
                "serve.queue_wait_p50_ms",
                hist_quantile(m, Metric::ServeQueueWaitNanos, 0.5) / 1e6,
            );
            out.set(
                "serve.queue_wait_p99_ms",
                hist_quantile(m, Metric::ServeQueueWaitNanos, 0.99) / 1e6,
            );
            out.set("serve.shed", summary.shed as f64);
            out.set("serve.expired", summary.expired as f64);
            out.set("serve.backlog_max", m.value(Metric::ServeQueueDepth) as f64);
            if !summary.is_clean() {
                out.fail("server reported escaped panics");
            }
        }
        Err(e) => out.fail(format!("server did not drain: {e}")),
    }
    if args.trace && out.metrics.contains_key("serve.max_rate_rps") {
        sweep(&open_opts, &bodies, &expected, secs * 0.05, &mut out);
    }
    gate(args, &groups, &timed, &mut out);
    out
}
