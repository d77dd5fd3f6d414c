//! The parser's nesting bound (`pgvn::lang::MAX_NESTING`): input exactly
//! at the bound runs the whole path on an ordinary worker thread, input
//! one past it is a classified parse error, and the two adversarial
//! frames that used to overflow the stack (5,000 nested parentheses and
//! a 100,000-term sum) are answered on the CLI, batch and serve paths
//! without the process dying.

use pgvn::batch::{run_batch, BatchInput, BatchOptions, RoutineStatus};
use pgvn::lang::{parse, print_routine, MAX_NESTING};
use pgvn::serve::proto::{read_frame, write_frame, FrameEvent};
use pgvn::telemetry::json::{parse as parse_json, JsonValue};
use std::io::Write;
use std::process::{Command, Stdio};

fn parens(n: usize) -> String {
    format!("routine f(a) {{ x = {}a{}; return x; }}", "(".repeat(n), ")".repeat(n))
}

/// `a + a + … + a` with `n` operators: a left-deep tree of height `n`.
fn chain(n: usize) -> String {
    format!("routine f(a) {{ x = a{}; return x; }}", " + a".repeat(n))
}

fn prefix(n: usize) -> String {
    format!("routine f(a) {{ return {}a; }}", "- ".repeat(n))
}

fn ifs(n: usize) -> String {
    format!("routine f(a) {{ {}x = 1; return x; }}", "if (a) ".repeat(n))
}

/// The frames that aborted the process before the bound existed.
fn adversarial() -> [(&'static str, String); 2] {
    [("parens_5000", parens(5_000)), ("sum_100000", chain(99_999))]
}

fn is_nesting_error(detail: &str) -> bool {
    detail.contains(&format!("nesting deeper than {MAX_NESTING} levels"))
}

#[test]
fn each_kind_of_nesting_is_accepted_at_the_bound_and_rejected_past_it() {
    for make in [parens, chain, prefix, ifs] {
        let at = make(MAX_NESTING);
        let routine = parse(&at).unwrap_or_else(|e| panic!("{e}: {}", &at[..60]));
        drop(print_routine(&routine));
        let err = parse(&make(MAX_NESTING + 1)).expect_err("one level too deep");
        assert!(is_nesting_error(&err.message), "{err}");
    }
    // Levels of different kinds add up.
    let half = MAX_NESTING / 2;
    let mixed = format!(
        "routine f(a) {{ {}x = {}a{}; return x; }}",
        "while (a) ".repeat(half),
        "(".repeat(MAX_NESTING - half + 1),
        ")".repeat(MAX_NESTING - half + 1)
    );
    assert!(is_nesting_error(&parse(&mixed).unwrap_err().message));
}

/// Input at the bound runs parse → lower → SSA → GVN → rewrite → lint on
/// the batch's own worker threads, whose stacks are the default size.
#[test]
fn input_at_the_bound_runs_the_whole_batch_path() {
    let inputs: Vec<BatchInput> = [parens, chain, prefix, ifs]
        .iter()
        .enumerate()
        .map(|(i, make)| BatchInput { name: format!("deep{i}"), source: Ok(make(MAX_NESTING)) })
        .collect();
    let opts = BatchOptions { jobs: 2, check: true, ..BatchOptions::default() };
    let report = run_batch(&inputs, &opts);
    for rec in &report.records {
        assert_ne!(rec.status, RoutineStatus::InputError, "{}", rec.json);
        assert_ne!(rec.status, RoutineStatus::EscapedPanic, "{}", rec.json);
    }
}

#[test]
fn adversarial_frames_are_parse_errors_on_the_cli() {
    let dir = std::env::temp_dir().join("pgvn-nesting-tests").join("cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, src) in adversarial() {
        let path = dir.join(format!("{name}.pgvn"));
        std::fs::write(&path, src).expect("write source");
        let out = Command::new(env!("CARGO_BIN_EXE_pgvn")).arg(&path).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(is_nesting_error(&stderr), "{name}: {stderr}");
    }
}

#[test]
fn adversarial_frames_are_input_error_records_in_batch() {
    let dir = std::env::temp_dir().join("pgvn-nesting-tests").join("batch");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, src) in adversarial() {
        std::fs::write(dir.join(format!("{name}.pgvn")), src).expect("write source");
    }
    std::fs::write(dir.join("good.pgvn"), "routine g(a) { return a + a; }").expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_pgvn"))
        .args(["batch", "--jobs", "2", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(1), "input errors fail the batch, not the process");
    let records: Vec<JsonValue> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("routine"))
        .collect();
    assert_eq!(records.len(), 3);
    let nesting_errors = records
        .iter()
        .filter(|r| r.get("status").and_then(JsonValue::as_str) == Some("input_error"))
        .filter(|r| r.get("detail").and_then(JsonValue::as_str).is_some_and(is_nesting_error))
        .count();
    assert_eq!(nesting_errors, 2);

    // The library entry point classifies the same way.
    let inputs: Vec<BatchInput> = adversarial()
        .into_iter()
        .map(|(name, src)| BatchInput { name: name.to_string(), source: Ok(src) })
        .collect();
    let report = run_batch(&inputs, &BatchOptions { jobs: 2, ..BatchOptions::default() });
    assert!(report.records.iter().all(|r| r.status == RoutineStatus::InputError));
}

/// One `pgvn serve` process takes both frames, answers each with an
/// `input_error` record, keeps answering (a ping, then a good routine),
/// and drains cleanly.
#[test]
fn adversarial_frames_get_answers_from_a_surviving_server() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pgvn"))
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut frames: Vec<String> = adversarial()
        .iter()
        .enumerate()
        .map(|(id, (_, src))| format!(r#"{{"id":{id},"routine":"{src}"}}"#))
        .collect();
    frames.push(r#"{"id":7,"op":"ping"}"#.to_string());
    frames.push(r#"{"id":8,"routine":"routine g(a) { return a + a; }"}"#.to_string());
    for f in &frames {
        write_frame(&mut stdin, f.as_bytes()).expect("frame written");
    }
    stdin.flush().expect("flush");
    drop(stdin);
    let mut stdout = child.stdout.take().expect("stdout");
    let mut responses = Vec::new();
    while let Ok(FrameEvent::Frame(p)) = read_frame(&mut stdout, 1 << 24, &mut || false) {
        responses.push(parse_json(&String::from_utf8(p).expect("UTF-8")).expect("JSON"));
    }
    let status = child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "the server drains cleanly");
    assert_eq!(responses.len(), 4);
    let reply = |id: u64| {
        let r = responses
            .iter()
            .find(|r| r.get("id").and_then(JsonValue::as_u64) == Some(id))
            .unwrap_or_else(|| panic!("no response for id {id}"));
        r.get("reply").and_then(JsonValue::as_str).expect("reply").to_string()
    };
    assert_eq!(reply(7), "pong");
    for id in [0, 1, 8] {
        assert_eq!(reply(id), "record");
    }
    let details: Vec<&str> = responses
        .iter()
        .filter_map(|r| r.get("record"))
        .filter(|rec| rec.get("status").and_then(JsonValue::as_str) == Some("input_error"))
        .filter_map(|rec| rec.get("detail").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(details.len(), 2, "{details:?}");
    assert!(details.iter().all(|d| is_nesting_error(d)), "{details:?}");
}
