//! `break` and `continue` outside a loop are parse errors with a line,
//! on every surface: the CLI exits 2, `pgvn batch --dir` writes an
//! `input_error` record, and a live `pgvn serve` answers an `input_error`
//! record and keeps serving. (They used to panic in lowering, which
//! aborted batch and made serve exit 1.)

use pgvn::serve::proto::{read_frame, write_frame, FrameEvent};
use pgvn::telemetry::json::{parse as parse_json, JsonValue};
use std::io::Write;
use std::process::{Command, Stdio};

const STRAYS: [(&str, &str, &str); 2] = [
    ("break", "routine f(a) {\n  break;\n  return a;\n}\n", "`break` outside a loop"),
    ("continue", "routine f(a) { if (a) { continue; } return a; }", "`continue` outside a loop"),
];

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pgvn-loop-exit-tests").join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn stray_loop_exits_are_parse_errors_on_the_cli() {
    let dir = temp_dir("cli");
    for (name, src, message) in STRAYS {
        let path = dir.join(format!("{name}.pgvn"));
        std::fs::write(&path, src).expect("write source");
        let out = Command::new(env!("CARGO_BIN_EXE_pgvn")).arg(&path).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(message), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_pgvn")).arg(dir.join("break.pgvn")).output();
    let stderr = String::from_utf8_lossy(&out.expect("spawns").stderr).to_string();
    assert!(stderr.contains("line 2"), "the error names the statement's line: {stderr}");
}

#[test]
fn stray_loop_exits_are_input_error_records_in_batch() {
    let dir = temp_dir("batch");
    for (name, src, _) in STRAYS {
        std::fs::write(dir.join(format!("{name}.pgvn")), src).expect("write source");
    }
    std::fs::write(dir.join("good.pgvn"), "routine g(a) { while (a) { break; } return a; }")
        .expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_pgvn"))
        .args(["batch", "--jobs", "2", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "input errors fail the batch: {stderr}");
    let records: Vec<JsonValue> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("routine"))
        .collect();
    assert_eq!(records.len(), 3, "{stderr}");
    let status = |r: &JsonValue| r.get("status").and_then(JsonValue::as_str).map(str::to_string);
    let detail =
        |r: &JsonValue| r.get("detail").and_then(JsonValue::as_str).unwrap_or("").to_string();
    let errors: Vec<String> = records
        .iter()
        .filter(|r| status(r).as_deref() == Some("input_error"))
        .map(detail)
        .collect();
    assert_eq!(errors.len(), 2, "{errors:?}");
    for (_, _, message) in STRAYS {
        assert!(errors.iter().any(|d| d.contains(message)), "{message}: {errors:?}");
    }
    assert_eq!(records.iter().filter(|r| status(r).as_deref() == Some("classified")).count(), 1);
}

/// One `pgvn serve` process answers each stray loop exit with an
/// `input_error` record, then analyses a good routine, and drains
/// cleanly.
#[test]
fn stray_loop_exits_get_answers_from_a_surviving_server() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pgvn"))
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");
    let mut stdin = child.stdin.take().expect("stdin");
    let frames = [
        r#"{"id":0,"routine":"routine f(a) { break; return a; }"}"#,
        r#"{"id":1,"routine":"routine f(a) { continue; }"}"#,
        r#"{"id":2,"routine":"routine g(a) { do { continue; } while (0); return a + a; }"}"#,
    ];
    for f in frames {
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
    assert_eq!(responses.len(), 3);
    let record = |id: u64| {
        let r = responses
            .iter()
            .find(|r| r.get("id").and_then(JsonValue::as_u64) == Some(id))
            .unwrap_or_else(|| panic!("no response for id {id}"));
        assert_eq!(r.get("reply").and_then(JsonValue::as_str), Some("record"), "id {id}");
        let rec = r.get("record").expect("record");
        let field = |k: &str| rec.get(k).and_then(JsonValue::as_str).unwrap_or("").to_string();
        (field("status"), field("detail"))
    };
    for (id, message) in [(0, "`break` outside a loop"), (1, "`continue` outside a loop")] {
        let (status, detail) = record(id);
        assert_eq!(status, "input_error", "id {id}: {detail}");
        assert!(detail.contains(message), "id {id}: {detail}");
    }
    assert_eq!(record(2).0, "classified");
}
