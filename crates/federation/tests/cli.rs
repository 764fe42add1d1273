//! The `source-server` binary as a script runs it.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// A reader that goes away after the `listening on` line costs the
/// server its output and nothing else: `--max-seconds` still shuts it
/// down and it exits 0.
#[test]
fn a_closed_stdout_still_shuts_down_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_source-server"))
        .args([
            "--source",
            "locuslink",
            "--loci",
            "20",
            "--max-seconds",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("run source-server");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("a first line");
    assert!(first.starts_with("listening on "), "{first}");
    drop(stdout);
    let status = child.wait().expect("source-server exits");
    assert_eq!(status.code(), Some(0));
}
