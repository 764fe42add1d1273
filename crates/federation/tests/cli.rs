//! The `source-server` binary as a script runs it.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// A reader that goes away after the `listening on` line costs the
/// server its output and nothing else: `--max-seconds` still shuts it
/// down, it reports its sessions on stderr, and it exits 0.
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
        .stderr(Stdio::piped())
        .spawn()
        .expect("run source-server");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("a first line");
    assert!(first.starts_with("listening on "), "{first}");
    drop(stdout);
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("utf-8 stderr");
    let status = child.wait().expect("source-server exits");
    assert_eq!(status.code(), Some(0));
    assert!(
        stderr.contains("sessions: accepted 0, faulted 0, shed 0\n"),
        "{stderr:?}"
    );
}

/// `--help` is an answer, not an error: the usage on stdout, exit 0.
#[test]
fn help_prints_the_usage_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_source-server"))
        .arg("--help")
        .output()
        .expect("run source-server");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout.starts_with("usage: source-server"), "{stdout}");
    assert!(out.stderr.is_empty(), "{out:?}");
}

/// The session worker pool's flag is gone: an unknown flag now, refused
/// before any work.
#[test]
fn retired_workers_flag_is_unknown() {
    let out = Command::new(env!("CARGO_BIN_EXE_source-server"))
        .args(["--source", "locuslink", "--workers", "2"])
        .output()
        .expect("run source-server");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: unknown flag --workers"),
        "{stderr:?}"
    );
    assert!(out.stdout.is_empty(), "must fail before any work");
}
