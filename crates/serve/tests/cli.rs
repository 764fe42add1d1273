//! Start-up checks of the `annoda-serve` binary itself.

use std::process::{Command, Stdio};

/// `--store-shards` × `--repl-bind` is refused while the flags are
/// parsed — before the corpus is generated or HTTP is bound — and the
/// message names the real reason, not a missing `--data-dir`.
#[test]
fn store_shards_with_repl_bind_is_rejected_up_front() {
    let dir = std::env::temp_dir().join(format!("annoda-serve-cli-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_annoda-serve"))
        .args(["--addr", "127.0.0.1:0", "--store-shards", "4", "--data-dir"])
        .arg(&dir)
        .args(["--repl-bind", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .output()
        .expect("run annoda-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "must exit non-zero: {stderr}");
    assert!(
        stderr.contains("per-shard WAL segments") && !stderr.contains("no --data-dir"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("generating corpus") && out.stdout.is_empty(),
        "must fail before any work: {stderr}"
    );
    assert!(!dir.exists(), "must not create the data dir");
}

/// An unparsable value for a numeric flag names the flag on stderr
/// instead of exiting 1 in silence.
#[test]
fn unparsable_numeric_flags_say_which_flag() {
    for flag in ["--loci", "--seed"] {
        let out = Command::new(env!("CARGO_BIN_EXE_annoda-serve"))
            .args(["--addr", "127.0.0.1:0", flag, "abc"])
            .stdin(Stdio::null())
            .output()
            .expect("run annoda-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} abc must exit non-zero");
        assert!(
            stderr.contains(&format!("error: {flag} takes a number")),
            "{flag}: {stderr:?}"
        );
        assert!(
            !stderr.contains("generating corpus") && out.stdout.is_empty(),
            "{flag}: must fail before any work: {stderr}"
        );
    }
}

/// The reactor-era tuning flags are gone: each is an unknown flag now,
/// refused before any work.
#[test]
fn retired_serve_tier_flags_are_unknown() {
    for flag in ["--shards", "--workers", "--queue"] {
        let out = Command::new(env!("CARGO_BIN_EXE_annoda-serve"))
            .args(["--addr", "127.0.0.1:0", flag, "2"])
            .stdin(Stdio::null())
            .output()
            .expect("run annoda-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} 2: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown flag `{flag}` (try --help)")),
            "{flag}: {stderr:?}"
        );
        assert!(
            !stderr.contains("generating corpus") && out.stdout.is_empty(),
            "{flag}: must fail before any work: {stderr}"
        );
    }
}

/// A shard count no `u64` shard mask can hold is refused while the
/// flags are parsed — with or without `--data-dir`, and before the
/// directory is created.
#[test]
fn store_shards_above_the_mask_width_are_refused_up_front() {
    let dir = std::env::temp_dir().join(format!("annoda-serve-65-{}", std::process::id()));
    for data_dir in [true, false] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_annoda-serve"));
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--loci",
            "50",
            "--store-shards",
            "65",
        ]);
        if data_dir {
            cmd.arg("--data-dir").arg(&dir);
        }
        let out = cmd.stdin(Stdio::null()).output().expect("run annoda-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains("--store-shards takes a shard count in 1..=64"),
            "{stderr}"
        );
        assert!(
            !stderr.contains("generating corpus") && out.stdout.is_empty(),
            "must fail before any work: {stderr}"
        );
        assert!(!dir.exists(), "must not create the data dir");
    }
}

/// `--store-shards 1` is the one-shard store replication ships, so it
/// starts as a leader and as a follower (whose leader need not be up).
#[test]
fn one_store_shard_starts_with_repl_bind_and_with_follow() {
    use std::io::{BufRead, BufReader, Write};
    for role in ["--repl-bind", "--follow"] {
        let dir = std::env::temp_dir().join(format!(
            "annoda-serve-one-shard{role}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut child = Command::new(env!("CARGO_BIN_EXE_annoda-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--loci",
                "50",
                "--store-shards",
                "1",
            ])
            .arg("--data-dir")
            .arg(&dir)
            .args([role, "127.0.0.1:1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("run annoda-serve");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let first = lines.next().expect("a first line").expect("utf-8 stdout");
        assert!(
            first.starts_with("annoda-serve listening on"),
            "{role}: {first}"
        );
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(b"quit\n").expect("send quit");
        drop(stdin);
        lines.for_each(drop);
        assert!(
            child.wait().expect("annoda-serve exits").success(),
            "{role}"
        );
        assert!(dir.join("shard-000").is_dir(), "{role}: one shard segment");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
