//! Start-up checks of the `annoda-serve` binary itself.

use std::process::{Command, Stdio};

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

/// Replication needs no particular store: any shard count starts as a
/// leader (`--repl-bind`) and as a follower (`--follow`, whose leader
/// need not be up), with or without `--data-dir`. A leader reports its
/// feed sessions on `quit`.
#[test]
fn any_shard_count_starts_with_repl_bind_and_with_follow() {
    use std::io::{BufRead, BufReader, Read, Write};
    for shards in ["1", "4"] {
        for data_dir in [false, true] {
            for role in ["--repl-bind", "--follow"] {
                let case = format!("{role} --store-shards {shards} data dir {data_dir}");
                let dir = std::env::temp_dir().join(format!(
                    "annoda-serve-repl-{shards}{role}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let mut cmd = Command::new(env!("CARGO_BIN_EXE_annoda-serve"));
                cmd.args(["--addr", "127.0.0.1:0", "--loci", "50"])
                    .args(["--store-shards", shards])
                    .args([
                        role,
                        if role == "--follow" {
                            "127.0.0.1:1"
                        } else {
                            "127.0.0.1:0"
                        },
                    ]);
                if data_dir {
                    cmd.arg("--data-dir").arg(&dir);
                }
                let mut child = cmd
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("run annoda-serve");
                let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
                let first = lines.next().expect("a first line").expect("utf-8 stdout");
                assert!(
                    first.starts_with("annoda-serve listening on"),
                    "{case}: {first}"
                );
                let mut stdin = child.stdin.take().expect("piped stdin");
                stdin.write_all(b"quit\n").expect("send quit");
                drop(stdin);
                lines.for_each(drop);
                let mut stderr = String::new();
                let mut pipe = child.stderr.take().expect("piped stderr");
                pipe.read_to_string(&mut stderr).expect("utf-8 stderr");
                assert!(
                    child.wait().expect("annoda-serve exits").success(),
                    "{case}"
                );
                assert_eq!(
                    stderr.contains("sessions: accepted 0, faulted 0, shed 0\n"),
                    role == "--repl-bind",
                    "{case}: {stderr}"
                );
                let segment = format!("shard-{:03}", shards.parse::<usize>().unwrap() - 1);
                assert_eq!(dir.join(segment).is_dir(), data_dir, "{case}: its segments");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// A reader that stops reading stdout, and a closed stderr, cost the
/// server its output and nothing else: on `quit` it drains, writes its
/// clean-shutdown snapshot, and exits 0.
#[test]
fn closed_output_pipes_still_shut_down_cleanly() {
    use std::io::{BufRead, BufReader, Write};
    for data_dir in [false, true] {
        let dir = std::env::temp_dir().join(format!("annoda-serve-epipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_annoda-serve"));
        cmd.args(["--addr", "127.0.0.1:0", "--loci", "50"]);
        if data_dir {
            cmd.arg("--data-dir").arg(&dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run annoda-serve");
        drop(child.stderr.take());
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("a first line");
        assert!(first.starts_with("annoda-serve listening on"), "{first}");
        drop(stdout);
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(b"quit\n").expect("send quit");
        drop(stdin);
        let status = child.wait().expect("annoda-serve exits");
        assert_eq!(status.code(), Some(0), "data dir {data_dir}");
        if data_dir {
            assert!(
                dir.join("shard-000").join("snapshot.bin").is_file(),
                "the clean shutdown wrote its snapshot"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
