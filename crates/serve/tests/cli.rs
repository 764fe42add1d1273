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
    for flag in ["--loci", "--seed", "--shards", "--workers", "--queue"] {
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
