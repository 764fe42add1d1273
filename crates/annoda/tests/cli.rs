//! The `annoda-cli` binary's journaled commands over the data-directory
//! layout `annoda-serve --data-dir` opens.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use annoda::{Annoda, DurableSystem, FsyncPolicy, GML_ROOT};
use annoda_oem::text::load_from_file;
use annoda_sources::{Corpus, CorpusConfig};

fn tmp(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("annoda-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs `annoda-cli` over `commands` and returns its stdout.
fn cli(commands: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_annoda-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("run annoda-cli");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(commands.as_bytes()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("annoda-cli exits");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn system() -> Annoda {
    let c = Corpus::generate(CorpusConfig::tiny(42));
    Annoda::over_sources(c.locuslink, c.go, c.omim).0
}

fn genes_in(path: &Path) -> usize {
    let gml = load_from_file(path).expect("an OEM text file");
    let root = gml.named(GML_ROOT).expect("the exported GML root");
    gml.children(root, "Gene").count()
}

#[test]
fn jexport_assembles_the_shards_of_a_data_dir_and_jsave_writes_one() {
    let (dir, out) = (tmp("jexport-dir"), tmp("jexport.oem"));
    let annoda = system();
    let (gml, _) = annoda.mediator().materialize_gml().unwrap();
    let genes = gml.children(gml.named(GML_ROOT).unwrap(), "Gene").count();
    assert!(genes > 0);
    drop(DurableSystem::open_sharded(annoda, &dir, FsyncPolicy::Always, 3).unwrap());

    let stdout = cli(&format!(
        "jexport {} {}\nquit\n",
        dir.display(),
        out.display()
    ));
    assert!(stdout.contains("recovered shards: 3,"), "{stdout}");
    assert_eq!(genes_in(&out), genes, "{stdout}");
    assert!(
        !dir.join("wal.log").exists(),
        "no root-level WAL is written"
    );

    // `jsave` writes the one-shard layout a server reopens warm.
    let saved = tmp("jsave-dir");
    let stdout = cli(&format!("jsave {}\nquit\n", saved.display()));
    assert!(stdout.contains("journaled"), "{stdout}");
    let warm = DurableSystem::open_sharded(system(), &saved, FsyncPolicy::Always, 1);
    let warm = warm.unwrap();
    assert!(
        warm.sharded().recovery().unwrap().replayed_records > 0,
        "{stdout}"
    );
    drop(warm);
    for path in [&dir, &saved] {
        let _ = std::fs::remove_dir_all(path);
    }
    let _ = std::fs::remove_file(&out);
}

/// A reader that closes the REPL's stdout after one line costs the
/// session its output, not a panic: `quit` still exits 0.
#[test]
fn a_closed_stdout_still_quits_cleanly() {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_annoda-cli"))
        .args(["--loci", "40"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run annoda-cli");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("a first line");
    assert!(!first.is_empty(), "the banner");
    drop(stdout);
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"help\nhelp\nquit\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("annoda-cli exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
