//! The repo's benchmark: four workloads against an out-of-process
//! `annoda-serve`, end-to-end metrics with fixed bounds, and a traced
//! in-process replay that attributes the numbers to crates.
//!
//! `README.md` in this directory is the manual; `run.sh` builds the
//! system under test and this harness, then runs it.

mod client;
mod feed;
mod metrics;
mod oracle;
mod spans;
mod stats;
mod streams;
mod sut;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use annoda_sources::{Corpus, CorpusConfig};

use metrics::{def, Cell, END_TO_END, PER_LAYER};
use oracle::Oracle;
use streams::{Plan, Workload};
use workload::{RunConfig, RunResult};

/// Warm-up before every timed window.
const WARMUP: Duration = Duration::from_secs(3);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The window `BENCHMARK.json` runs (`run_seconds`); sample floors are
/// stated for it and scale with shorter windows.
const FULL_WINDOW_S: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    sut: PathBuf,
    out: PathBuf,
    commit: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: annoda-benchmark --sut PATH [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--repeat K] [--out DIR] [--commit HASH]\n\
         workloads: cached_reads uncached_asks lorel_search_mix reads_under_writes"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: FULL_WINDOW_S,
        trace: false,
        smoke: false,
        repeat: 0,
        sut: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload");
                args.workload = Some(Workload::parse(&name).unwrap_or_else(|| {
                    eprintln!("error: unknown workload `{name}`");
                    usage()
                }));
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--repeat" => args.repeat = value("--repeat").parse().unwrap_or_else(|_| usage()),
            "--sut" => args.sut = PathBuf::from(value("--sut")),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--commit" => args.commit = value("--commit"),
            "--smoke" => args.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => {
                eprintln!("error: unknown flag `{flag}`");
                usage()
            }
        }
    }
    if args.sut.as_os_str().is_empty() || !(args.seconds.is_finite() && args.seconds > 0.0) {
        usage();
    }
    if args.smoke {
        args.seconds = 2.0;
    }
    args
}

/// Everything one `(workload, seed)` produced.
struct Outcome {
    workload: Workload,
    end_to_end: Vec<Cell>,
    per_layer: Vec<Cell>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Observations of the traced replay that fail nothing.
    warnings: Vec<String>,
}

impl Outcome {
    /// End-to-end cells below their sample floor. (A per-layer cell
    /// below its floor is printed `UNRESOLVED` but fails nothing: some
    /// floors, a p99's thousand samples, are out of a heavy workload's
    /// reach in one window.)
    fn unresolved(&self) -> Vec<&'static str> {
        self.end_to_end
            .iter()
            .filter(|c| !c.resolved)
            .map(|c| c.name)
            .collect()
    }
}

/// The corpus is the database, and the same in every run: `--seed`
/// picks the requests, not the data, so that runs on different seeds
/// measure the same system. (The year the paper appeared.)
const CORPUS_SEED: u64 = 2005;
/// Its size. The sample floors, the hot set, the question space, the
/// readiness probes and the warm-up are calibrated to this one size,
/// and the recorded baselines were taken on it.
const LOCI: usize = 2000;

/// The corpus `annoda-serve --loci LOCI --seed CORPUS_SEED` generates.
fn corpus() -> Corpus {
    let base = CorpusConfig::default();
    Corpus::generate(CorpusConfig {
        seed: CORPUS_SEED,
        ..base.scaled(LOCI as f64 / base.loci as f64)
    })
}

/// Runs one workload: the out-of-process run, and with `traced` also
/// the in-process replay.
fn run_one(args: &Args, workload: Workload, traced: bool) -> std::io::Result<Outcome> {
    let corpus_started = Instant::now();
    let corpus = corpus();
    let corpus_gen_ms = corpus_started.elapsed().as_secs_f64() * 1e3;
    let oracle = Oracle::new(&corpus);
    let plan = Plan::new(workload, &oracle, args.seed);
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        corpus_seed: CORPUS_SEED,
        loci: LOCI,
        window: Duration::from_secs_f64(args.seconds),
        warmup: if args.smoke {
            Duration::from_secs(1)
        } else {
            WARMUP
        },
        setups: if args.smoke { 1 } else { SETUPS },
        sut: args.sut.clone(),
        scratch: args.out.clone(),
        floor_scale: (args.seconds / FULL_WINDOW_S).min(1.0),
    };
    let RunResult {
        end_to_end,
        mut layer,
        mut attempted,
        mut failed,
        mut failures,
    } = workload::run(&cfg, &corpus, &oracle, &plan)?;
    let mut warnings = Vec::new();
    if traced {
        let trace_file =
            (!args.smoke).then(|| args.out.join(format!("trace-{}.jsonl", workload.name())));
        let replay_budget = Duration::from_secs_f64((args.seconds / 4.0).clamp(1.0, 5.0));
        let traced = trace::run(
            &corpus,
            &oracle,
            &plan,
            &args.out,
            replay_budget,
            trace_file.as_deref(),
        )?;
        layer.push(Cell::plain("sources.corpus_gen_ms", corpus_gen_ms, 1));
        layer.extend(traced.cells);
        // A replayed answer the oracle rejects is a failed operation too.
        attempted += traced.mismatches.len() as u64;
        failed += traced.mismatches.len() as u64;
        failures.extend(traced.mismatches);
        warnings = traced.warnings;
    }
    // Every per-layer metric is reported by every workload; the ones a
    // workload does not exercise read 0 with 0 samples.
    let per_layer = PER_LAYER
        .iter()
        .map(|d| {
            layer
                .iter()
                .find(|c| c.name == d.name)
                .cloned()
                .unwrap_or_else(|| Cell::plain(d.name, 0.0, 0))
        })
        .collect();
    Ok(Outcome {
        workload,
        end_to_end,
        per_layer,
        attempted,
        failed,
        failures,
        warnings,
    })
}

fn print_rows(outcome: &Outcome, traced: bool) {
    let mut out = std::io::stdout().lock();
    let sections: &[(&str, &[Cell])] = if traced {
        &[
            ("end-to-end", &outcome.end_to_end),
            ("per-layer", &outcome.per_layer),
        ]
    } else {
        &[("end-to-end", &outcome.end_to_end)]
    };
    for (section, cells) in sections {
        for c in cells.iter() {
            let unit = def(c.name).map_or("", |d| d.unit);
            let shown = match (c.resolved, c.samples) {
                (false, _) => format!("UNRESOLVED ({:.4})", c.value),
                (true, 0) => "n/a".to_string(),
                (true, _) => format!("{:.4}", c.value),
            };
            let _ = writeln!(
                out,
                "{:<20} {:<11} {:<40} {:>18} {:<6} n={}",
                outcome.workload.name(),
                section,
                c.name,
                shown,
                unit,
                c.samples
            );
        }
    }
    // Which tail this many reads can carry (ten samples beyond it).
    let reads = outcome
        .end_to_end
        .iter()
        .find(|c| c.name == "read_p50_us")
        .map_or(0, |c| c.samples);
    let tail = stats::highest_supported_percentile(reads as usize, &[50.0, 90.0, 95.0, 99.0, 99.9])
        .map_or("none".to_string(), |p| format!("p{p}"));
    let _ = writeln!(
        out,
        "{:<20} {:<11} attempted={} failed={} (reads support a tail up to {tail})",
        outcome.workload.name(),
        "oracle",
        outcome.attempted,
        outcome.failed
    );
    for f in &outcome.failures {
        let _ = writeln!(out, "{:<20} {:<11} {f}", outcome.workload.name(), "failure");
    }
    for w in &outcome.warnings {
        let _ = writeln!(out, "{:<20} {:<11} {w}", outcome.workload.name(), "warning");
    }
}

fn json_metrics(cells: &[Cell]) -> String {
    let fields: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                c.name,
                c.value,
                def(c.name).map_or("", |d| d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn first_line(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with(key))
                .map(|l| l.split(':').nth(1).unwrap_or(l).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line of `history.jsonl`: the environment and every cell of a set.
fn history_line(args: &Args, set: &[Outcome]) -> String {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let workloads: Vec<String> = set
        .iter()
        .map(|o| {
            let mut cells = o.end_to_end.clone();
            cells.extend(o.per_layer.iter().filter(|c| c.samples > 0).cloned());
            format!(
                "\"{}\": {{\"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                o.workload.name(),
                o.attempted,
                o.failed,
                json_metrics(&cells)
            )
        })
        .collect();
    format!(
        "{{\"ts\": {ts}, \"env\": {{\"nproc\": {}, \"cpu\": \"{}\", \"kernel\": \"{kernel}\", \"commit\": \"{}\", \"profile\": \"release\", \"seed\": {}, \"loci\": {LOCI}, \"window_s\": {}, \"warmup_s\": {}, \"setups\": {SETUPS}, \"clients\": {}, \"traced\": {}}}, \"workloads\": {{{}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        first_line("/proc/cpuinfo", "model name"),
        args.commit,
        args.seed,
        args.seconds,
        WARMUP.as_secs_f64(),
        workload::client_count(),
        args.trace,
        workloads.join(", ")
    )
}

/// One full set: every workload, in the given order.
fn run_set(args: &Args, order: &[Workload]) -> std::io::Result<Vec<Outcome>> {
    let mut set = Vec::new();
    for &w in order {
        let outcome = run_one(args, w, args.trace)?;
        print_rows(&outcome, args.trace);
        set.push(outcome);
    }
    if !args.smoke {
        let path = args.out.parent().unwrap_or(&args.out).join("history.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", history_line(args, &set))?;
    }
    Ok(set)
}

fn set_is_clean(set: &[Outcome]) -> bool {
    set.iter()
        .all(|o| o.failed == 0 && o.unresolved().is_empty())
}

/// `--repeat K`: K full sets, alternating the workload order, then the
/// spread of every end-to-end cell against its bound.
fn repeat(args: &Args) -> std::io::Result<bool> {
    let mut sets = Vec::new();
    for k in 0..args.repeat {
        let mut order = Workload::ALL.to_vec();
        if k % 2 == 1 {
            order.reverse();
        }
        println!("--- set {} of {} ---", k + 1, args.repeat);
        sets.push(run_set(args, &order)?);
    }
    let mut ok = sets.iter().all(|s| set_is_clean(s));
    println!(
        "--- repeatability over {} sets: median [q1 .. q3], spread / bound ---",
        sets.len()
    );
    for w in Workload::ALL {
        for d in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .flat_map(|s| s.iter().filter(|o| o.workload == w))
                .flat_map(|o| o.end_to_end.iter().filter(|c| c.name == d.name))
                .map(|c| c.value)
                .collect();
            let (Some((q1, q2, q3)), Some(spread)) =
                (stats::quartiles(&values), stats::spread(&values))
            else {
                continue;
            };
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let within = spread <= bound;
            ok &= within;
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!("{:<20} {:<22} {:>14.4} [{:.4} .. {:.4}] {:<6} ({better} is better) spread {:.4} / bound {:.2} = {:.2}{}", w.name(), d.name, q2, q1, q3, d.unit, spread, bound, spread / bound, if within { "" } else { "  EXCEEDED" });
        }
    }
    Ok(ok)
}

fn real_main() -> std::io::Result<ExitCode> {
    let args = parse_args();
    // Scratch space for the SUT's data directory and the trace files;
    // `--smoke` removes it again, so it leaves nothing behind.
    std::fs::create_dir_all(&args.out)?;
    let clean = match (args.workload, args.repeat) {
        // The driver's form: one workload, one JSON object last.
        (Some(w), _) => {
            let outcome = run_one(&args, w, args.trace)?;
            print_rows(&outcome, args.trace);
            let unresolved = outcome.unresolved();
            if !args.trace && !unresolved.is_empty() {
                eprintln!("error: below the sample floor: {unresolved:?}");
                return Ok(ExitCode::FAILURE);
            }
            let cells = if args.trace {
                &outcome.per_layer
            } else {
                &outcome.end_to_end
            };
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.failed == 0,
                outcome.attempted.max(1),
                outcome.failed,
                json_metrics(cells)
            );
            true
        }
        (None, 0) => set_is_clean(&run_set(&args, &Workload::ALL)?),
        (None, _) => repeat(&args)?,
    };
    if args.smoke {
        let _ = std::fs::remove_dir(&args.out);
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
