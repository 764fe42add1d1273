//! `source-server` — one wrapped annotation source behind a socket.
//!
//! Runs one of the paper's sources (over a seeded synthetic corpus) as a
//! standalone AFED server, the deployable unit of Figure 1's
//! wrapper/mediator boundary:
//!
//! ```text
//! source-server --source locuslink --bind 127.0.0.1:7401 --loci 500
//! source-server --source go --bind 127.0.0.1:0 \
//!     --flaky every:3 --delay-ms 5 --drop-first 2
//! ```
//!
//! Prints `listening on <addr> source=<name>` once ready (port 0 binds an
//! ephemeral port — scripts parse this line). Fault flags compose:
//! `--flaky`/`--delay-*` act at the wrapper layer via `FlakyWrapper`
//! (injected `Transport` errors abort the connection), `--drop-*` act at
//! the accept loop before the handshake.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

// Output that drops on a closed pipe (`EPIPE`), so `--max-seconds`
// still shuts down cleanly, exiting 0, when the reader has gone.
use annoda_federation::{eprintln, println};
use annoda_federation::{ChangeRecord, FaultConfig, ServerConfig, SourceServer};
use annoda_sources::{Corpus, CorpusConfig};
use annoda_wrap::{
    scripted_mutation, DelayMode, FailureMode, FlakyWrapper, GoWrapper, LocusLinkWrapper,
    OmimWrapper, PubmedWrapper, Wrapper,
};

const USAGE: &str = "usage: source-server --source locuslink|go|omim|pubmed [options]
  --bind ADDR          listen address (default 127.0.0.1:0 = ephemeral)
  --loci N             corpus size (default 500; GO/OMIM sizes scale along)
  --seed N             corpus seed (default 42)
  --max-seconds N      exit cleanly after N seconds (default 0 = run forever)
  --mutate-every MS    apply one scripted native-db mutation every MS
                       milliseconds, journaling it on the change feed
                       (locuslink/omim only; deterministic under --seed)
  --flaky MODE         inject failures: always | every:N | panic
  --delay-ms N         stall every subquery N milliseconds
  --delay-jitter B:S:SEED  stall base B..B+S ms, seeded jitter
  --drop-first N       drop the first N connections before handshake
  --drop-every N       drop every N-th connection before handshake";

struct Args {
    source: String,
    bind: String,
    loci: usize,
    seed: u64,
    max_seconds: u64,
    mutate_every_ms: u64,
    flaky: Option<FailureMode>,
    delay: DelayMode,
    fault: FaultConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        source: String::new(),
        bind: "127.0.0.1:0".to_string(),
        loci: 500,
        seed: 42,
        max_seconds: 0,
        mutate_every_ms: 0,
        flaky: None,
        delay: DelayMode::None,
        fault: FaultConfig::none(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--source" => args.source = value("--source")?,
            "--bind" => args.bind = value("--bind")?,
            "--loci" => args.loci = parse_num(&value("--loci")?, "--loci")? as usize,
            "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
            "--max-seconds" => {
                args.max_seconds = parse_num(&value("--max-seconds")?, "--max-seconds")?
            }
            "--mutate-every" => {
                args.mutate_every_ms = parse_num(&value("--mutate-every")?, "--mutate-every")?
            }
            "--flaky" => {
                let mode = value("--flaky")?;
                args.flaky = Some(match mode.as_str() {
                    "always" => FailureMode::Always,
                    "panic" => FailureMode::Panic,
                    other => match other.strip_prefix("every:") {
                        Some(n) => FailureMode::EveryNth(parse_num(n, "--flaky every:N")?),
                        None => return Err(format!("unknown --flaky mode {mode}")),
                    },
                });
            }
            "--delay-ms" => {
                let ms = parse_num(&value("--delay-ms")?, "--delay-ms")?;
                args.delay = DelayMode::Fixed(Duration::from_millis(ms));
            }
            "--delay-jitter" => {
                let spec = value("--delay-jitter")?;
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 3 {
                    return Err("--delay-jitter wants BASE_MS:SPREAD_MS:SEED".to_string());
                }
                args.delay = DelayMode::Jittered {
                    base: Duration::from_millis(parse_num(parts[0], "--delay-jitter base")?),
                    spread: Duration::from_millis(parse_num(parts[1], "--delay-jitter spread")?),
                    seed: parse_num(parts[2], "--delay-jitter seed")?,
                };
            }
            "--drop-first" => {
                args.fault.drop_first = parse_num(&value("--drop-first")?, "--drop-first")?
            }
            "--drop-every" => {
                args.fault.drop_every = parse_num(&value("--drop-every")?, "--drop-every")?
            }
            // The empty error: `main` prints the usage and exits 0.
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.source.is_empty() {
        return Err("--source is required".to_string());
    }
    Ok(args)
}

fn parse_num(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad number for {what}: {s}"))
}

/// Boxes `w`, decorating it with `FlakyWrapper` when any fault or delay
/// is configured.
fn boxed<W: Wrapper>(w: W, flaky: Option<FailureMode>, delay: DelayMode) -> Box<dyn Wrapper> {
    match (flaky, delay) {
        (None, DelayMode::None) => Box::new(w),
        (mode, delay) => {
            Box::new(FlakyWrapper::new(w, mode.unwrap_or(FailureMode::Never)).with_delay(delay))
        }
    }
}

fn build_wrapper(args: &Args) -> Result<Box<dyn Wrapper>, String> {
    let corpus = Corpus::generate(CorpusConfig {
        loci: args.loci,
        seed: args.seed,
        ..CorpusConfig::default().scaled(args.loci as f64 / 500.0)
    });
    Ok(match args.source.as_str() {
        "locuslink" => boxed(
            LocusLinkWrapper::new(corpus.locuslink),
            args.flaky,
            args.delay,
        ),
        "go" => boxed(GoWrapper::new(corpus.go), args.flaky, args.delay),
        "omim" => boxed(OmimWrapper::new(corpus.omim), args.flaky, args.delay),
        "pubmed" => boxed(PubmedWrapper::new(corpus.pubmed), args.flaky, args.delay),
        other => return Err(format!("unknown source {other}")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let wrapper = match build_wrapper(&args) {
        Ok(w) => w,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let name = wrapper.name().to_string();
    let config = ServerConfig {
        fault: args.fault,
        ..ServerConfig::default()
    };
    let mut server = match SourceServer::spawn(wrapper, &args.bind, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind {}: {e}", args.bind);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {} source={name}", server.addr());
    if args.mutate_every_ms > 0 {
        let wrapper = Arc::clone(server.wrapper());
        let journal = Arc::clone(server.journal());
        let seed = args.seed;
        let period = Duration::from_millis(args.mutate_every_ms);
        // Detached on purpose: the mutator lives as long as the process.
        let mutator = std::thread::Builder::new().name("afed-mutate".into());
        mutator
            .spawn(move || {
                let mut step = 0u64;
                loop {
                    std::thread::sleep(period);
                    let mut w = wrapper.write().expect("wrapper lock");
                    if let Some((key, flat)) = scripted_mutation(&mut **w, seed, step) {
                        journal.append(ChangeRecord {
                            key,
                            flat: Some(flat),
                        });
                        w.refresh();
                    }
                    step += 1;
                }
            })
            .expect("spawn the --mutate-every thread");
    }
    if args.max_seconds > 0 {
        std::thread::sleep(Duration::from_secs(args.max_seconds));
        server.shutdown();
        println!("shutting down after {}s", args.max_seconds);
        eprintln!("sessions: {}", server.stats());
    } else {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    ExitCode::SUCCESS
}
