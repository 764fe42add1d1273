//! The ANNODA terminal interface — the "application user interface" box
//! of Figure 1 as a line-oriented REPL.
//!
//! ```sh
//! cargo run -p annoda --bin annoda-cli -- --loci 60 --seed 42
//! ```
//!
//! then type `help`. Works non-interactively too:
//!
//! ```sh
//! printf 'ask function=require disease=exclude\nsummary\nquit\n' \
//!   | cargo run -p annoda --bin annoda-cli
//! ```

use std::io::{self, BufRead, Write};

use annoda::parse::parse_question;
use annoda::reorganize::{self, GroupKey, SortKey};
use annoda::{
    render_integrated_view, render_object_view, Annoda, FusionStrategy, ShardedGml, GML_ROOT,
};
// Output that drops on a closed pipe (`EPIPE`): a reader that goes away
// costs the session its output, not a panic.
use annoda_federation::{print, println};
use annoda_mediator::IntegratedGene;
use annoda_oem::shard::ShardedStore;
use annoda_oem::text as oem_text;
use annoda_persist::{FsyncPolicy, ShardedDurableStore};
use annoda_sources::{Corpus, CorpusConfig};

fn main() {
    let config = corpus_config_from_args(std::env::args().skip(1));
    println!(
        "ANNODA — integrating molecular-biological annotation data\n\
         corpus: {} loci / {} GO terms / {} OMIM entries (seed {})\n\
         type `help` for commands\n",
        config.loci, config.go_terms, config.omim_entries, config.seed
    );
    let corpus = Corpus::generate(config);
    let (mut annoda, reports) = Annoda::over_sources(corpus.locuslink, corpus.go, corpus.omim);
    for r in &reports {
        println!(
            "plugged {:<10} {} rules (mean score {:.2})",
            r.source, r.matched, r.mean_score
        );
    }
    println!();

    let stdin = io::stdin();
    let mut last_answer: Vec<IntegratedGene> = Vec::new();
    let mut last_conflicts: Vec<String> = Vec::new();
    loop {
        print!("annoda> ");
        let _ = io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        match cmd {
            "quit" | "exit" => break,
            "help" => print!("{}", HELP),
            "policy" => {
                use annoda_mediator::ReconcilePolicy;
                let policy = match rest.trim() {
                    "union" => Some(ReconcilePolicy::Union),
                    "intersection" => Some(ReconcilePolicy::Intersection),
                    "vote" => Some(ReconcilePolicy::Vote),
                    s if s.starts_with("evidence:") => s["evidence:".len()..]
                        .parse::<u8>()
                        .ok()
                        .map(ReconcilePolicy::MinEvidence),
                    s if s.starts_with("precedence:") => Some(ReconcilePolicy::Precedence(
                        s["precedence:".len()..]
                            .split(',')
                            .map(|x| x.trim().to_string())
                            .collect(),
                    )),
                    "" => {
                        println!("current policy: {:?}", annoda.registry().mediator().policy);
                        continue;
                    }
                    other => {
                        println!("unknown policy `{other}` (union|intersection|vote|evidence:<n>|precedence:<s1,s2,..>)");
                        continue;
                    }
                };
                if let Some(p) = policy {
                    annoda.registry_mut().mediator_mut().policy = p;
                    println!("policy set");
                }
            }
            "optimizer" => {
                let med = annoda.registry_mut().mediator_mut();
                match rest.trim() {
                    "" => println!("{:?}", med.optimizer),
                    "pushdown" => {
                        med.optimizer.pushdown = !med.optimizer.pushdown;
                        println!("pushdown = {}", med.optimizer.pushdown);
                    }
                    "selection" => {
                        med.optimizer.source_selection = !med.optimizer.source_selection;
                        println!("source_selection = {}", med.optimizer.source_selection);
                    }
                    "bindjoin" => {
                        med.optimizer.bind_join = !med.optimizer.bind_join;
                        println!("bind_join = {}", med.optimizer.bind_join);
                    }
                    "cache" => {
                        med.enable_cache();
                        println!("subquery cache enabled");
                    }
                    other => {
                        println!("unknown switch `{other}` (pushdown|selection|bindjoin|cache)")
                    }
                }
            }
            "sources" => {
                for d in annoda.registry().sources() {
                    println!("  {:<14} {}  [{}]", d.name, d.content, d.base_url);
                }
                for (name, snap) in annoda.federation_stats() {
                    println!(
                        "  {:<14} remote: breaker={} requests={} retries={} transport_errors={} last_wall={}us",
                        name,
                        snap.breaker.as_str(),
                        snap.requests,
                        snap.retries,
                        snap.transport_errors,
                        snap.last_wall_us
                    );
                }
            }
            // Plug in a federation source-server by address; the remote
            // source then participates like any in-process wrapper.
            "remote" => {
                let addr = rest.trim();
                if addr.is_empty() {
                    println!("usage: remote <host:port>   (plug a federation source-server)");
                    continue;
                }
                match annoda.plug_remote(addr) {
                    Ok(r) => println!(
                        "plugged {:<10} {} rules (mean score {:.2}) via {addr}",
                        r.source, r.matched, r.mean_score
                    ),
                    Err(e) => println!("error: {e}"),
                }
            }
            "ask" | "plan" => match parse_question(rest) {
                Ok(question) => {
                    println!("question: {question}");
                    if cmd == "plan" {
                        print!("{}", annoda.mediator().plan(&question).describe());
                        continue;
                    }
                    match annoda.ask(&question) {
                        Ok(answer) => {
                            print!("{}", render_integrated_view(&answer.fused.genes));
                            println!(
                                "({} conflicts reconciled, {} requests, {:.1} simulated ms total / {:.1} parallel)",
                                answer.fused.conflicts.len(),
                                answer.cost.requests,
                                answer.cost.virtual_ms(),
                                answer.critical_path_us as f64 / 1000.0
                            );
                            for (src, c) in &answer.per_source_cost {
                                println!(
                                    "    {src}: {} requests, {} records, {:.1} ms",
                                    c.requests,
                                    c.records,
                                    c.virtual_ms()
                                );
                            }
                            for f in &answer.failed_sources {
                                println!("    {}: FAILED [{}] ({})", f.source, f.kind, f.error);
                            }
                            if !answer.fused.missing_sources.is_empty() {
                                println!(
                                    "    partial answer — missing: {}",
                                    answer.fused.missing_sources.join(", ")
                                );
                            }
                            last_conflicts = answer
                                .fused
                                .conflicts
                                .iter()
                                .map(|c| c.to_string())
                                .collect();
                            last_answer = answer.fused.genes;
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            // Ranked full-text search over the harvested annotation
            // text (GO definitions, OMIM titles, PubMed titles), fused
            // across sources so multi-source loci rise to the top.
            "search" => match parse_search_args(rest) {
                Ok((query, k, strategy)) => {
                    let answers = annoda.search(&query, k, strategy);
                    if answers.is_empty() {
                        println!("  (no matching loci)");
                    }
                    for (rank, a) in answers.iter().enumerate() {
                        let per_source = a
                            .per_source_scores
                            .iter()
                            .map(|(s, v)| format!("{s}={v:.3}"))
                            .collect::<Vec<_>>()
                            .join(" ");
                        println!(
                            "  {:>2}. {:<10} fused={:.4} [{}]",
                            rank + 1,
                            a.locus,
                            a.fused_score,
                            per_source
                        );
                        for (source, snippet) in &a.snippets {
                            println!("        {source}: {snippet}");
                        }
                    }
                }
                Err(e) => println!("{e}"),
            },
            "lorel" => match annoda.lorel(rest) {
                Ok((gml, outcome, _)) => {
                    print!("{}", oem_text::write_rooted(&gml, "answer", outcome.answer));
                }
                Err(e) => println!("error: {e}"),
            },
            "view" => {
                let Some((kind, key)) = rest.split_once(' ') else {
                    println!("usage: view gene|function|disease|publication <key>");
                    continue;
                };
                // The typed error distinguishes a kind the navigator
                // does not serve from a key that resolves to nothing.
                match annoda.navigator().view(kind.trim(), key.trim()) {
                    Ok(v) => print!("{}", render_object_view(&v)),
                    Err(e) => println!("error: {e}"),
                }
            }
            "group" => {
                let key = match rest.trim() {
                    "organism" => GroupKey::Organism,
                    "chromosome" => GroupKey::Chromosome,
                    "namespace" => GroupKey::GoNamespace,
                    "inheritance" => GroupKey::Inheritance,
                    other => {
                        println!("unknown group key `{other}` (organism|chromosome|namespace|inheritance)");
                        continue;
                    }
                };
                for (k, genes) in reorganize::group_genes(&last_answer, key) {
                    println!(
                        "  {:<24} {:>4}  {}",
                        k,
                        genes.len(),
                        genes
                            .iter()
                            .take(8)
                            .map(|g| g.symbol.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
            }
            "sort" => {
                let mut parts = rest.split_whitespace();
                let key = match parts.next() {
                    Some("symbol") => SortKey::Symbol,
                    Some("locus") => SortKey::LocusId,
                    Some("functions") => SortKey::FunctionCount,
                    Some("diseases") => SortKey::DiseaseCount,
                    _ => {
                        println!("usage: sort symbol|locus|functions|diseases [desc]");
                        continue;
                    }
                };
                let desc = parts.next() == Some("desc");
                reorganize::sort_genes(&mut last_answer, key, desc);
                for g in &last_answer {
                    println!(
                        "  {:<10} id={:<6} fn={} dis={}",
                        g.symbol,
                        g.gene_id.unwrap_or(-1),
                        g.functions.len(),
                        g.diseases.len()
                    );
                }
            }
            "tsv" => print!("{}", reorganize::to_tsv(&last_answer)),
            "export" => {
                let path = rest.trim();
                if path.is_empty() {
                    println!("usage: export <file.tsv>");
                    continue;
                }
                match std::fs::write(path, reorganize::to_tsv(&last_answer)) {
                    Ok(()) => println!("wrote {} genes to {path}", last_answer.len()),
                    Err(e) => println!("error: {e}"),
                }
            }
            "save" => {
                let path = rest.trim();
                if path.is_empty() {
                    println!("usage: save <file.oem>   (materialised ANNODA-GML)");
                    continue;
                }
                match annoda.mediator().materialize_gml() {
                    Ok((gml, _cost)) => {
                        match oem_text::save_to_file(&gml, std::path::Path::new(path)) {
                            Ok(()) => println!("saved {} objects to {path}", gml.len()),
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            // Journaled sibling of `save`: instead of rewriting a whole
            // OEM text file, delta-journal the materialised GML into a
            // one-shard data directory, the layout `annoda-serve
            // --data-dir` opens (crash-safe, incremental).
            "jsave" => {
                let dir = rest.trim();
                if dir.is_empty() {
                    println!("usage: jsave <data-dir>   (journal ANNODA-GML into a durable store)");
                    continue;
                }
                let materialize = || Ok(annoda.mediator().materialize_gml()?.0);
                let policy = FsyncPolicy::Always;
                let opened = ShardedGml::open(dir.as_ref(), policy, 1, GML_ROOT, materialize);
                let saved = opened.and_then(|gml| {
                    gml.commit_proposed(None, materialize)?;
                    gml.sync()?;
                    Ok(gml)
                });
                match saved {
                    Ok(gml) => {
                        let s = gml.persist_stats().expect("an opened data dir is durable");
                        println!(
                            "journaled {} records to {dir} (generation {}, wal {} bytes)",
                            s.appended_records, s.generation, s.wal_bytes
                        );
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            // Journaled sibling of `export`: recover a data directory's
            // shards (snapshot + WAL replay) and write the GML they
            // assemble to as OEM text.
            "jexport" => {
                let mut parts = rest.split_whitespace();
                let (Some(dir), Some(path)) = (parts.next(), parts.next()) else {
                    println!("usage: jexport <data-dir> <file.oem>");
                    continue;
                };
                let Ok(durable) =
                    ShardedDurableStore::open(dir.as_ref(), FsyncPolicy::OnSnapshot, 0)
                        .inspect_err(|e| println!("error: {e}"))
                else {
                    continue;
                };
                let n = durable.shard_count();
                let shards = (0..n).map(|i| durable.shard(i).store().clone().into());
                let gml = ShardedStore::from_shards(GML_ROOT, shards.collect(), vec![0; n])
                    .map(|sharded| sharded.assemble());
                let r = durable.recovery();
                println!(
                    "recovered shards: {n}, generation {} ({} snapshot objects, {} replayed records)",
                    r.generation, r.snapshot_objects, r.replayed_records
                );
                let saved = gml.and_then(|gml| {
                    oem_text::save_to_file(&gml, path.as_ref()).map(|()| gml.len())
                });
                match saved {
                    Ok(objects) => println!("exported {objects} objects to {path}"),
                    Err(e) => println!("error: {e}"),
                }
            }
            "conflicts" => {
                if last_conflicts.is_empty() {
                    println!("  (no conflicts in the last answer)");
                }
                for c in &last_conflicts {
                    println!("  {c}");
                }
            }
            "summary" => {
                let s = reorganize::summarize(&last_answer);
                println!(
                    "  genes {}  functions {} (mean {:.2})  diseases {} (mean {:.2})  conflicts {}",
                    s.genes,
                    s.functions_total,
                    s.functions_mean,
                    s.diseases_total,
                    s.diseases_mean,
                    last_conflicts.len()
                );
                for (org, n) in &s.per_organism {
                    println!("    {org}: {n}");
                }
            }
            other => println!("unknown command `{other}` — try `help`"),
        }
    }
}

const HELP: &str = "\
commands:
  sources                      list plugged annotation sources (remote ones
                               with breaker state and latency counters)
  remote <host:port>           plug in a federation source-server
  ask <clauses>                answer a biological question; clauses:
                                 organism=<name>  symbol=<like-pattern>
                                 function=require|exclude[:<pattern>]
                                 disease=require|exclude[:<pattern>]
                                 publication=require|exclude[:<pattern>]
                                 combine=all|any
  plan <clauses>               show the decomposed execution plan only
  lorel <query>                run a Lorel query against ANNODA-GML
  search \"phrase\" [--k N] [--fusion weighted|rrf|maxscore]
                               BM25-ranked search over annotation text,
                               rank-fused across sources
  view gene|function|disease|publication <key>
                               individual object view (Figure 5c)
  group organism|chromosome|namespace|inheritance
                               re-organise the last answer
  sort symbol|locus|functions|diseases [desc]
  tsv                          print the last answer as a table
  export <file.tsv>            write the last answer to a file
  save <file.oem>              save the materialised ANNODA-GML to disk
  jsave <data-dir>             journal ANNODA-GML into a one-shard data dir
                               (incremental delta, crash-safe)
  jexport <data-dir> <file.oem>
                               recover a data dir's shards, export the GML
  summary                      statistics of the last answer
  conflicts                    list conflicts reconciled in the last answer
  policy [union|intersection|vote|evidence:<n>|precedence:<s1,s2>]
                               show or set the reconciliation policy
  optimizer [pushdown|selection|bindjoin|cache]
                               show the optimizer config or toggle a switch
  quit
";

/// Parses the `search` command tail: an optionally-quoted phrase
/// followed by `--k N` / `--fusion <strategy>` flags in any order.
fn parse_search_args(rest: &str) -> Result<(String, usize, FusionStrategy), String> {
    const USAGE: &str = "usage: search \"phrase\" [--k N] [--fusion weighted|rrf|maxscore]";
    let rest = rest.trim();
    let (query, tail) = if let Some(stripped) = rest.strip_prefix('"') {
        let Some(end) = stripped.find('"') else {
            return Err(format!("unterminated quote — {USAGE}"));
        };
        (stripped[..end].to_string(), &stripped[end + 1..])
    } else {
        // Unquoted: everything up to the first flag is the phrase.
        let cut = rest.find("--").unwrap_or(rest.len());
        (rest[..cut].trim().to_string(), &rest[cut..])
    };
    if query.trim().is_empty() {
        return Err(USAGE.to_string());
    }
    let mut k = 10usize;
    let mut strategy = FusionStrategy::Weighted;
    let mut parts = tail.split_whitespace();
    while let Some(flag) = parts.next() {
        match flag {
            "--k" => {
                k = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--k needs a positive integer — {USAGE}"))?;
            }
            "--fusion" => {
                let v = parts.next().unwrap_or("");
                strategy = FusionStrategy::parse(v)
                    .ok_or_else(|| format!("unknown fusion `{v}` — {USAGE}"))?;
            }
            other => return Err(format!("unknown flag `{other}` — {USAGE}")),
        }
    }
    Ok((query, k, strategy))
}

/// Parses `--loci N --seed S --inconsistency F` style arguments.
fn corpus_config_from_args(args: impl Iterator<Item = String>) -> CorpusConfig {
    let mut config = CorpusConfig {
        loci: 60,
        go_terms: 40,
        omim_entries: 25,
        seed: 42,
        inconsistency_rate: 0.1,
    };
    let args: Vec<String> = args.collect();
    let mut i = 0;
    while i + 1 < args.len() {
        match args[i].as_str() {
            "--loci" => {
                if let Ok(n) = args[i + 1].parse() {
                    config.loci = n;
                }
            }
            "--seed" => {
                if let Ok(n) = args[i + 1].parse() {
                    config.seed = n;
                }
            }
            "--inconsistency" => {
                if let Ok(f) = args[i + 1].parse() {
                    config.inconsistency_rate = f;
                }
            }
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let cfg = corpus_config_from_args(
            ["--loci", "99", "--seed", "7", "--inconsistency", "0.5"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(cfg.loci, 99);
        assert_eq!(cfg.seed, 7);
        assert!((cfg.inconsistency_rate - 0.5).abs() < 1e-9);
        // Unknown args are skipped, defaults survive.
        let cfg = corpus_config_from_args(["--wat", "x"].iter().map(|s| s.to_string()));
        assert_eq!(cfg.loci, 60);
    }

    #[test]
    fn search_arg_parsing() {
        let (q, k, s) = parse_search_args("\"dna repair\" --k 5 --fusion rrf").unwrap();
        assert_eq!((q.as_str(), k, s), ("dna repair", 5, FusionStrategy::Rrf));
        // Unquoted phrase runs to the first flag; defaults otherwise.
        let (q, k, s) = parse_search_args("transcription factor").unwrap();
        assert_eq!(
            (q.as_str(), k, s),
            ("transcription factor", 10, FusionStrategy::Weighted)
        );
        let (_, _, s) = parse_search_args("p53 --fusion maxscore").unwrap();
        assert_eq!(s, FusionStrategy::MaxScore);
        assert!(parse_search_args("").is_err());
        assert!(parse_search_args("\"unterminated").is_err());
        assert!(parse_search_args("x --k 0").is_err());
        assert!(parse_search_args("x --fusion wat").is_err());
        assert!(parse_search_args("x --bogus").is_err());
    }
}
