//! The seeded request streams of the four workloads.
//!
//! Everything here is a pure function of `(workload, corpus, seed)`:
//! equal seeds give equal streams, so the out-of-process run and the
//! traced in-process replay see the same requests.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::oracle::{Clause, Expect, Oracle, Question};

/// The four workloads; why each exists is in `README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CachedReads,
    UncachedAsks,
    LorelSearchMix,
    ReadsUnderWrites,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CachedReads,
        Workload::UncachedAsks,
        Workload::LorelSearchMix,
        Workload::ReadsUnderWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CachedReads => "cached_reads",
            Workload::UncachedAsks => "uncached_asks",
            Workload::LorelSearchMix => "lorel_search_mix",
            Workload::ReadsUnderWrites => "reads_under_writes",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the SUT tails the harness's change feed.
    pub fn writes(self) -> bool {
        self == Workload::ReadsUnderWrites
    }
}

/// Which route a request exercises (the per-operation medians).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Genes,
    Object,
    Lorel,
    Search,
}

/// One request and what its answer must satisfy.
#[derive(Debug, Clone)]
pub struct Req {
    pub op: Op,
    /// Path plus query; `POST /lorel` when `body` is non-empty.
    pub target: String,
    /// `Accept: application/json` instead of `text/plain`.
    pub json: bool,
    /// The Lorel query text of a `POST /lorel`.
    pub body: String,
    /// Send `If-None-Match` when the client holds an `ETag` for the
    /// target (the 1-in-8 revalidation of the hot-set workloads).
    pub conditional: bool,
    pub expect: Expect,
}

/// Entries in the hot set. It must fit one reactor shard's response
/// cache (256 entries), because either shard may serve any connection.
pub const HOT_SET: usize = 64;
/// Distinct `/genes` questions prepared per run: 16x the response
/// cache (2 shards x 256), so the cache cannot help.
pub const ASK_SPACE: usize = 8192;
/// Response-cache entries per reactor shard (`ServeConfig::default`).
pub const RESPONSE_CACHE_PER_SHARD: usize = 256;

const ORGANISMS: [&str; 3] = ["Homo sapiens", "Mus musculus", "Rattus norvegicus"];
const JOIN: &str = "select count(G) from ANNODA-GML.Gene G, G.FunctionID F, G.DiseaseID D";
const EXAMPLE: &str = r#"select S from ANNODA-GML.Source S where S.Name = "LocusLink""#;

/// The shared, immutable part of a workload's streams.
pub struct Plan {
    workload: Workload,
    seed: u64,
    /// Hot set (hot-set workloads) or the distinct questions (asks).
    fixed: Arc<Vec<Req>>,
    symbols: Arc<Vec<String>>,
    searches: Arc<Vec<String>>,
    join_rows: u64,
}

/// Words that occur in GO term names and OMIM titles of this corpus —
/// the vocabulary `/search` queries are drawn from, so every query has
/// a hit. The program's own tokenizer filters the candidates (inputs
/// only, never expectations): a stopword such as "protein" would make
/// a query that cannot hit.
fn vocabulary(oracle: &Oracle) -> Vec<String> {
    let names = oracle
        .genes()
        .iter()
        .flat_map(|g| g.functions.values().chain(g.diseases.values()));
    distinct_words(names, |c| !c.is_ascii_alphabetic())
        .into_iter()
        .map(|w| w.to_ascii_lowercase())
        .filter(|w| annoda_search::tokenize(w) == [w.as_str()])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// The distinct words of more than three letters in `names`, sorted.
fn distinct_words<'a>(
    names: impl Iterator<Item = &'a String>,
    separator: fn(char) -> bool,
) -> Vec<String> {
    names
        .flat_map(|name| name.split(separator))
        .filter(|w| w.len() > 3)
        .map(str::to_string)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Function-name words (GO term names are `<process> <function>`).
fn function_words(oracle: &Oracle) -> Vec<String> {
    distinct_words(
        oracle.genes().iter().flat_map(|g| g.functions.values()),
        |c| c == ' ',
    )
}

/// Disease-title words (OMIM titles are `<QUALIFIER> <WORD> <n>`; the
/// number is dropped).
fn disease_words(oracle: &Oracle) -> Vec<String> {
    let mut words = distinct_words(
        oracle.genes().iter().flat_map(|g| g.diseases.values()),
        |c| c == ' ',
    );
    words.retain(|w| w.chars().all(|c| c.is_ascii_alphabetic() || c == '-'));
    words
}

/// Fisher–Yates (the vendored `rand` has no `shuffle`).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn search_target(a: &str, b: &str, k: usize, fusion: &str) -> String {
    format!("/search?q={a}+{b}&k={k}&fusion={fusion}")
}

/// `GET /object/gene/{symbol}`, text.
pub fn object_view(symbol: &str) -> Req {
    Req {
        op: Op::Object,
        target: format!("/object/gene/{symbol}"),
        json: false,
        body: String::new(),
        conditional: false,
        expect: Expect::Object {
            symbol: symbol.to_string(),
        },
    }
}

fn ask(oracle: &Oracle, q: &Question, json: bool) -> Req {
    Req {
        op: Op::Genes,
        target: q.target(),
        json,
        body: String::new(),
        conditional: false,
        expect: Expect::Genes(oracle.answer(q).into_iter().map(str::to_string).collect()),
    }
}

fn search(target: String, k: usize, json: bool) -> Req {
    Req {
        op: Op::Search,
        target,
        json,
        body: String::new(),
        conditional: false,
        expect: Expect::Search { k },
    }
}

fn lorel(body: String, json: bool, expect: Expect) -> Req {
    Req {
        op: Op::Lorel,
        target: "/lorel".to_string(),
        json,
        body,
        conditional: false,
        expect,
    }
}

/// `POST /lorel`: the gene named `symbol`, by equality (index path).
pub fn point_lookup(symbol: &str) -> Req {
    lorel(
        format!(r#"select G from ANNODA-GML.Gene G where G.Symbol = "{symbol}""#),
        false,
        Expect::LorelPoint {
            symbol: symbol.to_string(),
        },
    )
}

/// The requests whose correct answers mark the SUT as ready — the end
/// of `setup_s`. The same in every run of a workload (the corpus is
/// fixed and these do not depend on the seed), and of the kind the
/// workload opens with; for the Lorel mix a lookup *and* a search, so
/// both the snapshot and the search index are built.
pub fn readiness_probes(oracle: &Oracle, workload: Workload) -> Vec<Req> {
    let gene = &oracle.genes()[0];
    match workload {
        Workload::CachedReads | Workload::ReadsUnderWrites => vec![object_view(&gene.symbol)],
        Workload::UncachedAsks => {
            let q = Question {
                prefix: Some(gene.symbol.chars().take(3).collect()),
                organism: None,
                function: Clause::Ignore,
                disease: Clause::Ignore,
                any: false,
            };
            vec![ask(oracle, &q, false)]
        }
        Workload::LorelSearchMix => {
            let words = vocabulary(oracle);
            vec![
                point_lookup(&gene.symbol),
                search(search_target(&words[0], &words[1], 5, "weighted"), 5, false),
            ]
        }
    }
}

fn hot_set(oracle: &Oracle, rng: &mut StdRng) -> Vec<Req> {
    let genes = oracle.genes();
    let mut picks: Vec<usize> = (0..genes.len()).collect();
    shuffle(&mut picks, rng);
    let mut set = Vec::with_capacity(HOT_SET);
    // 32 object views of distinct genes.
    for &i in picks.iter().take(32) {
        set.push(object_view(&genes[i].symbol));
    }
    // 24 selective questions: a three-letter symbol prefix, every
    // second one narrowed to the organism of the gene it came from.
    let mut prefixes = HashSet::new();
    for &i in picks.iter().skip(32) {
        if set.len() == 56 {
            break;
        }
        let prefix: String = genes[i].symbol.chars().take(3).collect();
        if !prefixes.insert(prefix.clone()) {
            continue;
        }
        let organism = (set.len() % 2 == 0)
            .then(|| ORGANISMS.into_iter().find(|o| *o == genes[i].organism))
            .flatten();
        let q = Question {
            prefix: Some(prefix),
            organism,
            function: Clause::Ignore,
            disease: Clause::Ignore,
            any: false,
        };
        set.push(ask(oracle, &q, false));
    }
    // 8 searches.
    let words = vocabulary(oracle);
    while set.len() < HOT_SET {
        let (a, b) = (
            words.choose(rng).expect("vocabulary"),
            words.choose(rng).expect("vocabulary"),
        );
        let target = search_target(a, b, 5, "weighted");
        if set.iter().all(|r| r.target != target) {
            set.push(search(target, 5, false));
        }
    }
    // 3 in 4 text/plain, 1 in 4 JSON — fixed per entry, so an entry is
    // one cache key. The JSON entries are object views and searches:
    // a JSON `/genes` body carries `cost_requests`, which depends on
    // the mediator's subquery cache, so two reactor shards can serve
    // different bytes under one `ETag` and the byte-identity check
    // would (rightly) fail.
    for (i, req) in set.iter_mut().filter(|r| r.op != Op::Genes).enumerate() {
        req.json = i % 5 < 2;
    }
    set
}

/// A random active clause; `bare_ok` allows the pattern-less forms,
/// which match every annotated gene.
fn clause(rng: &mut StdRng, words: &[String], bare_ok: bool) -> Clause {
    match rng.gen_range(0..4) {
        0 if bare_ok => Clause::Require(None),
        1 if bare_ok => Clause::Exclude(None),
        2 => Clause::Exclude(words.choose(rng).cloned()),
        _ => Clause::Require(words.choose(rng).cloned()),
    }
}

/// The class of the `i`-th question, cycling: 7 point lookups (0),
/// 5 selective semijoins (1), 3 one-source filters (2), 3 two-source
/// joins (3), 2 three-source joins (4) in every 20 — and the same mix
/// on the even and the odd positions, which the two connections split.
/// Classes differ tenfold in cost, so drawing them at random would make
/// a run's median depend on the seed's luck.
const CLASS_CYCLE: [u8; 20] = [0, 0, 1, 2, 0, 1, 2, 0, 0, 3, 3, 2, 1, 0, 0, 1, 4, 3, 1, 4];

/// One seeded question of the given class. Classes follow
/// `workload::question_classes` (point lookup, one-source filter, two-
/// and three-source joins, selective semijoin); a question without a
/// symbol prefix always carries a name pattern, so no answer is the
/// whole corpus.
fn question(
    rng: &mut StdRng,
    class: u8,
    symbols: &[String],
    fwords: &[String],
    dwords: &[String],
) -> Question {
    let symbol = symbols.choose(rng).expect("symbols");
    let prefix = |n: usize| Some(symbol.chars().take(n).collect::<String>());
    let organism = |rng: &mut StdRng| ORGANISMS.choose(rng).copied();
    match class {
        // point lookup by prefix, sometimes narrowed
        0 => Question {
            prefix: prefix(3),
            organism: if rng.gen_bool(0.5) {
                organism(rng)
            } else {
                None
            },
            function: if rng.gen_bool(0.5) {
                clause(rng, fwords, true)
            } else {
                Clause::Ignore
            },
            disease: if rng.gen_bool(0.3) {
                clause(rng, dwords, true)
            } else {
                Clause::Ignore
            },
            any: rng.gen_bool(0.3),
        },
        // selective semijoin: a wider prefix joined to GO and/or OMIM
        1 => Question {
            prefix: prefix(2),
            organism: None,
            function: clause(rng, fwords, true),
            disease: if rng.gen_bool(0.5) {
                clause(rng, dwords, true)
            } else {
                Clause::Ignore
            },
            any: rng.gen_bool(0.5),
        },
        // one-source filter: organism within a one-letter prefix
        2 => Question {
            prefix: prefix(1),
            organism: organism(rng),
            function: if rng.gen_bool(0.5) {
                clause(rng, fwords, false)
            } else {
                Clause::Ignore
            },
            disease: Clause::Ignore,
            any: false,
        },
        // two-source join: organism x GO name pattern
        3 => Question {
            prefix: None,
            organism: organism(rng),
            function: Clause::Require(fwords.choose(rng).cloned()),
            disease: if rng.gen_bool(0.5) {
                clause(rng, dwords, true)
            } else {
                Clause::Ignore
            },
            any: rng.gen_bool(0.5),
        },
        // three-source join with negation (the Figure 5b shape)
        _ => Question {
            prefix: None,
            organism: if rng.gen_bool(0.5) {
                organism(rng)
            } else {
                None
            },
            function: Clause::Require(fwords.choose(rng).cloned()),
            disease: Clause::Exclude(if rng.gen_bool(0.5) {
                dwords.choose(rng).cloned()
            } else {
                None
            }),
            any: false,
        },
    }
}

impl Plan {
    pub fn new(workload: Workload, oracle: &Oracle, seed: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000);
        let symbols: Vec<String> = oracle.genes().iter().map(|g| g.symbol.clone()).collect();
        let mut fixed = Vec::new();
        let mut searches = Vec::new();
        match workload {
            Workload::CachedReads | Workload::ReadsUnderWrites => fixed = hot_set(oracle, &mut rng),
            Workload::UncachedAsks => {
                let (fwords, dwords) = (function_words(oracle), disease_words(oracle));
                let mut seen = HashSet::new();
                while fixed.len() < ASK_SPACE {
                    let q = question(
                        &mut rng,
                        CLASS_CYCLE[fixed.len() % CLASS_CYCLE.len()],
                        &symbols,
                        &fwords,
                        &dwords,
                    );
                    if !seen.insert(q.clone()) {
                        continue;
                    }
                    fixed.push(ask(oracle, &q, fixed.len() % 4 == 3));
                }
            }
            Workload::LorelSearchMix => {
                let words = vocabulary(oracle);
                for a in &words {
                    for b in &words {
                        for k in 3..=10 {
                            for fusion in ["weighted", "rrf", "maxscore"] {
                                searches.push(search_target(a, b, k, fusion));
                            }
                        }
                    }
                }
                shuffle(&mut searches, &mut rng);
            }
        }
        Plan {
            workload,
            seed,
            fixed: Arc::new(fixed),
            symbols: Arc::new(symbols),
            searches: Arc::new(searches),
            join_rows: oracle.join_rows(),
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The hot set or the prepared questions.
    #[cfg(test)]
    pub fn fixed(&self) -> &[Req] {
        &self.fixed
    }

    /// The stream of connection `conn` out of `conns`. Streams of one
    /// run never share a non-repeating request.
    pub fn stream(&self, conn: usize, conns: usize) -> RequestStream {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (0xc0ffee + conn as u64));
        let mut order: Vec<usize> = (0..self.fixed.len()).collect();
        shuffle(&mut order, &mut rng);
        RequestStream {
            workload: self.workload,
            fixed: Arc::clone(&self.fixed),
            symbols: Arc::clone(&self.symbols),
            searches: Arc::clone(&self.searches),
            join_rows: self.join_rows,
            order,
            rng,
            issued: 0,
            next_unique: conn,
            stride: conns.max(1),
        }
    }
}

/// One connection's endless request stream.
pub struct RequestStream {
    workload: Workload,
    fixed: Arc<Vec<Req>>,
    symbols: Arc<Vec<String>>,
    searches: Arc<Vec<String>>,
    join_rows: u64,
    /// This connection's cycle through the hot set.
    order: Vec<usize>,
    rng: StdRng,
    issued: usize,
    /// Next index into the non-repeating pool (questions, searches).
    next_unique: usize,
    stride: usize,
}

impl RequestStream {
    fn take_unique(&mut self, pool_len: usize) -> usize {
        let i = self.next_unique % pool_len;
        self.next_unique += self.stride;
        i
    }
}

impl Iterator for RequestStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let i = self.issued;
        self.issued += 1;
        Some(match self.workload {
            Workload::CachedReads | Workload::ReadsUnderWrites => {
                let mut req = self.fixed[self.order[i % self.order.len()]].clone();
                req.conditional = i % 8 == 7;
                req
            }
            Workload::UncachedAsks => {
                let at = self.take_unique(self.fixed.len());
                self.fixed[at].clone()
            }
            // 40 % point lookup, 20 % join, 10 % the paper's example,
            // 30 % search — exact over every ten requests.
            Workload::LorelSearchMix => match i % 10 {
                0 | 3 | 6 | 9 => point_lookup(self.symbols.choose(&mut self.rng).expect("symbols")),
                2 | 7 => lorel(
                    JOIN.to_string(),
                    true,
                    Expect::LorelJoin {
                        rows: self.join_rows,
                    },
                ),
                5 => lorel(EXAMPLE.to_string(), false, Expect::LorelExample),
                _ => {
                    let at = self.take_unique(self.searches.len());
                    let target = self.searches[at].clone();
                    let k = target
                        .split("&k=")
                        .nth(1)
                        .and_then(|r| r.split('&').next())
                        .and_then(|k| k.parse().ok())
                        .unwrap_or(10);
                    search(target, k, i % 20 == 1)
                }
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_sources::{Corpus, CorpusConfig};

    fn oracle(seed: u64) -> Oracle {
        let base = CorpusConfig::default();
        Oracle::new(&Corpus::generate(CorpusConfig {
            seed,
            ..base.scaled(0.4)
        }))
    }

    fn targets(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        let o = oracle(seed);
        Plan::new(workload, &o, seed)
            .stream(0, 2)
            .take(n)
            .map(|r| format!("{} {} {}", r.target, r.json, r.body))
            .collect()
    }

    #[test]
    fn equal_seeds_give_equal_streams_and_different_seeds_differ() {
        for w in Workload::ALL {
            assert_eq!(targets(w, 5, 200), targets(w, 5, 200), "{}", w.name());
            assert_ne!(targets(w, 5, 200), targets(w, 6, 200), "{}", w.name());
        }
    }

    #[test]
    fn uncached_asks_never_repeat_a_url_across_connections() {
        let o = oracle(9);
        let plan = Plan::new(Workload::UncachedAsks, &o, 9);
        assert!(plan.fixed().len() >= 16 * RESPONSE_CACHE_PER_SHARD);
        let mut seen = HashSet::new();
        for conn in 0..2 {
            for req in plan.stream(conn, 2).take(ASK_SPACE / 2) {
                assert!(seen.insert(req.target.clone()), "repeated {}", req.target);
            }
        }
        assert_eq!(seen.len(), ASK_SPACE);
    }

    #[test]
    fn searches_of_the_mix_never_repeat_and_the_mix_is_exact() {
        let o = oracle(4);
        let plan = Plan::new(Workload::LorelSearchMix, &o, 4);
        let mut seen = HashSet::new();
        let mut counts = std::collections::HashMap::new();
        for conn in 0..2 {
            for req in plan.stream(conn, 2).take(5_000) {
                *counts
                    .entry((
                        req.op,
                        req.body.starts_with("select count"),
                        req.body.contains("Source S"),
                    ))
                    .or_insert(0usize) += 1;
                if req.op == Op::Search {
                    assert!(seen.insert(req.target.clone()), "repeated {}", req.target);
                }
            }
        }
        assert_eq!(counts[&(Op::Search, false, false)], 3_000);
        assert_eq!(counts[&(Op::Lorel, false, false)], 4_000);
        assert_eq!(counts[&(Op::Lorel, true, false)], 2_000);
        assert_eq!(counts[&(Op::Lorel, false, true)], 1_000);
    }

    #[test]
    fn the_hot_set_fits_one_shards_response_cache() {
        let o = oracle(2);
        let plan = Plan::new(Workload::CachedReads, &o, 2);
        let keys: HashSet<(String, bool)> = plan
            .fixed()
            .iter()
            .map(|r| (r.target.clone(), r.json))
            .collect();
        assert_eq!(keys.len(), HOT_SET);
        assert!(keys.len() <= RESPONSE_CACHE_PER_SHARD);
        let by_op = |op| plan.fixed().iter().filter(|r| r.op == op).count();
        assert_eq!(
            (by_op(Op::Object), by_op(Op::Genes), by_op(Op::Search)),
            (32, 24, 8)
        );
        assert_eq!(plan.fixed().iter().filter(|r| r.json).count(), HOT_SET / 4);
        // Every connection cycles the whole set, and one request in
        // eight is a revalidation.
        let cycle: Vec<Req> = plan.stream(1, 2).take(HOT_SET).collect();
        assert_eq!(
            cycle
                .iter()
                .map(|r| &r.target)
                .collect::<HashSet<_>>()
                .len(),
            HOT_SET
        );
        assert_eq!(cycle.iter().filter(|r| r.conditional).count(), HOT_SET / 8);
    }
}
