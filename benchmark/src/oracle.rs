//! The independent oracle: what every response must say, computed by a
//! direct filter over the harness's own `Corpus` structs — never via
//! `Annoda::ask`, so a bug in the mediator cannot hide in both places.
//!
//! Integration semantics mirrored here (and nowhere else in the
//! harness): ANNODA reconciles by *union*, so a gene's functions are
//! the GO ids its locus record cites plus the GO ids GO's annotation
//! table cites for it, and its diseases are the MIM numbers its locus
//! record cites plus the OMIM entries that name its symbol.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use annoda_sources::Corpus;

/// Everything the integrated view may say about one gene.
#[derive(Debug, Clone)]
pub struct GeneFacts {
    pub symbol: String,
    pub locus_id: u32,
    pub organism: String,
    pub description: String,
    pub position: String,
    /// GO id → term name.
    pub functions: BTreeMap<String, String>,
    /// MIM number → entry title.
    pub diseases: BTreeMap<String, String>,
}

/// An aspect clause of a question; the pattern is a word the aspect's
/// name must contain (sent as `%word%`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Clause {
    Ignore,
    Require(Option<String>),
    Exclude(Option<String>),
}

impl Clause {
    fn param(&self, key: &str, out: &mut Vec<String>) {
        let (mode, word) = match self {
            Clause::Ignore => return,
            Clause::Require(w) => ("require", w),
            Clause::Exclude(w) => ("exclude", w),
        };
        out.push(match word {
            Some(w) => format!("{key}={mode}:%25{}%25", w.replace(' ', "+")),
            None => format!("{key}={mode}"),
        });
    }

    /// Whether any of `names` satisfies the clause's pattern.
    fn matches<'a>(&self, mut names: impl Iterator<Item = &'a String>) -> bool {
        match self {
            Clause::Ignore => true,
            Clause::Require(None) | Clause::Exclude(None) => names.next().is_some(),
            Clause::Require(Some(w)) | Clause::Exclude(Some(w)) => {
                names.any(|n| n.contains(w.as_str()))
            }
        }
    }
}

/// One `/genes` question (the Figure 5a form).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Symbol prefix, sent as `symbol=<prefix>%`.
    pub prefix: Option<String>,
    pub organism: Option<&'static str>,
    pub function: Clause,
    pub disease: Clause,
    /// `combine=any` instead of the default `all`.
    pub any: bool,
}

impl Question {
    /// The request target.
    pub fn target(&self) -> String {
        let mut params = Vec::new();
        if let Some(p) = &self.prefix {
            params.push(format!("symbol={p}%25"));
        }
        if let Some(o) = self.organism {
            params.push(format!("organism={}", o.replace(' ', "+")));
        }
        self.function.param("function", &mut params);
        self.disease.param("disease", &mut params);
        if self.any {
            params.push("combine=any".to_string());
        }
        format!("/genes?{}", params.join("&"))
    }

    /// Whether `gene` belongs to the answer.
    pub fn admits(&self, gene: &GeneFacts) -> bool {
        if self
            .prefix
            .as_ref()
            .is_some_and(|p| !gene.symbol.starts_with(p.as_str()))
        {
            return false;
        }
        if self.organism.is_some_and(|o| gene.organism != o) {
            return false;
        }
        let f = self.function.matches(gene.functions.values());
        let d = self.disease.matches(gene.diseases.values());
        let mut requires = Vec::new();
        let mut excluded = false;
        for (clause, hit) in [(&self.function, f), (&self.disease, d)] {
            match clause {
                Clause::Ignore => {}
                Clause::Require(_) => requires.push(hit),
                Clause::Exclude(_) => excluded |= hit,
            }
        }
        let required = requires.is_empty()
            || if self.any {
                requires.iter().any(|&b| b)
            } else {
                requires.iter().all(|&b| b)
            };
        required && !excluded
    }
}

/// The harness's own view of the corpus.
pub struct Oracle {
    /// Sorted by symbol (the order the integrated view lists genes in).
    genes: Vec<GeneFacts>,
    by_symbol: HashMap<String, usize>,
    by_locus: HashMap<u32, usize>,
}

impl Oracle {
    /// Integrates the three sources by union, gene by gene.
    pub fn new(corpus: &Corpus) -> Oracle {
        let mut genes: Vec<GeneFacts> = corpus
            .locuslink
            .scan()
            .map(|rec| {
                let mut function_ids: BTreeSet<String> = rec.go_ids.iter().cloned().collect();
                function_ids.extend(
                    corpus
                        .go
                        .annotations_of_gene(&rec.symbol)
                        .map(|a| a.term_id.clone()),
                );
                let mut disease_ids: BTreeSet<u32> = rec.omim_ids.iter().copied().collect();
                disease_ids.extend(corpus.omim.by_gene(&rec.symbol).map(|e| e.mim_number));
                GeneFacts {
                    symbol: rec.symbol.clone(),
                    locus_id: rec.locus_id,
                    organism: rec.organism.clone(),
                    description: rec.description.clone(),
                    position: rec.position.clone(),
                    functions: function_ids
                        .into_iter()
                        .map(|id| {
                            let name = corpus
                                .go
                                .term(&id)
                                .map(|t| t.name.clone())
                                .unwrap_or_default();
                            (id, name)
                        })
                        .collect(),
                    diseases: disease_ids
                        .into_iter()
                        .map(|mim| {
                            let title = corpus
                                .omim
                                .by_mim(mim)
                                .map(|e| e.title.clone())
                                .unwrap_or_default();
                            (mim.to_string(), title)
                        })
                        .collect(),
                }
            })
            .collect();
        genes.sort_by(|a, b| a.symbol.cmp(&b.symbol));
        let by_symbol = genes
            .iter()
            .enumerate()
            .map(|(i, g)| (g.symbol.clone(), i))
            .collect();
        let by_locus = genes
            .iter()
            .enumerate()
            .map(|(i, g)| (g.locus_id, i))
            .collect();
        Oracle {
            genes,
            by_symbol,
            by_locus,
        }
    }

    /// Every gene, sorted by symbol.
    pub fn genes(&self) -> &[GeneFacts] {
        &self.genes
    }

    pub fn gene(&self, symbol: &str) -> Option<&GeneFacts> {
        self.by_symbol.get(symbol).map(|&i| &self.genes[i])
    }

    pub fn gene_by_locus(&self, locus_id: u32) -> Option<&GeneFacts> {
        self.by_locus.get(&locus_id).map(|&i| &self.genes[i])
    }

    /// The symbols a question must return, in answer order.
    pub fn answer(&self, q: &Question) -> Vec<&str> {
        self.genes
            .iter()
            .filter(|g| q.admits(g))
            .map(|g| g.symbol.as_str())
            .collect()
    }

    /// Rows of `Gene G, G.FunctionID F, G.DiseaseID D`: one per
    /// (gene, function, disease) triple of the global model.
    pub fn join_rows(&self) -> u64 {
        self.genes
            .iter()
            .map(|g| (g.functions.len() * g.diseases.len()) as u64)
            .sum()
    }
}

/// What a response body must satisfy.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `/genes`: exactly these symbols, in this order.
    Genes(Vec<String>),
    /// `/object/gene/{symbol}`: the record's attributes and exactly its
    /// function and disease ids.
    Object { symbol: String },
    /// `/search`: between 1 and `k` hits, every hit a known locus.
    Search { k: usize },
    /// `POST /lorel` point lookup: the answer names this symbol.
    LorelPoint { symbol: String },
    /// `POST /lorel` three-binding join, JSON: this many rows.
    LorelJoin { rows: u64 },
    /// `POST /lorel` §4.1 example: the answer is the LocusLink source.
    LorelExample,
}

/// Checks one `200` body. `descriptions`, when given, lists the
/// descriptions an `/object` view may show instead of the corpus's own
/// (the record's journaled revisions while the source is mutated).
pub fn check_body(
    oracle: &Oracle,
    expect: &Expect,
    json: bool,
    body: &str,
    descriptions: Option<&[String]>,
) -> Result<(), String> {
    match expect {
        Expect::Genes(symbols) => {
            let got = if json {
                genes_json(body)?
            } else {
                genes_text(body)?
            };
            if got.len() != symbols.len() || got.iter().zip(symbols).any(|(a, b)| a != b) {
                return Err(format!(
                    "gene set: expected {} genes, got {} ({:?}...)",
                    symbols.len(),
                    got.len(),
                    got.iter().take(3).collect::<Vec<_>>()
                ));
            }
            Ok(())
        }
        Expect::Object { symbol } => {
            let gene = oracle
                .gene(symbol)
                .ok_or_else(|| format!("oracle has no gene {symbol}"))?;
            let view = if json {
                object_json(body)
            } else {
                object_text(body)
            };
            let one = |key: &str| -> Option<&str> {
                let mut it = view
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|(_, v)| v.as_str());
                let first = it.next();
                it.next().map_or(first, |_| None)
            };
            if one("Symbol") != Some(symbol.as_str()) {
                return Err(format!("object {symbol}: wrong or missing Symbol"));
            }
            if one("LocusID") != Some(gene.locus_id.to_string().as_str())
                || one("Organism") != Some(gene.organism.as_str())
                || one("Position") != Some(gene.position.as_str())
            {
                return Err(format!(
                    "object {symbol}: LocusID/Organism/Position mismatch"
                ));
            }
            let description = one("Description").unwrap_or_default();
            let description_ok = match descriptions {
                Some(allowed) => allowed.iter().any(|d| d == description),
                None => description == gene.description,
            };
            if !description_ok {
                return Err(format!(
                    "object {symbol}: unexpected description `{description}`"
                ));
            }
            for (key, facts) in [("Function", &gene.functions), ("Disease", &gene.diseases)] {
                let got: BTreeSet<&str> = view
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|(_, v)| v.split(' ').next().unwrap_or_default())
                    .collect();
                let want: BTreeSet<&str> = facts.keys().map(String::as_str).collect();
                if got != want {
                    return Err(format!(
                        "object {symbol}: {key} ids {got:?}, expected {want:?}"
                    ));
                }
            }
            Ok(())
        }
        Expect::Search { k } => {
            let loci = if json {
                search_json(body)
            } else {
                search_text(body)
            };
            if loci.is_empty() || loci.len() > *k {
                return Err(format!("search: {} hits for k={k}", loci.len()));
            }
            match loci.iter().find(|l| oracle.gene(l).is_none()) {
                Some(unknown) => Err(format!("search: hit `{unknown}` is not a locus")),
                None => Ok(()),
            }
        }
        Expect::LorelPoint { symbol } => {
            let named: Vec<&str> = body
                .lines()
                .map(str::trim_start)
                .filter(|l| l.starts_with("Symbol &"))
                .collect();
            if named.len() == 1 && named[0].ends_with(&format!("\"{symbol}\"")) {
                Ok(())
            } else {
                Err(format!("lorel point {symbol}: answer names {named:?}"))
            }
        }
        Expect::LorelJoin { rows } => match json_int(body, "rows") {
            Some(got) if got == *rows as i64 => Ok(()),
            got => Err(format!("lorel join: rows {got:?}, expected {rows}")),
        },
        Expect::LorelExample => {
            if body.contains("LocusLink") && body.matches("SourceID &").count() == 1 {
                Ok(())
            } else {
                Err("lorel example: answer is not the single LocusLink source".to_string())
            }
        }
    }
}

/// Symbols of a text integrated view, after checking its own count.
fn genes_text(body: &str) -> Result<Vec<&str>, String> {
    let header = body.lines().next().unwrap_or_default();
    let declared: usize = header
        .strip_prefix("=== Annotation integrated view (")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad header `{header}`"))?;
    let symbols: Vec<&str> = body
        .lines()
        .filter(|l| !l.starts_with(' ') && l.contains("  [LocusID "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    if symbols.len() != declared {
        return Err(format!(
            "header declares {declared} genes, body lists {}",
            symbols.len()
        ));
    }
    Ok(symbols)
}

/// Symbols of a JSON integrated view, after checking its own count.
fn genes_json(body: &str) -> Result<Vec<&str>, String> {
    let declared = json_int(body, "count").ok_or("no count")?;
    let symbols: Vec<&str> = body
        .split("{\"symbol\":\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    if symbols.len() as i64 != declared {
        return Err(format!(
            "count says {declared}, body lists {}",
            symbols.len()
        ));
    }
    Ok(symbols)
}

/// `(attribute, value)` pairs of a text object view.
fn object_text(body: &str) -> Vec<(String, String)> {
    body.lines()
        .skip(1)
        .take_while(|l| l.trim() != "links:")
        .filter_map(|l| {
            let l = l.trim_start();
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim_start().to_string()))
        })
        .collect()
}

/// `(attribute, value)` pairs of a JSON object view. The server's
/// writer is compact and emits `attributes` as one flat object of
/// string values, so a split on `","` boundaries is exact as long as
/// no value contains a quote — corpus text never does.
fn object_json(body: &str) -> Vec<(String, String)> {
    let Some(attrs) = body
        .split("\"attributes\":{")
        .nth(1)
        .and_then(|rest| rest.split("},\"links\"").next())
    else {
        return Vec::new();
    };
    attrs
        .trim_matches('"')
        .split("\",\"")
        .filter_map(|pair| {
            let (k, v) = pair.split_once("\":\"")?;
            Some((k.to_string(), v.to_string()))
        })
        .collect()
}

fn search_text(body: &str) -> Vec<&str> {
    body.lines()
        .filter_map(|l| {
            let (rank, rest) = l.trim_start().split_once(". ")?;
            rank.parse::<usize>().ok()?;
            rest.split(' ').next()
        })
        .collect()
}

fn search_json(body: &str) -> Vec<&str> {
    body.split("{\"locus\":\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

/// The integer value of the first `"key":<int>` in a compact JSON body.
pub fn json_int(body: &str, key: &str) -> Option<i64> {
    let rest = body.split(&format!("\"{key}\":")).nth(1)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_sources::CorpusConfig;

    fn oracle() -> Oracle {
        Oracle::new(&Corpus::generate(CorpusConfig::tiny(3)))
    }

    #[test]
    fn question_targets_are_url_safe_and_clauses_combine() {
        let q = Question {
            prefix: Some("TA".into()),
            organism: Some("Homo sapiens"),
            function: Clause::Require(Some("binding protein".into())),
            disease: Clause::Exclude(None),
            any: true,
        };
        assert_eq!(q.target(), "/genes?symbol=TA%25&organism=Homo+sapiens&function=require:%25binding+protein%25&disease=exclude&combine=any");

        let o = oracle();
        let all = Question {
            prefix: None,
            organism: None,
            function: Clause::Ignore,
            disease: Clause::Ignore,
            any: false,
        };
        assert_eq!(o.answer(&all).len(), o.genes().len());
        let both = Question {
            function: Clause::Require(None),
            disease: Clause::Require(None),
            ..all.clone()
        };
        let either = Question {
            any: true,
            ..both.clone()
        };
        let neither = Question {
            function: Clause::Exclude(None),
            disease: Clause::Exclude(None),
            ..all.clone()
        };
        assert!(o.answer(&both).len() <= o.answer(&either).len());
        assert_eq!(
            o.answer(&either).len() + o.answer(&neither).len(),
            o.genes().len()
        );
    }

    #[test]
    fn body_parsers_read_the_servers_formats() {
        let text = "=== Annotation integrated view (2 genes) ===\n\nBAB1  [LocusID 1000]  Homo sapiens  1p1.1\n  kinase\n  GO  GO:1  x  y\n\nCEC2  [LocusID 1001]  Mus musculus  2q1.1\n";
        assert_eq!(genes_text(text).unwrap(), vec!["BAB1", "CEC2"]);
        assert!(genes_text("=== Annotation integrated view (3 genes) ===\n").is_err());
        let json = r#"{"count":1,"genes":[{"symbol":"BAB1","gene_id":1000,"functions":[{"id":"GO:1"}]}],"cost_requests":2}"#;
        assert_eq!(genes_json(json).unwrap(), vec!["BAB1"]);
        assert_eq!(json_int(json, "cost_requests"), Some(2));
        let object = "=== Individual object view: gene BAB1 ===\n  Symbol       BAB1\n  Function     GO:0000126 (a b)\n  links:\n    [x](y)\n";
        assert_eq!(
            object_text(object),
            vec![
                ("Symbol".to_string(), "BAB1".to_string()),
                ("Function".to_string(), "GO:0000126 (a b)".to_string())
            ]
        );
        let object = r#"{"kind":"gene","key":"BAB1","attributes":{"Symbol":"BAB1","Function":"GO:1 (a b)"},"links":[]}"#;
        assert_eq!(
            object_json(object),
            vec![
                ("Symbol".to_string(), "BAB1".to_string()),
                ("Function".to_string(), "GO:1 (a b)".to_string())
            ]
        );
        let search = "query: a b\nfusion: weighted\nepoch: 1\nhits: 2\n  1. PIBIR73    fused=2.0 [GO=7.1]\n       GO: x\n  2. CAN54      fused=1.5 [GO=3.9]\n";
        assert_eq!(search_text(search), vec!["PIBIR73", "CAN54"]);
        assert_eq!(
            search_json(r#"{"answers":[{"locus":"CAN54","fused_score":1.5}]}"#),
            vec!["CAN54"]
        );
    }
}
