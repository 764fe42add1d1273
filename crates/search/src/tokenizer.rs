//! Deterministic tokenizer for annotation text.
//!
//! The index and the naive scan oracle must agree byte-for-byte on what
//! a "term" is, and index keys must be stable across rebuilds — so the
//! tokenizer is a pure function of the input text with no environment
//! dependence, pinned by a golden test.
//!
//! Rules:
//!
//! * ASCII letters lowercase; digits pass through.
//! * Greek letters common in gene/protein nomenclature (α, β, γ, …)
//!   expand to their spelled-out names (`alpha`, `beta`, …), so
//!   `TGF-β` and `TGF-beta` index identically.
//! * Connector punctuation (`-`, `:`, `.`, `/`) inside a word splits it
//!   into parts, and — when there are at least two parts — also emits
//!   the concatenation: `BRCA-1` → `brca`, `1`, `brca1`;
//!   `GO:0003700` → `go`, `0003700`, `go0003700`. Both the hyphenated
//!   and the fused spelling of a symbol therefore hit the same posting.
//! * Any other character separates words. Purely numeric accessions
//!   (`601665`) survive as single tokens.
//! * A small biology-aware stopword list drops English function words
//!   plus the boilerplate nouns (`gene`, `protein`, `activity`,
//!   `disorder`) that appear in essentially every GO definition and
//!   OMIM entry and would otherwise dominate every posting list.

/// Connector characters that join the parts of one compound token.
const CONNECTORS: [char; 4] = ['-', ':', '.', '/'];

/// Words excluded from the index and from queries.
const STOPWORDS: [&str; 26] = [
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in", "into", "is", "it", "of",
    "on", "or", "that", "the", "this", "to", "via", "with", // English function words.
    "gene", "protein", "activity", // Annotation boilerplate.
];

/// Whether `word` is on the stopword list.
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.contains(&word)
}

/// Spelled-out names for Greek letters used in biological nomenclature.
fn greek_name(c: char) -> Option<&'static str> {
    Some(match c {
        'α' | 'Α' => "alpha",
        'β' | 'Β' => "beta",
        'γ' | 'Γ' => "gamma",
        'δ' | 'Δ' => "delta",
        'ε' | 'Ε' => "epsilon",
        'ζ' | 'Ζ' => "zeta",
        'η' | 'Η' => "eta",
        'θ' | 'Θ' => "theta",
        'κ' | 'Κ' => "kappa",
        'λ' | 'Λ' => "lambda",
        'μ' | 'Μ' => "mu",
        'σ' | 'Σ' | 'ς' => "sigma",
        'τ' | 'Τ' => "tau",
        'ω' | 'Ω' => "omega",
        _ => return None,
    })
}

/// Tokenizes `text` into index terms. Deterministic: equal inputs
/// always produce the identical token sequence, in order.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    // Split into raw words on anything that is neither token content
    // nor a connector, then tokenize each word.
    for raw in text.split(|c: char| {
        !(c.is_ascii_alphanumeric() || CONNECTORS.contains(&c) || greek_name(c).is_some())
    }) {
        word_tokens(raw, &mut tokens);
    }
    tokens
}

/// Emits the tokens of one whitespace-delimited word: each connector
/// part, plus the fused concatenation when the word is compound.
fn word_tokens(raw: &str, out: &mut Vec<String>) {
    let mut parts: Vec<String> = Vec::new();
    let mut current = String::new();
    for c in raw.chars() {
        if let Some(name) = greek_name(c) {
            current.push_str(name);
        } else if c.is_ascii_alphanumeric() {
            current.push(c.to_ascii_lowercase());
        } else {
            // A connector: close the current part (empty parts from
            // leading/trailing/double connectors are dropped).
            if !current.is_empty() {
                parts.push(std::mem::take(&mut current));
            }
        }
    }
    if !current.is_empty() {
        parts.push(current);
    }
    let compound = parts.len() >= 2;
    let fused: String = if compound {
        parts.concat()
    } else {
        String::new()
    };
    for part in parts {
        if !is_stopword(&part) {
            out.push(part);
        }
    }
    if compound && !is_stopword(&fused) {
        out.push(fused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        tokenize(s)
    }

    /// The pinned golden-token test: index keys are stable across
    /// rebuilds. Do not update casually — changing this moves rank
    /// positions in every `/search` answer.
    #[test]
    fn golden_tokens_are_pinned() {
        let text = "The BRCA-1 gene binds α-helical DNA during DNA repair; \
                    see GO:0003700 and MIM 601665 (TGFβ pathway).";
        assert_eq!(
            toks(text),
            vec![
                "brca",
                "1",
                "brca1",
                "binds",
                "alpha",
                "helical",
                "alphahelical",
                "dna",
                "during",
                "dna",
                "repair",
                "see",
                "go",
                "0003700",
                "go0003700",
                "mim",
                "601665",
                "tgfbeta",
                "pathway",
            ]
        );
    }

    #[test]
    fn hyphenated_symbols_emit_parts_and_fusion() {
        assert_eq!(toks("BRCA-1"), vec!["brca", "1", "brca1"]);
        // The fused spelling hits the same posting.
        assert_eq!(toks("BRCA1"), vec!["brca1"]);
    }

    #[test]
    fn greek_letters_spell_out() {
        assert_eq!(toks("NF-κB"), vec!["nf", "kappab", "nfkappab"]);
        assert_eq!(
            toks("α-synuclein"),
            vec!["alpha", "synuclein", "alphasynuclein"]
        );
    }

    #[test]
    fn numeric_accessions_survive() {
        assert_eq!(toks("601665"), vec!["601665"]);
        assert_eq!(toks("GO:0008150"), vec!["go", "0008150", "go0008150"]);
    }

    #[test]
    fn stopwords_drop_and_punctuation_splits() {
        assert_eq!(toks("the activity of a protein"), Vec::<String>::new());
        assert_eq!(
            toks("cell cycle, apoptosis"),
            vec!["cell", "cycle", "apoptosis"]
        );
    }

    #[test]
    fn sentence_periods_do_not_fuse_across_words() {
        // "repair." ends a sentence: trailing connector, no fusion.
        assert_eq!(toks("repair. Apoptosis"), vec!["repair", "apoptosis"]);
    }

    #[test]
    fn deterministic() {
        let s = "Transcription κ factor GO:0003700 BRCA-1";
        assert_eq!(toks(s), toks(s));
    }
}
