//! The mediator-side semijoin: before fusion, a require clause with a
//! name pattern narrows the gene rows to the genes that can meet it.
//!
//! Fusion meets `Require(Some(p))` on functions for a gene only through
//! a kept function whose detail name like-matches `p`, and every
//! function it weighs for a gene is one that a gene row of that symbol
//! claims (`FunctionID`) or that an annotation row of that symbol lists.
//! So the genes a matching id reaches — through the annotation rows and
//! through the gene rows' own claims — are the only ones that can pass.
//! Diseases (`DiseaseID` claims, disease rows) and publications (their
//! rows) work alike. Under `combine=all` every require clause is
//! necessary, so the reachable sets intersect; under `combine=any` their
//! union bounds the answer when every require clause has a pattern (a
//! bare require is met by any annotated gene, so it never narrows), and
//! an exclude clause never narrows.
//!
//! Fusion then reads only the gene rows whose first symbol is reachable
//! and the annotation rows of those symbols, in scan order, through a
//! [`RowSelection`]. Every reachable gene sees exactly the rows it saw
//! before, so the answer is unchanged; the conflict log covers the genes
//! the plan considered, as with organism pushdown. The rows are found
//! through value indexes memoised on the shipped stores, so a result the
//! subquery cache shares builds each index once for every later
//! question.

use std::borrow::Cow;
use std::collections::HashSet;

use annoda_oem::{Oid, PathExpr, PathStep};

use crate::decompose::{AspectClause, Combination, GeneQuestion, Purpose};
use crate::fusion::{row_first, row_texts, Details, RowSelection, TaggedResult};

/// The gene and annotation rows of `results` whose genes can meet
/// `question`'s require clauses; every row when no clause narrows.
/// `details` are the detail rows of `results`, as fusion reads them.
pub(crate) fn narrow(
    question: &GeneQuestion,
    results: &[TaggedResult],
    details: &Details,
) -> RowSelection {
    let mut requires = 0;
    let mut patterns = Vec::new();
    for (aspect, clause) in [
        (Purpose::Functions, &question.function),
        (Purpose::Diseases, &question.disease),
        (Purpose::Publications, &question.publication),
    ] {
        if let AspectClause::Require(pattern) = clause {
            requires += 1;
            patterns.extend(pattern.as_deref().map(|p| (aspect, p)));
        }
    }
    let any = question.combine == Combination::Any;
    let mut selection = RowSelection::default();
    if patterns.is_empty() || (any && patterns.len() < requires) {
        return selection;
    }
    let mut sets = patterns
        .into_iter()
        .map(|(aspect, pattern)| reachable(results, details, aspect, pattern));
    let mut symbols = sets.next().unwrap_or_default();
    for more in sets {
        if any {
            symbols.extend(more);
        } else {
            symbols.retain(|s| more.contains(s));
        }
    }

    for (i, tr) in results.iter().enumerate() {
        let mut rows = match tr.purpose {
            Purpose::Genes | Purpose::Annotations => {
                seek(tr, "Symbol", symbols.iter().map(|s| &**s))
            }
            _ => continue,
        };
        // Fusion keys a gene row by its first symbol. (It reads an
        // annotation row by its first symbol too, and skips it unless a
        // selected gene row carries that symbol.)
        if tr.purpose == Purpose::Genes {
            rows.retain(|&row| {
                row_first(&tr.result, row, "Symbol").is_some_and(|s| symbols.contains(&s))
            });
        }
        selection.select(i, rows);
    }
    selection
}

/// The symbols of the genes that can meet a require clause with
/// `pattern` on `aspect`: those an id whose name matches reaches.
fn reachable<'a>(
    results: &'a [TaggedResult],
    details: &Details,
    aspect: Purpose,
    pattern: &str,
) -> HashSet<Cow<'a, str>> {
    let ids = details.named_like(aspect, pattern);
    let mut symbols = HashSet::new();
    if ids.is_empty() {
        return symbols;
    }
    for tr in results {
        let label = match (tr.purpose, aspect) {
            (Purpose::Genes | Purpose::Annotations, Purpose::Functions) => "FunctionID",
            (Purpose::Genes | Purpose::Diseases, Purpose::Diseases) => "DiseaseID",
            (Purpose::Publications, Purpose::Publications) => "PublicationID",
            _ => continue,
        };
        for row in seek(tr, label, ids.iter().copied()) {
            match tr.purpose {
                // A gene row claims every id it lists, for its first
                // symbol.
                Purpose::Genes => symbols.extend(row_first(&tr.result, row, "Symbol")),
                // An aspect row asserts its first id: an annotation for
                // its first symbol, a disease or publication for each.
                _ if !row_first(&tr.result, row, label).is_some_and(|id| ids.contains(&*id)) => {}
                Purpose::Annotations => symbols.extend(row_first(&tr.result, row, "Symbol")),
                _ => symbols.extend(row_texts(&tr.result, row, "Symbol")),
            }
        }
    }
    symbols
}

/// The rows of `tr` with some `attr` value among `keys`, in scan order,
/// from the value index memoised on the shipped store.
fn seek<'k>(tr: &TaggedResult, attr: &str, keys: impl IntoIterator<Item = &'k str>) -> Vec<Oid> {
    let rows = PathExpr::new(vec![PathStep::Label("row".into())]);
    tr.result
        .store
        .cached_value_index(tr.result.root, &rows, attr)
        .lookup_any(keys)
}
