//! Attribute-value statistics for cost estimation.
//!
//! The mediator estimates how many records a pushed-down predicate will
//! ship. A constant selectivity guess is wrong by orders of magnitude on
//! skewed annotation data (60 % of loci are human), so the optimizer
//! collects small per-attribute summaries from the OMLs: value count,
//! distinct count, and the most common values with their frequencies.

use std::collections::HashMap;

use crate::oid::Oid;
use crate::store::OemStore;
use crate::value::like_match;

/// How many most-common values a summary retains.
const TOP_K: usize = 16;

/// A frequency summary of one attribute across a set of parent objects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributeStats {
    /// Number of attribute instances observed.
    pub total: usize,
    /// Number of distinct values.
    pub distinct: usize,
    /// The `TOP_K` most common values with their counts, descending.
    pub top: Vec<(String, usize)>,
    /// How many instances the retained top values cover.
    pub top_coverage: usize,
}

impl AttributeStats {
    /// Collects the summary of `label` across `parents` in `store`.
    pub fn collect(store: &OemStore, parents: &[Oid], label: &str) -> Self {
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut total = 0usize;
        for &p in parents {
            for child in store.children(p, label) {
                if let Some(v) = store.value_of(child) {
                    *counts.entry(v.as_text()).or_default() += 1;
                    total += 1;
                }
            }
        }
        let distinct = counts.len();
        let mut freq: Vec<(String, usize)> = counts.into_iter().collect();
        freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        freq.truncate(TOP_K);
        let top_coverage = freq.iter().map(|(_, n)| n).sum();
        AttributeStats {
            total,
            distinct,
            top: freq,
            top_coverage,
        }
    }

    /// Estimated fraction of parents satisfying `attr = value`.
    ///
    /// Exact when the value is among the retained top values; otherwise
    /// the residual mass is spread uniformly over the unseen distinct
    /// values.
    pub fn eq_selectivity(&self, value: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if let Some((_, n)) = self.top.iter().find(|(v, _)| v == value) {
            return *n as f64 / self.total as f64;
        }
        let residual_values = self.distinct.saturating_sub(self.top.len());
        if residual_values == 0 {
            // Every value is retained and this one is absent.
            return 0.0;
        }
        let residual_mass = (self.total - self.top_coverage) as f64 / self.total as f64;
        residual_mass / residual_values as f64
    }

    /// Estimated fraction satisfying `attr like pattern`, from the
    /// retained values (assumed representative of the distribution).
    pub fn like_selectivity(&self, pattern: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if self.top.is_empty() {
            return 0.1;
        }
        let matching: usize = self
            .top
            .iter()
            .filter(|(v, _)| like_match(v, pattern))
            .map(|(_, n)| n)
            .sum();
        let fraction = matching as f64 / self.top_coverage.max(1) as f64;
        // Never report exactly 0: unseen values may match.
        fraction.max(0.5 / self.total as f64)
    }

    /// Generic selectivity dispatch for the operators the decomposer
    /// pushes down.
    pub fn selectivity(&self, op: &str, literal: &str) -> f64 {
        match op {
            "=" => self.eq_selectivity(literal),
            "like" => self.like_selectivity(literal),
            // Range predicates: assume a third pass (textbook default).
            "<" | "<=" | ">" | ">=" => 1.0 / 3.0,
            "!=" => 1.0 - self.eq_selectivity(literal),
            _ => 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn organism_store() -> (OemStore, Vec<Oid>) {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let mut parents = Vec::new();
        for i in 0..10 {
            let g = db.add_complex_child(root, "Locus").unwrap();
            let organism = if i < 6 {
                "Homo sapiens"
            } else if i < 9 {
                "Mus musculus"
            } else {
                "Rattus norvegicus"
            };
            db.add_atomic_child(g, "Organism", organism).unwrap();
            parents.push(g);
        }
        (db, parents)
    }

    #[test]
    fn collect_counts_values() {
        let (db, parents) = organism_store();
        let s = AttributeStats::collect(&db, &parents, "Organism");
        assert_eq!(s.total, 10);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.top[0], ("Homo sapiens".to_string(), 6));
        assert_eq!(s.top_coverage, 10);
    }

    #[test]
    fn eq_selectivity_is_exact_for_retained_values() {
        let (db, parents) = organism_store();
        let s = AttributeStats::collect(&db, &parents, "Organism");
        assert!((s.eq_selectivity("Homo sapiens") - 0.6).abs() < 1e-9);
        assert!((s.eq_selectivity("Mus musculus") - 0.3).abs() < 1e-9);
        assert_eq!(s.eq_selectivity("Danio rerio"), 0.0, "all values retained");
    }

    #[test]
    fn residual_mass_spreads_over_unseen_values() {
        // 20 distinct values, each once: top keeps 16, residual 4.
        let mut db = OemStore::new();
        let root = db.new_complex();
        let mut parents = Vec::new();
        for i in 0..20 {
            let g = db.add_complex_child(root, "G").unwrap();
            db.add_atomic_child(g, "v", format!("val{i:02}")).unwrap();
            parents.push(g);
        }
        let s = AttributeStats::collect(&db, &parents, "v");
        assert_eq!(s.distinct, 20);
        assert_eq!(s.top.len(), 16);
        let unseen = s.eq_selectivity("val99");
        assert!((unseen - (4.0 / 20.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn like_selectivity_uses_the_histogram() {
        let (db, parents) = organism_store();
        let s = AttributeStats::collect(&db, &parents, "Organism");
        assert!((s.like_selectivity("%mus%") - 0.3).abs() < 1e-9); // Mus musculus only (case-sensitive)
        assert!(s.like_selectivity("%ZZZ%") > 0.0, "never exactly zero");
        assert!((s.like_selectivity("%") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = AttributeStats::default();
        assert_eq!(s.eq_selectivity("x"), 0.0);
        assert_eq!(s.like_selectivity("%"), 0.0);
    }

    #[test]
    fn selectivity_dispatch() {
        let (db, parents) = organism_store();
        let s = AttributeStats::collect(&db, &parents, "Organism");
        assert!((s.selectivity("=", "Homo sapiens") - 0.6).abs() < 1e-9);
        assert!((s.selectivity("!=", "Homo sapiens") - 0.4).abs() < 1e-9);
        assert!((s.selectivity("<", "M") - 1.0 / 3.0).abs() < 1e-9);
    }
}
