//! Conflict detection and reconciliation.
//!
//! Annotation sources disagree: a locus record may claim a GO annotation
//! the GO database does not carry, and vice versa; two sources may report
//! different values for the same attribute. Table 1 singles this out —
//! K2/Kleisli and DiscoveryLink perform "no reconciliation of results",
//! whereas ANNODA reconciles at query time. This module implements the
//! detection and the resolution policies.

use std::fmt;

/// How a detected conflict was (or would be) resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictKind {
    /// Sources disagree whether an association (gene→function,
    /// gene→disease) holds.
    Membership {
        /// Sources asserting the association.
        claimed_by: Vec<String>,
        /// Sources covering the domain but not asserting it.
        denied_by: Vec<String>,
    },
    /// Sources report different atomic values for one logical attribute.
    Value {
        /// `(source, reported value)` pairs.
        values: Vec<(String, String)>,
    },
}

/// One detected conflict, with its resolution under the active policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The gene (or other subject) the conflict concerns.
    pub subject: String,
    /// The contested item (a GO id, a MIM number, an attribute name).
    pub item: String,
    /// What kind of disagreement.
    pub kind: ConflictKind,
    /// Whether the association/value was kept after reconciliation.
    pub kept: bool,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ConflictKind::Membership {
                claimed_by,
                denied_by,
            } => write!(
                f,
                "{}: {} claimed by [{}], absent in [{}] -> {}",
                self.subject,
                self.item,
                claimed_by.join(", "),
                denied_by.join(", "),
                if self.kept { "kept" } else { "dropped" }
            ),
            ConflictKind::Value { values } => write!(
                f,
                "{}: {} has conflicting values {:?} -> {}",
                self.subject,
                self.item,
                values,
                if self.kept { "kept first" } else { "dropped" }
            ),
        }
    }
}

/// The resolution policy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ReconcilePolicy {
    /// Keep anything any source asserts (recall-oriented).
    #[default]
    Union,
    /// Keep only what every covering source asserts (precision-oriented).
    Intersection,
    /// Follow the first source in the list that has an opinion.
    Precedence(Vec<String>),
    /// Keep when a strict majority of covering sources assert it.
    Vote,
    /// Domain-semantic: a disputed GO annotation survives only when the
    /// annotation source backs it with evidence of at least this
    /// reliability (GO codes: IEA=1, ISS=2, TAS=3, IDA=4, EXP=5).
    /// Non-annotation memberships fall back to union behaviour.
    MinEvidence(u8),
}

/// Applies a [`ReconcilePolicy`] to membership and value conflicts,
/// logging every disagreement it sees.
#[derive(Debug, Clone, Default)]
pub struct Reconciler {
    policy: ReconcilePolicy,
    conflicts: Vec<Conflict>,
}

impl Reconciler {
    /// A reconciler with the given policy.
    pub fn new(policy: ReconcilePolicy) -> Self {
        Reconciler {
            policy,
            conflicts: Vec::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &ReconcilePolicy {
        &self.policy
    }

    /// The conflicts logged so far.
    pub fn conflicts(&self) -> &[Conflict] {
        &self.conflicts
    }

    /// Consumes the reconciler, returning the conflict log.
    pub fn into_conflicts(self) -> Vec<Conflict> {
        self.conflicts
    }

    /// Decides whether an association holds given per-source opinions.
    ///
    /// `opinions` lists every source *covering* the association's domain
    /// with `true` (asserts) or `false` (covers but does not assert).
    /// Unanimous opinions pass through without logging; disagreements are
    /// logged with the policy's verdict.
    pub fn membership<S: AsRef<str>>(
        &mut self,
        subject: &str,
        item: &str,
        opinions: &[(S, bool)],
    ) -> bool {
        let claims = opinions.iter().filter(|(_, c)| *c).count();
        if claims == 0 {
            return false;
        }
        if claims == opinions.len() {
            return true;
        }
        let kept = match &self.policy {
            ReconcilePolicy::Union => true,
            ReconcilePolicy::Intersection => false,
            ReconcilePolicy::Vote => claims * 2 > opinions.len(),
            ReconcilePolicy::Precedence(order) => order
                .iter()
                .find_map(|s| {
                    opinions
                        .iter()
                        .find(|(src, _)| src.as_ref() == s)
                        .map(|(_, c)| *c)
                })
                .unwrap_or(true),
            // Evidence gating happens in fusion (which sees the codes);
            // by the time a dispute reaches the reconciler the evidence
            // test ran, so surviving claims are kept.
            ReconcilePolicy::MinEvidence(_) => true,
        };
        let sources = |asserting: bool| -> Vec<String> {
            opinions
                .iter()
                .filter(|(_, c)| *c == asserting)
                .map(|(s, _)| s.as_ref().to_string())
                .collect()
        };
        self.conflicts.push(Conflict {
            subject: subject.to_string(),
            item: item.to_string(),
            kind: ConflictKind::Membership {
                claimed_by: sources(true),
                denied_by: sources(false),
            },
            kept,
        });
        kept
    }

    /// True when a disputed membership claim backed by the given GO
    /// evidence code (if any) survives this policy's evidence gate.
    pub fn evidence_passes(&self, evidence: Option<&str>) -> bool {
        match &self.policy {
            ReconcilePolicy::MinEvidence(min) => {
                let reliability = evidence
                    .and_then(annoda_sources::EvidenceCode::parse)
                    .map(|e| e.reliability())
                    .unwrap_or(0);
                reliability >= *min
            }
            _ => true,
        }
    }

    /// Picks one value for an attribute reported differently by several
    /// sources, given as `(source, value)` pairs. Returns `None` when no
    /// source reported anything.
    pub fn value<S: AsRef<str>, V: AsRef<str>>(
        &mut self,
        subject: &str,
        attribute: &str,
        values: &[(S, V)],
    ) -> Option<String> {
        let first = values.first()?.1.as_ref();
        if values.iter().all(|(_, v)| v.as_ref() == first) {
            return Some(first.to_string());
        }
        let chosen = match &self.policy {
            ReconcilePolicy::Precedence(order) => order
                .iter()
                .find_map(|s| values.iter().find(|(src, _)| src.as_ref() == s))
                .map_or(first, |(_, v)| v.as_ref()),
            ReconcilePolicy::Vote => {
                // Most frequent value; ties break to first reported.
                let mut best = first;
                let mut best_n = 0;
                for (_, v) in values {
                    let n = values
                        .iter()
                        .filter(|(_, x)| x.as_ref() == v.as_ref())
                        .count();
                    if n > best_n {
                        best_n = n;
                        best = v.as_ref();
                    }
                }
                best
            }
            // Union/Intersection do not order values; take first reported.
            _ => first,
        };
        self.conflicts.push(Conflict {
            subject: subject.to_string(),
            item: attribute.to_string(),
            kind: ConflictKind::Value {
                values: values
                    .iter()
                    .map(|(s, v)| (s.as_ref().to_string(), v.as_ref().to_string()))
                    .collect(),
            },
            kept: true,
        });
        Some(chosen.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opinions(list: &[(&str, bool)]) -> Vec<(String, bool)> {
        list.iter().map(|&(s, c)| (s.to_string(), c)).collect()
    }

    #[test]
    fn unanimous_membership_is_not_a_conflict() {
        let mut r = Reconciler::new(ReconcilePolicy::Union);
        assert!(r.membership(
            "TP53",
            "GO:1",
            &opinions(&[("LocusLink", true), ("GO", true)])
        ));
        assert!(!r.membership(
            "TP53",
            "GO:2",
            &opinions(&[("LocusLink", false), ("GO", false)])
        ));
        assert!(r.conflicts().is_empty());
    }

    #[test]
    fn union_keeps_and_intersection_drops() {
        let ops = opinions(&[("LocusLink", true), ("GO", false)]);
        let mut u = Reconciler::new(ReconcilePolicy::Union);
        assert!(u.membership("TP53", "GO:1", &ops));
        assert_eq!(u.conflicts().len(), 1);
        assert!(u.conflicts()[0].kept);

        let mut i = Reconciler::new(ReconcilePolicy::Intersection);
        assert!(!i.membership("TP53", "GO:1", &ops));
        assert!(!i.conflicts()[0].kept);
    }

    #[test]
    fn precedence_follows_the_trusted_source() {
        let ops = opinions(&[("LocusLink", true), ("GO", false)]);
        let mut go_first = Reconciler::new(ReconcilePolicy::Precedence(vec![
            "GO".into(),
            "LocusLink".into(),
        ]));
        assert!(!go_first.membership("TP53", "GO:1", &ops));
        let mut ll_first = Reconciler::new(ReconcilePolicy::Precedence(vec![
            "LocusLink".into(),
            "GO".into(),
        ]));
        assert!(ll_first.membership("TP53", "GO:1", &ops));
    }

    #[test]
    fn vote_needs_a_strict_majority() {
        let mut r = Reconciler::new(ReconcilePolicy::Vote);
        assert!(!r.membership("g", "x", &opinions(&[("a", true), ("b", false)])));
        assert!(r.membership(
            "g",
            "y",
            &opinions(&[("a", true), ("b", true), ("c", false)])
        ));
    }

    #[test]
    fn value_conflicts_resolve_by_policy() {
        let vals = vec![
            ("LocusLink".to_string(), "Homo sapiens".to_string()),
            ("OMIM".to_string(), "H. sapiens".to_string()),
            ("GO".to_string(), "Homo sapiens".to_string()),
        ];
        let mut vote = Reconciler::new(ReconcilePolicy::Vote);
        assert_eq!(
            vote.value("TP53", "Organism", &vals),
            Some("Homo sapiens".into())
        );
        let mut prec = Reconciler::new(ReconcilePolicy::Precedence(vec!["OMIM".into()]));
        assert_eq!(
            prec.value("TP53", "Organism", &vals),
            Some("H. sapiens".into())
        );
        assert_eq!(vote.conflicts().len(), 1);
    }

    #[test]
    fn agreeing_values_are_silent() {
        let vals = vec![
            ("A".to_string(), "x".to_string()),
            ("B".to_string(), "x".to_string()),
        ];
        let mut r = Reconciler::default();
        assert_eq!(r.value("g", "attr", &vals), Some("x".into()));
        assert!(r.conflicts().is_empty());
        assert_eq!(r.value("g", "attr", &[] as &[(String, String)]), None);
    }

    #[test]
    fn conflict_display_is_readable() {
        let mut r = Reconciler::new(ReconcilePolicy::Intersection);
        r.membership(
            "TP53",
            "GO:1",
            &opinions(&[("LocusLink", true), ("GO", false)]),
        );
        let text = r.conflicts()[0].to_string();
        assert!(text.contains("TP53"));
        assert!(text.contains("dropped"));
    }
}
