//! The `Wrapper` trait and shared subquery machinery.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use annoda_lorel::{eval_rows_explained, parse, project_row, LorelError, Projected};
use annoda_oem::dataguide::DataGuide;
use annoda_oem::graph::import_fragment_memo;
use annoda_oem::{OemStore, Oid, TextDoc};

use crate::cost::Cost;
use crate::descr::SourceDescription;

/// Errors raised by wrapper operations.
#[derive(Debug, Clone, PartialEq)]
pub enum WrapError {
    /// The subquery failed to parse or evaluate.
    Query(LorelError),
    /// The request needs a capability this source does not offer.
    Unsupported(String),
    /// The source could not be *reached* — a network-layer loss
    /// (connect refused, timeout, torn frame, tripped breaker), not a
    /// refusal by the source itself. Transport failures are the only
    /// retryable kind: the subquery may well succeed on another
    /// attempt, whereas a query error or capability refusal will not.
    Transport(String),
}

impl WrapError {
    /// Whether retrying the same request could plausibly succeed.
    /// Only transport-layer losses qualify; a source that *answered*
    /// with an error will answer the same way again.
    pub fn is_retryable(&self) -> bool {
        matches!(self, WrapError::Transport(_))
    }
}

impl fmt::Display for WrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapError::Query(e) => write!(f, "subquery failed: {e}"),
            WrapError::Unsupported(what) => write!(f, "source capability missing: {what}"),
            WrapError::Transport(what) => write!(f, "source unreachable: {what}"),
        }
    }
}

impl std::error::Error for WrapError {}

impl From<LorelError> for WrapError {
    fn from(e: LorelError) -> Self {
        WrapError::Query(e)
    }
}

/// The materialised result of one per-source subquery: a fresh OEM store
/// whose `result` root holds one `row` object per passing binding; each
/// row object carries the select items under their labels. Selected
/// complex objects are deep-copied — this models shipping the data from
/// the source to the integration site. Once shipped the fragment is
/// immutable and shared: cloning a result (a subquery-cache insert or
/// hit) bumps a reference count and never copies the store.
#[derive(Debug, Clone)]
pub struct SubqueryResult {
    /// The shipped fragment.
    pub store: Arc<OemStore>,
    /// The `result` root inside [`SubqueryResult::store`].
    pub root: Oid,
    /// Number of rows shipped.
    pub rows: usize,
    /// Whether the Lorel planner seeded the subquery from a value index
    /// memoised on the OML (an equality, or the bind join's disjunction
    /// of equalities) instead of scanning the entity set. Cost
    /// accounting is identical either way; this only reports the access
    /// path taken.
    pub planner_index_backed: bool,
}

impl SubqueryResult {
    /// Iterates the row objects under the result root.
    pub fn row_oids(&self) -> Vec<Oid> {
        self.store.children(self.root, "row").collect()
    }

    /// Collects, for each row, the atomic text of the first value under
    /// `label` — a convenience for join-key extraction during fusion.
    pub fn column_text(&self, label: &str) -> Vec<Option<String>> {
        self.row_oids()
            .into_iter()
            .map(|r| self.store.child_value(r, label).map(|v| v.as_text()))
            .collect()
    }
}

/// A wrapper around one native annotation database.
///
/// The wrapper maintains the source's ANNODA-OML local model (an OEM
/// store rooted at the source name), answers Lorel subqueries over it,
/// and publishes the source description the mediator plans with. It
/// builds no derived structure of its own: the indexes its subqueries
/// seek and the statistics the mediator plans from are memoised on the
/// OML itself and dropped by whatever re-export or mutation makes them
/// stale.
///
/// `Send + Sync` lets the mediator fan subqueries out to independent
/// sources concurrently — a federated engine never serialises its
/// round trips.
pub trait Wrapper: std::any::Any + Send + Sync {
    /// The source description (name, capabilities, latency model).
    fn description(&self) -> &SourceDescription;

    /// Downcasting hook: lets holders of `Box<dyn Wrapper>` reach the
    /// concrete wrapper (the freshness experiment mutates native
    /// databases through this).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// The current ANNODA-OML local model. The named root equals
    /// `description().name`.
    fn oml(&self) -> &OemStore;

    /// Re-exports the OML from the native database (picking up updates).
    /// Returns the number of objects in the refreshed model.
    fn refresh(&mut self) -> usize;

    /// The source name (OML root name).
    fn name(&self) -> &str {
        &self.description().name
    }

    /// The free-text documents this source contributes to the ranked
    /// search index (`annoda-search`): one [`TextDoc`] per text-bearing
    /// entity, keyed by the entity's stable accession and tagged with
    /// the gene loci it annotates. Harvested at ingest and after every
    /// [`Wrapper::refresh`] — the index is rebuilt from whatever this
    /// returns. Sources without indexable text (LocusLink's structured
    /// records, remote proxies) keep the empty default and simply do
    /// not participate in ranked search.
    fn text_docs(&self) -> Vec<TextDoc> {
        Vec::new()
    }

    /// Applies one record-level change to the *native* database: an
    /// upsert when `flat` carries the record's native flat-format
    /// serialization, a delete when it is `None`. The exported OML is
    /// NOT re-derived here — callers apply a whole batch and then call
    /// [`Wrapper::refresh`] once, amortising the re-export per batch
    /// instead of per record. Sources without a native flat-record
    /// format keep the refusing default and cannot be streamed.
    fn apply_change(&mut self, key: &str, flat: Option<&str>) -> Result<(), WrapError> {
        let _ = (key, flat);
        Err(WrapError::Unsupported(format!(
            "{} does not support record-level changes",
            self.name()
        )))
    }

    /// Dumps the native database as `(key, flat)` records — the
    /// bootstrap payload a change-feed server ships when journal
    /// compaction has outrun a subscriber. Must round-trip through
    /// [`Wrapper::apply_bootstrap`] to an identical native state.
    fn change_dump(&self) -> Result<Vec<(String, String)>, WrapError> {
        Err(WrapError::Unsupported(format!(
            "{} does not support change dumps",
            self.name()
        )))
    }

    /// Replaces the entire native database with the dumped records
    /// (records absent from the dump are gone afterwards — this is a
    /// replace, not a merge). Like [`Wrapper::apply_change`], the OML
    /// is only re-derived by a following [`Wrapper::refresh`].
    fn apply_bootstrap(&mut self, records: &[(String, String)]) -> Result<(), WrapError> {
        let _ = records;
        Err(WrapError::Unsupported(format!(
            "{} does not support bootstrap replacement",
            self.name()
        )))
    }

    /// The label paths present in the OML (depth ≤ 3), extracted from a
    /// DataGuide — the source's label-path schema, as `fig1` prints it.
    fn schema_paths(&self) -> Vec<Vec<String>> {
        let oml = self.oml();
        let Some(root) = oml.named(self.name()) else {
            return Vec::new();
        };
        DataGuide::build(oml, &[root]).paths(3)
    }

    /// Executes a Lorel subquery over the local model, charging the
    /// simulated source cost, and ships the projected rows as a fresh
    /// OEM fragment. The planner seeks point lookups and bind-join
    /// disjunctions from indexes memoised on the OML.
    fn subquery(&self, lorel: &str, cost: &mut Cost) -> Result<SubqueryResult, WrapError> {
        let query = parse(lorel)?;
        let oml = self.oml();
        let (rows, explain) = eval_rows_explained(oml, &query)?;

        let mut out = OemStore::new();
        let root = out.new_complex();
        out.set_name_overwrite("result", root)
            .expect("fresh root is live");
        let mut memo: HashMap<Oid, Oid> = HashMap::new();
        let mut shipped_records = 0u64;
        for row in &rows {
            let row_obj = out.add_complex_child(root, "row").expect("root is complex");
            for (label, values) in project_row(oml, &query, row)? {
                for v in values {
                    shipped_records += 1;
                    match v {
                        Projected::Obj(oid) => {
                            let copied = if let Some(&c) = memo.get(&oid) {
                                c
                            } else {
                                import_fragment_memo(&mut out, oml, oid, &mut memo)
                            };
                            out.add_edge(row_obj, &label, copied)
                                .expect("row object is complex");
                        }
                        Projected::Val(v) => {
                            out.add_atomic_child(row_obj, &label, v)
                                .expect("row object is complex");
                        }
                    }
                }
            }
        }
        cost.charge(&self.description().latency, shipped_records);
        Ok(SubqueryResult {
            store: Arc::new(out),
            root,
            rows: rows.len(),
            planner_index_backed: explain.index_backed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LatencyModel;
    use crate::descr::SourceDescription;
    use annoda_lorel::eval_rows_naive;
    use annoda_oem::AtomicValue;

    /// A minimal in-test wrapper over a hand-built OML.
    struct ToyWrapper {
        descr: SourceDescription,
        oml: OemStore,
    }

    fn toy() -> ToyWrapper {
        let mut oml = OemStore::new();
        let root = oml.new_complex();
        for (sym, id) in [("TP53", 7157i64), ("BRCA1", 672)] {
            let g = oml.add_complex_child(root, "Locus").unwrap();
            oml.add_atomic_child(g, "Symbol", sym).unwrap();
            oml.add_atomic_child(g, "LocusID", AtomicValue::Int(id))
                .unwrap();
        }
        oml.set_name("Toy", root).unwrap();
        ToyWrapper {
            descr: SourceDescription::remote("Toy", "toy data", "http://toy"),
            oml,
        }
    }

    impl Wrapper for ToyWrapper {
        fn description(&self) -> &SourceDescription {
            &self.descr
        }
        fn oml(&self) -> &OemStore {
            &self.oml
        }
        fn refresh(&mut self) -> usize {
            self.oml.len()
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn subquery_ships_rows_and_charges_cost() {
        let w = toy();
        let mut cost = Cost::new();
        let res = w
            .subquery("select L.Symbol from Toy.Locus L", &mut cost)
            .unwrap();
        assert_eq!(res.rows, 2);
        assert_eq!(cost.requests, 1);
        assert_eq!(cost.records, 2);
        assert_eq!(cost.virtual_us, LatencyModel::remote().request_cost(2));
        let col = res.column_text("Symbol");
        assert_eq!(col, vec![Some("TP53".into()), Some("BRCA1".into())]);
    }

    #[test]
    fn subquery_result_is_detached_from_oml() {
        let w = toy();
        let mut cost = Cost::new();
        let res = w.subquery("select L from Toy.Locus L", &mut cost).unwrap();
        // Mutating the shipped copy is possible without touching the OML.
        let mut shipped = Arc::try_unwrap(res.store).expect("a fresh result is unshared");
        let rows = shipped.children(res.root, "row").collect::<Vec<_>>();
        assert_eq!(rows.len(), 2);
        let locus = shipped.child(rows[0], "L").unwrap();
        assert_eq!(
            shipped.child_value(locus, "Symbol"),
            Some(&AtomicValue::Str("TP53".into()))
        );
        shipped
            .add_atomic_child(locus, "Annotation", "extra")
            .unwrap();
        assert_eq!(w.oml().len(), 7, "OML unchanged");
    }

    #[test]
    fn schema_paths_come_from_dataguide() {
        let w = toy();
        let paths = w.schema_paths();
        assert!(paths.contains(&vec!["Locus".to_string(), "Symbol".to_string()]));
        assert!(paths.contains(&vec!["Locus".to_string()]));
    }

    #[test]
    fn bad_subquery_is_a_wrap_error() {
        let w = toy();
        let mut cost = Cost::new();
        assert!(matches!(
            w.subquery("select", &mut cost),
            Err(WrapError::Query(_))
        ));
        assert!(matches!(
            w.subquery("select X from Nowhere.Y X", &mut cost),
            Err(WrapError::Query(_))
        ));
        assert_eq!(cost.requests, 0, "failed queries charge nothing");
    }

    #[test]
    fn index_fast_path_matches_the_scan_path() {
        // A point lookup is seeked from the OML's memoised index and
        // must ship exactly the rows the naive scan binds.
        let w = toy();
        // The scan reference: `label`'s text on each naive row's locus.
        let scan = |q: &str, label: &str| -> Vec<Option<String>> {
            let rows = eval_rows_naive(&w.oml, &parse(q).unwrap()).unwrap();
            rows.iter()
                .map(|r| w.oml.child_value(r.bindings[0].1, label))
                .map(|v| v.map(|v| v.as_text()))
                .collect()
        };
        let q = r#"select L.Symbol, L.LocusID from Toy.Locus L where L.Symbol = "TP53""#;
        let mut c = Cost::new();
        let fast = w.subquery(q, &mut c).unwrap();
        assert!(fast.planner_index_backed);
        assert_eq!(fast.rows, scan(q, "Symbol").len());
        assert_eq!(fast.column_text("Symbol"), scan(q, "Symbol"));
        assert_eq!(fast.column_text("LocusID"), scan(q, "LocusID"));

        // Numeric keys bypass the index; a conjunction seeks its
        // equality and re-verifies the rest.
        let numeric = w
            .subquery("select L from Toy.Locus L where L.LocusID = 7157", &mut c)
            .unwrap();
        assert!(!numeric.planner_index_backed);
        assert_eq!(numeric.rows, 1);
        let compound = w
            .subquery(
                r#"select L from Toy.Locus L where L.Symbol = "TP53" and L.LocusID = 7157"#,
                &mut c,
            )
            .unwrap();
        assert!(compound.planner_index_backed);
        assert_eq!(compound.rows, 1);
        // Bind-join style OR-chains over one attribute are indexed too.
        let chain = r#"select L from Toy.Locus L where (L.Symbol = "TP53" or L.Symbol = "BRCA1" or L.Symbol = "NOPE")"#;
        let or_chain = w.subquery(chain, &mut c).unwrap();
        assert!(or_chain.planner_index_backed);
        assert_eq!(or_chain.rows, 2);
        assert_eq!(or_chain.column_text("L").len(), scan(chain, "Symbol").len());
        // Mixed attributes in the chain bypass the index.
        let mixed = w
            .subquery(
                r#"select L from Toy.Locus L where (L.Symbol = "TP53" or L.LocusID = "x")"#,
                &mut c,
            )
            .unwrap();
        assert!(!mixed.planner_index_backed);

        // Misses return empty, still via the index.
        let miss = w
            .subquery(
                r#"select L from Toy.Locus L where L.Symbol = "NOPE""#,
                &mut c,
            )
            .unwrap();
        assert!(miss.planner_index_backed);
        assert_eq!(miss.rows, 0);
    }

    #[test]
    fn shared_objects_ship_once() {
        // Two rows selecting the same object: the copy is shared.
        let mut oml = OemStore::new();
        let root = oml.new_complex();
        let shared = oml.add_complex_child(root, "Item").unwrap();
        oml.add_atomic_child(shared, "v", 1i64).unwrap();
        oml.add_edge(root, "Item", shared).unwrap(); // set semantics: still one edge
        let other = oml.add_complex_child(root, "Item").unwrap();
        oml.add_edge(other, "ref", shared).unwrap();
        oml.set_name("Toy", root).unwrap();
        let w = ToyWrapper {
            descr: SourceDescription::remote("Toy", "", ""),
            oml,
        };
        let mut cost = Cost::new();
        let res = w.subquery("select I from Toy.Item I", &mut cost).unwrap();
        assert_eq!(res.rows, 2);
        // `shared` is shipped as part of row 1 and referenced by row 2's
        // copy of `other`; the memo must make both point at one object.
        let rows = res.row_oids();
        let copy_shared = res.store.child(rows[0], "I").unwrap();
        let copy_other = res.store.child(rows[1], "I").unwrap();
        assert_eq!(res.store.child(copy_other, "ref"), Some(copy_shared));
    }
}
