//! The LocusLink wrapper — produces the OML of Figures 2–3.

use annoda_oem::{AtomicValue, OemStore};
use annoda_sources::{LocusLinkDb, LocusRecord};

use crate::descr::SourceDescription;
use crate::wrapper::{WrapError, Wrapper};

/// A single record's native flat serialization — the change-feed
/// payload for an upserted locus.
pub fn locus_flat(rec: &LocusRecord) -> String {
    LocusLinkDb::from_records([rec.clone()]).to_flat()
}

/// Wraps a [`LocusLinkDb`] as the `LocusLink` ANNODA-OML local model.
///
/// The model follows Figure 2: a `LocusLink` root with one `Locus` child
/// per record, each carrying `LocusID` (Integer), `Organism`, `Symbol`,
/// `Description`, `Position` (String) and a complex `Links` object whose
/// children are `Url` atoms labelled by the target database. Machine-
/// readable cross-references (`GOID`, `MIM`) mirror the `GO:`/`OMIM:`
/// fields of the native flat format.
#[derive(Debug, Clone)]
pub struct LocusLinkWrapper {
    descr: SourceDescription,
    db: LocusLinkDb,
    oml: OemStore,
}

impl LocusLinkWrapper {
    /// Builds the wrapper and exports the initial OML.
    pub fn new(db: LocusLinkDb) -> Self {
        let descr = SourceDescription::remote(
            "LocusLink",
            "curated gene loci with official nomenclature",
            "http://www.ncbi.nlm.nih.gov/LocusLink",
        );
        let oml = export(&db);
        LocusLinkWrapper { descr, db, oml }
    }

    /// Read access to the native database.
    pub fn db(&self) -> &LocusLinkDb {
        &self.db
    }

    /// Mutable access to the native database (updates become visible in
    /// the OML after [`Wrapper::refresh`]).
    pub fn db_mut(&mut self) -> &mut LocusLinkDb {
        &mut self.db
    }
}

impl Wrapper for LocusLinkWrapper {
    fn description(&self) -> &SourceDescription {
        &self.descr
    }

    fn oml(&self) -> &OemStore {
        &self.oml
    }

    fn refresh(&mut self) -> usize {
        self.oml = export(&self.db);
        self.oml.len()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn apply_change(&mut self, key: &str, flat: Option<&str>) -> Result<(), WrapError> {
        match flat {
            Some(flat) => {
                let parsed = LocusLinkDb::from_flat(flat).map_err(|e| {
                    WrapError::Unsupported(format!("bad LocusLink change for `{key}`: {e}"))
                })?;
                let mut records: Vec<LocusRecord> = parsed.scan().cloned().collect();
                let rec = match (records.pop(), records.is_empty()) {
                    (Some(rec), true) => rec,
                    _ => {
                        return Err(WrapError::Unsupported(format!(
                            "LocusLink change for `{key}` must carry exactly one record"
                        )))
                    }
                };
                if rec.locus_id.to_string() != key {
                    return Err(WrapError::Unsupported(format!(
                        "LocusLink change key `{key}` disagrees with record id {}",
                        rec.locus_id
                    )));
                }
                self.db.upsert(rec);
            }
            None => {
                let id: u32 = key.parse().map_err(|_| {
                    WrapError::Unsupported(format!("bad LocusLink delete key `{key}`"))
                })?;
                self.db.remove(id);
            }
        }
        Ok(())
    }

    fn change_dump(&self) -> Result<Vec<(String, String)>, WrapError> {
        Ok(self
            .db
            .scan()
            .map(|rec| (rec.locus_id.to_string(), locus_flat(rec)))
            .collect())
    }

    fn apply_bootstrap(&mut self, records: &[(String, String)]) -> Result<(), WrapError> {
        let joined: String = records.iter().map(|(_, flat)| flat.as_str()).collect();
        self.db = LocusLinkDb::from_flat(&joined)
            .map_err(|e| WrapError::Unsupported(format!("bad LocusLink bootstrap: {e}")))?;
        Ok(())
    }
}

fn export(db: &LocusLinkDb) -> OemStore {
    let mut oml = OemStore::new();
    let root = oml.new_complex();
    for rec in db.scan() {
        let locus = oml.add_complex_child(root, "Locus").expect("root complex");
        oml.add_atomic_child(locus, "LocusID", AtomicValue::Int(rec.locus_id as i64))
            .expect("locus complex");
        oml.add_atomic_child(locus, "Organism", rec.organism.as_str())
            .expect("locus complex");
        oml.add_atomic_child(locus, "Symbol", rec.symbol.as_str())
            .expect("locus complex");
        oml.add_atomic_child(locus, "Description", rec.description.as_str())
            .expect("locus complex");
        oml.add_atomic_child(locus, "Position", rec.position.as_str())
            .expect("locus complex");
        oml.add_atomic_child(locus, "Url", AtomicValue::Url(rec.url()))
            .expect("locus complex");
        let links = oml
            .add_complex_child(locus, "Links")
            .expect("locus complex");
        oml.add_atomic_child(links, "LocusLink", AtomicValue::Url(rec.url()))
            .expect("links complex");
        for go_id in &rec.go_ids {
            oml.add_atomic_child(
                links,
                "GO",
                AtomicValue::Url(format!("http://www.geneontology.org/term/{go_id}")),
            )
            .expect("links complex");
            oml.add_atomic_child(locus, "GOID", go_id.as_str())
                .expect("locus complex");
        }
        for &mim in &rec.omim_ids {
            oml.add_atomic_child(
                links,
                "OMIM",
                AtomicValue::Url(format!("http://www.ncbi.nlm.nih.gov/omim/{mim}")),
            )
            .expect("links complex");
            oml.add_atomic_child(locus, "MIM", AtomicValue::Int(mim as i64))
                .expect("locus complex");
        }
        for (dbname, url) in &rec.links {
            oml.add_atomic_child(links, dbname, AtomicValue::Url(url.clone()))
                .expect("links complex");
        }
    }
    oml.set_name("LocusLink", root).expect("fresh store");
    oml
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use annoda_sources::LocusRecord;

    fn tp53_db() -> LocusLinkDb {
        LocusLinkDb::from_records([LocusRecord {
            locus_id: 7157,
            symbol: "TP53".into(),
            organism: "Homo sapiens".into(),
            description: "tumor protein p53".into(),
            position: "17p13.1".into(),
            go_ids: vec!["GO:0003700".into()],
            omim_ids: vec![191170],
            links: vec![("PubMed".into(), "http://pubmed/TP53".into())],
        }])
    }

    #[test]
    fn oml_matches_figure2_shape() {
        let w = LocusLinkWrapper::new(tp53_db());
        let oml = w.oml();
        let root = oml.named("LocusLink").unwrap();
        let locus = oml.child(root, "Locus").unwrap();
        assert_eq!(
            oml.child_value(locus, "LocusID"),
            Some(&AtomicValue::Int(7157))
        );
        assert_eq!(
            oml.child_value(locus, "Symbol"),
            Some(&AtomicValue::Str("TP53".into()))
        );
        assert_eq!(
            oml.child_value(locus, "Position"),
            Some(&AtomicValue::Str("17p13.1".into()))
        );
        let links = oml.child(locus, "Links").unwrap();
        let labels: Vec<&str> = oml
            .edges_of(links)
            .iter()
            .map(|e| oml.label_name(e.label))
            .collect();
        assert!(labels.contains(&"GO"));
        assert!(labels.contains(&"OMIM"));
        assert!(labels.contains(&"PubMed"));
        // All link targets are Url-typed atoms.
        for e in oml.edges_of(links) {
            assert!(matches!(oml.value_of(e.target), Some(AtomicValue::Url(_))));
        }
    }

    #[test]
    fn refresh_picks_up_native_updates() {
        let mut w = LocusLinkWrapper::new(tp53_db());
        w.db_mut().by_id_mut(7157).unwrap().description = "updated".into();
        // Stale until refresh.
        let root = w.oml().named("LocusLink").unwrap();
        let locus = w.oml().child(root, "Locus").unwrap();
        assert_eq!(
            w.oml().child_value(locus, "Description"),
            Some(&AtomicValue::Str("tumor protein p53".into()))
        );
        w.refresh();
        let root = w.oml().named("LocusLink").unwrap();
        let locus = w.oml().child(root, "Locus").unwrap();
        assert_eq!(
            w.oml().child_value(locus, "Description"),
            Some(&AtomicValue::Str("updated".into()))
        );
    }

    #[test]
    fn subqueries_run_against_the_oml() {
        let w = LocusLinkWrapper::new(tp53_db());
        let mut cost = Cost::new();
        let res = w
            .subquery(
                r#"select L.Symbol from LocusLink.Locus L where L.GOID = "GO:0003700""#,
                &mut cost,
            )
            .unwrap();
        assert_eq!(res.rows, 1);
        assert_eq!(res.column_text("Symbol"), vec![Some("TP53".into())]);
    }

    #[test]
    fn schema_paths_expose_the_vocabulary() {
        let w = LocusLinkWrapper::new(tp53_db());
        let paths = w.schema_paths();
        assert!(paths.contains(&vec!["Locus".into(), "Symbol".into()]));
        assert!(paths.contains(&vec!["Locus".into(), "Links".into(), "GO".into()]));
    }
}
