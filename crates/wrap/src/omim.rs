//! The OMIM wrapper.

use annoda_oem::{AtomicValue, DocSpec, HarvestText, OemStore, TextDoc};
use annoda_sources::{OmimDb, OmimEntry, OmimType};

use crate::descr::SourceDescription;
use crate::wrapper::{WrapError, Wrapper};

/// A single entry's native flat serialization — the change-feed payload
/// for an upserted OMIM entry.
pub fn omim_flat(entry: &OmimEntry) -> String {
    OmimDb::from_entries([entry.clone()]).to_flat()
}

/// Wraps an [`OmimDb`] as the `OMIM` ANNODA-OML local model.
///
/// Each catalogue entry becomes an `Entry` object with `MimNumber`
/// (Integer), `Title`, `EntryType`, zero or more `GeneSymbol` atoms, an
/// optional `Inheritance` atom, `Text`, and a `Url` web-link.
#[derive(Debug, Clone)]
pub struct OmimWrapper {
    descr: SourceDescription,
    db: OmimDb,
    oml: OemStore,
}

impl OmimWrapper {
    /// Builds the wrapper and exports the initial OML.
    pub fn new(db: OmimDb) -> Self {
        let descr = SourceDescription::remote(
            "OMIM",
            "mendelian disorders and gene-disease associations",
            "http://www.ncbi.nlm.nih.gov/omim",
        );
        let oml = export(&db);
        OmimWrapper { descr, db, oml }
    }

    /// Read access to the native database.
    pub fn db(&self) -> &OmimDb {
        &self.db
    }

    /// Mutable access to the native database.
    pub fn db_mut(&mut self) -> &mut OmimDb {
        &mut self.db
    }
}

impl Wrapper for OmimWrapper {
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
                let parsed = OmimDb::from_flat(flat).map_err(|e| {
                    WrapError::Unsupported(format!("bad OMIM change for `{key}`: {e}"))
                })?;
                let mut entries: Vec<OmimEntry> = parsed.scan().cloned().collect();
                let entry = match (entries.pop(), entries.is_empty()) {
                    (Some(entry), true) => entry,
                    _ => {
                        return Err(WrapError::Unsupported(format!(
                            "OMIM change for `{key}` must carry exactly one entry"
                        )))
                    }
                };
                if entry.mim_number.to_string() != key {
                    return Err(WrapError::Unsupported(format!(
                        "OMIM change key `{key}` disagrees with MIM number {}",
                        entry.mim_number
                    )));
                }
                self.db.upsert(entry);
            }
            None => {
                let mim: u32 = key
                    .parse()
                    .map_err(|_| WrapError::Unsupported(format!("bad OMIM delete key `{key}`")))?;
                self.db.remove(mim);
            }
        }
        Ok(())
    }

    fn change_dump(&self) -> Result<Vec<(String, String)>, WrapError> {
        Ok(self
            .db
            .scan()
            .map(|entry| (entry.mim_number.to_string(), omim_flat(entry)))
            .collect())
    }

    fn apply_bootstrap(&mut self, records: &[(String, String)]) -> Result<(), WrapError> {
        let joined: String = records.iter().map(|(_, flat)| flat.as_str()).collect();
        self.db = OmimDb::from_flat(&joined)
            .map_err(|e| WrapError::Unsupported(format!("bad OMIM bootstrap: {e}")))?;
        Ok(())
    }

    /// One document per entry: MIM number keys the title + disease
    /// text; the entry's gene symbols are the ranked loci.
    fn text_docs(&self) -> Vec<TextDoc> {
        self.oml.harvest_docs(
            "OMIM",
            &DocSpec {
                entity: "Entry",
                key: "MimNumber",
                text: &["Title", "Text"],
                loci: &["GeneSymbol"],
            },
        )
    }
}

fn entry_type_text(t: OmimType) -> &'static str {
    match t {
        OmimType::Gene => "gene",
        OmimType::Phenotype => "phenotype",
        OmimType::GenePhenotype => "gene/phenotype",
    }
}

fn export(db: &OmimDb) -> OemStore {
    let mut oml = OemStore::new();
    let root = oml.new_complex();
    for e in db.scan() {
        let entry = oml.add_complex_child(root, "Entry").expect("root complex");
        oml.add_atomic_child(entry, "MimNumber", AtomicValue::Int(e.mim_number as i64))
            .expect("entry complex");
        oml.add_atomic_child(entry, "Title", e.title.as_str())
            .expect("entry complex");
        oml.add_atomic_child(entry, "EntryType", entry_type_text(e.entry_type))
            .expect("entry complex");
        for g in &e.gene_symbols {
            oml.add_atomic_child(entry, "GeneSymbol", g.as_str())
                .expect("entry complex");
        }
        if let Some(inh) = e.inheritance {
            oml.add_atomic_child(entry, "Inheritance", inh.as_str())
                .expect("entry complex");
        }
        if !e.text.is_empty() {
            oml.add_atomic_child(entry, "Text", e.text.as_str())
                .expect("entry complex");
        }
        oml.add_atomic_child(entry, "Url", AtomicValue::Url(e.url()))
            .expect("entry complex");
    }
    oml.set_name("OMIM", root).expect("fresh store");
    oml
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use annoda_sources::{Inheritance, OmimEntry};

    fn small_db() -> OmimDb {
        OmimDb::from_entries([
            OmimEntry {
                mim_number: 151623,
                title: "LI-FRAUMENI SYNDROME 1".into(),
                entry_type: OmimType::Phenotype,
                gene_symbols: vec!["TP53".into(), "CHEK2".into()],
                inheritance: Some(Inheritance::AutosomalDominant),
                text: "Cancer predisposition.".into(),
            },
            OmimEntry {
                mim_number: 191170,
                title: "TUMOR PROTEIN p53".into(),
                entry_type: OmimType::Gene,
                gene_symbols: vec!["TP53".into()],
                inheritance: None,
                text: String::new(),
            },
        ])
    }

    #[test]
    fn export_shape() {
        let w = OmimWrapper::new(small_db());
        let oml = w.oml();
        let root = oml.named("OMIM").unwrap();
        let entries: Vec<_> = oml.children(root, "Entry").collect();
        assert_eq!(entries.len(), 2);
        let lfs = entries[0];
        assert_eq!(
            oml.child_value(lfs, "MimNumber"),
            Some(&AtomicValue::Int(151623))
        );
        assert_eq!(oml.children(lfs, "GeneSymbol").count(), 2);
        assert_eq!(
            oml.child_value(lfs, "Inheritance"),
            Some(&AtomicValue::Str("Autosomal dominant".into()))
        );
        // Gene entries have no Inheritance edge at all.
        let gene = entries[1];
        assert!(oml.child(gene, "Inheritance").is_none());
        assert!(oml.child(gene, "Text").is_none(), "empty text omitted");
    }

    #[test]
    fn subquery_filters_by_entry_type() {
        let w = OmimWrapper::new(small_db());
        let mut cost = Cost::new();
        let res = w
            .subquery(
                r#"select E.Title, E.GeneSymbol from OMIM.Entry E where E.EntryType = "phenotype""#,
                &mut cost,
            )
            .unwrap();
        assert_eq!(res.rows, 1);
        // Multi-valued GeneSymbol ships every instance.
        let rows = res.row_oids();
        assert_eq!(res.store.children(rows[0], "GeneSymbol").count(), 2);
    }

    #[test]
    fn subquery_by_gene_symbol() {
        let w = OmimWrapper::new(small_db());
        let mut cost = Cost::new();
        let res = w
            .subquery(
                r#"select E.MimNumber from OMIM.Entry E where E.GeneSymbol = "TP53""#,
                &mut cost,
            )
            .unwrap();
        assert_eq!(res.rows, 2, "TP53 appears in both entries");
    }

    #[test]
    fn text_docs_carry_title_text_and_symbols() {
        let w = OmimWrapper::new(small_db());
        let docs = w.text_docs();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].key, "151623");
        assert_eq!(
            docs[0].text,
            "LI-FRAUMENI SYNDROME 1 Cancer predisposition."
        );
        assert_eq!(docs[0].loci, vec!["CHEK2".to_string(), "TP53".to_string()]);
        // The gene entry has no free text beyond its title.
        assert_eq!(docs[1].text, "TUMOR PROTEIN p53");
    }
}
