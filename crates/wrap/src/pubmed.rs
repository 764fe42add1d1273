//! The PubMed wrapper — the fourth-source extension.

use annoda_oem::{AtomicValue, DocSpec, HarvestText, OemStore, TextDoc};
use annoda_sources::PubmedDb;

use crate::descr::SourceDescription;
use crate::wrapper::Wrapper;

/// Wraps a [`PubmedDb`] as the `PubMed` ANNODA-OML local model.
///
/// The model has `Citation` children under the `PubMed` root, each with
/// `Pmid` (Integer), `ArticleTitle`, `Year` (Integer), `Journal`,
/// `GeneSymbol` (multi-valued) and `Url` atoms — yet another vocabulary
/// for MDSM to bridge.
#[derive(Debug, Clone)]
pub struct PubmedWrapper {
    descr: SourceDescription,
    db: PubmedDb,
    oml: OemStore,
}

impl PubmedWrapper {
    /// Builds the wrapper and exports the initial OML.
    pub fn new(db: PubmedDb) -> Self {
        let descr = SourceDescription::remote(
            "PubMed",
            "literature citations linked to genes",
            "http://www.ncbi.nlm.nih.gov/pubmed",
        );
        let oml = export(&db);
        PubmedWrapper { descr, db, oml }
    }

    /// Read access to the native database.
    pub fn db(&self) -> &PubmedDb {
        &self.db
    }

    /// Mutable access to the native database.
    pub fn db_mut(&mut self) -> &mut PubmedDb {
        &mut self.db
    }
}

impl Wrapper for PubmedWrapper {
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

    /// One document per citation: PMID keys the article title; the
    /// cited gene symbols are the ranked loci.
    fn text_docs(&self) -> Vec<TextDoc> {
        self.oml.harvest_docs(
            "PubMed",
            &DocSpec {
                entity: "Citation",
                key: "Pmid",
                text: &["ArticleTitle"],
                loci: &["GeneSymbol"],
            },
        )
    }
}

fn export(db: &PubmedDb) -> OemStore {
    let mut oml = OemStore::new();
    let root = oml.new_complex();
    for a in db.scan() {
        let c = oml
            .add_complex_child(root, "Citation")
            .expect("root complex");
        oml.add_atomic_child(c, "Pmid", AtomicValue::Int(a.pmid as i64))
            .expect("complex");
        oml.add_atomic_child(c, "ArticleTitle", a.title.as_str())
            .expect("complex");
        oml.add_atomic_child(c, "Year", AtomicValue::Int(a.year as i64))
            .expect("complex");
        oml.add_atomic_child(c, "Journal", a.journal.as_str())
            .expect("complex");
        for g in &a.gene_symbols {
            oml.add_atomic_child(c, "GeneSymbol", g.as_str())
                .expect("complex");
        }
        oml.add_atomic_child(c, "Url", AtomicValue::Url(a.url()))
            .expect("complex");
    }
    oml.set_name("PubMed", root).expect("fresh store");
    oml
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use annoda_sources::Article;

    fn small_db() -> PubmedDb {
        PubmedDb::from_articles([Article {
            pmid: 10_000_001,
            title: "p53 mutations in human cancers".into(),
            year: 1991,
            journal: "Science".into(),
            gene_symbols: vec!["TP53".into(), "MDM2".into()],
        }])
    }

    #[test]
    fn export_shape() {
        let w = PubmedWrapper::new(small_db());
        let oml = w.oml();
        let root = oml.named("PubMed").unwrap();
        let c = oml.child(root, "Citation").unwrap();
        assert_eq!(
            oml.child_value(c, "Pmid"),
            Some(&AtomicValue::Int(10_000_001))
        );
        assert_eq!(oml.children(c, "GeneSymbol").count(), 2);
        assert!(matches!(
            oml.child_value(c, "Url"),
            Some(AtomicValue::Url(_))
        ));
    }

    #[test]
    fn subquery_by_gene() {
        let w = PubmedWrapper::new(small_db());
        let mut cost = Cost::new();
        let res = w
            .subquery(
                r#"select C.ArticleTitle from PubMed.Citation C where C.GeneSymbol = "TP53""#,
                &mut cost,
            )
            .unwrap();
        assert_eq!(res.rows, 1);
        assert_eq!(
            res.column_text("ArticleTitle"),
            vec![Some("p53 mutations in human cancers".into())]
        );
    }

    #[test]
    fn refresh_picks_up_new_articles() {
        let mut w = PubmedWrapper::new(small_db());
        w.db_mut().upsert(Article {
            pmid: 2,
            title: "another".into(),
            year: 2000,
            journal: "Cell".into(),
            gene_symbols: vec![],
        });
        w.refresh();
        let mut cost = Cost::new();
        let res = w
            .subquery("select C from PubMed.Citation C", &mut cost)
            .unwrap();
        assert_eq!(res.rows, 2);
    }
}
