//! The Gene Ontology wrapper.

use std::collections::HashMap;

use annoda_oem::{atomic_text, AtomicValue, DocSpec, HarvestText, OemStore, TextDoc};
use annoda_sources::GoDb;

use crate::descr::SourceDescription;
use crate::wrapper::Wrapper;

/// Wraps a [`GoDb`] as the `GO` ANNODA-OML local model.
///
/// The model has two child kinds under the `GO` root:
///
/// * `Term` objects with `Accession`, `TermName`, `Ontology`,
///   `Definition`, `Url` atoms and `IsA` / `PartOf` **object references to
///   the parent terms** (the DAG survives the export);
/// * `Annotation` objects with `Gene`, `Accession`, `EvidenceCode` atoms.
///
/// Note the vocabulary differs from LocusLink's on purpose (`Accession`
/// vs `GOID`, `Gene` vs `Symbol`): MDSM has to discover those
/// correspondences.
#[derive(Debug, Clone)]
pub struct GoWrapper {
    descr: SourceDescription,
    db: GoDb,
    oml: OemStore,
}

impl GoWrapper {
    /// Builds the wrapper and exports the initial OML.
    pub fn new(db: GoDb) -> Self {
        let descr = SourceDescription::remote(
            "GO",
            "gene ontology terms and gene annotations",
            "http://www.geneontology.org",
        );
        let oml = export(&db);
        GoWrapper { descr, db, oml }
    }

    /// Read access to the native database.
    pub fn db(&self) -> &GoDb {
        &self.db
    }

    /// Mutable access to the native database.
    pub fn db_mut(&mut self) -> &mut GoDb {
        &mut self.db
    }
}

impl Wrapper for GoWrapper {
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

    /// One document per GO term: accession keys the term name +
    /// definition. Loci need the annotation join — a term's documents
    /// rank the genes annotated *to* it, so gene symbols come from the
    /// `Annotation` children grouped by term accession.
    fn text_docs(&self) -> Vec<TextDoc> {
        let mut docs = self.oml.harvest_docs(
            "GO",
            &DocSpec {
                entity: "Term",
                key: "Accession",
                text: &["TermName", "Definition"],
                loci: &[],
            },
        );
        let Some(root) = self.oml.named("GO") else {
            return docs;
        };
        let mut genes_by_term: HashMap<String, Vec<String>> = HashMap::new();
        for ann in self.oml.children(root, "Annotation") {
            let gene = self.oml.child_value(ann, "Gene").and_then(atomic_text);
            let term = self.oml.child_value(ann, "Accession").and_then(atomic_text);
            if let (Some(gene), Some(term)) = (gene, term) {
                genes_by_term.entry(term).or_default().push(gene);
            }
        }
        for doc in &mut docs {
            if let Some(mut genes) = genes_by_term.remove(&doc.key) {
                genes.sort();
                genes.dedup();
                doc.loci = genes;
            }
        }
        docs
    }
}

fn export(db: &GoDb) -> OemStore {
    let mut oml = OemStore::new();
    let root = oml.new_complex();
    // First pass: create all term objects so DAG edges can be wired.
    let mut term_oid = HashMap::new();
    for term in db.terms() {
        let t = oml.add_complex_child(root, "Term").expect("root complex");
        term_oid.insert(term.id.clone(), t);
        oml.add_atomic_child(t, "Accession", term.id.as_str())
            .expect("term complex");
        oml.add_atomic_child(t, "TermName", term.name.as_str())
            .expect("term complex");
        oml.add_atomic_child(t, "Ontology", term.namespace.as_str())
            .expect("term complex");
        oml.add_atomic_child(t, "Definition", term.definition.as_str())
            .expect("term complex");
        oml.add_atomic_child(t, "Url", AtomicValue::Url(term.url()))
            .expect("term complex");
    }
    // Second pass: DAG references.
    for term in db.terms() {
        let t = term_oid[&term.id];
        for p in &term.is_a {
            if let Some(&parent) = term_oid.get(p) {
                oml.add_edge(t, "IsA", parent).expect("term complex");
            }
        }
        for p in &term.part_of {
            if let Some(&parent) = term_oid.get(p) {
                oml.add_edge(t, "PartOf", parent).expect("term complex");
            }
        }
    }
    for ann in db.annotations() {
        let a = oml
            .add_complex_child(root, "Annotation")
            .expect("root complex");
        oml.add_atomic_child(a, "Gene", ann.gene_symbol.as_str())
            .expect("annotation complex");
        oml.add_atomic_child(a, "Accession", ann.term_id.as_str())
            .expect("annotation complex");
        oml.add_atomic_child(a, "EvidenceCode", ann.evidence.as_str())
            .expect("annotation complex");
        // Object reference to the annotated term when it is in the DAG.
        if let Some(&t) = term_oid.get(&ann.term_id) {
            oml.add_edge(a, "Term", t).expect("annotation complex");
        }
    }
    oml.set_name("GO", root).expect("fresh store");
    oml
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use annoda_sources::{EvidenceCode, GoAnnotation, GoNamespace, GoTerm};

    fn small_db() -> GoDb {
        GoDb::from_parts(
            [
                GoTerm {
                    id: "GO:0003674".into(),
                    name: "molecular_function".into(),
                    namespace: GoNamespace::MolecularFunction,
                    definition: "root".into(),
                    is_a: vec![],
                    part_of: vec![],
                },
                GoTerm {
                    id: "GO:0003700".into(),
                    name: "transcription factor".into(),
                    namespace: GoNamespace::MolecularFunction,
                    definition: "TF".into(),
                    is_a: vec!["GO:0003674".into()],
                    part_of: vec![],
                },
            ],
            [GoAnnotation {
                gene_symbol: "TP53".into(),
                term_id: "GO:0003700".into(),
                evidence: EvidenceCode::Ida,
            }],
        )
    }

    #[test]
    fn export_preserves_dag_as_object_references() {
        let w = GoWrapper::new(small_db());
        let oml = w.oml();
        let root = oml.named("GO").unwrap();
        let terms: Vec<_> = oml.children(root, "Term").collect();
        assert_eq!(terms.len(), 2);
        let tf = terms
            .iter()
            .copied()
            .find(|&t| {
                oml.child_value(t, "Accession") == Some(&AtomicValue::Str("GO:0003700".into()))
            })
            .unwrap();
        let parent = oml.child(tf, "IsA").unwrap();
        assert_eq!(
            oml.child_value(parent, "Accession"),
            Some(&AtomicValue::Str("GO:0003674".into()))
        );
    }

    #[test]
    fn annotations_reference_their_terms() {
        let w = GoWrapper::new(small_db());
        let oml = w.oml();
        let root = oml.named("GO").unwrap();
        let ann = oml.child(root, "Annotation").unwrap();
        assert_eq!(
            oml.child_value(ann, "Gene"),
            Some(&AtomicValue::Str("TP53".into()))
        );
        let term = oml.child(ann, "Term").unwrap();
        assert_eq!(
            oml.child_value(term, "TermName"),
            Some(&AtomicValue::Str("transcription factor".into()))
        );
    }

    #[test]
    fn subquery_can_join_annotation_to_term() {
        let w = GoWrapper::new(small_db());
        let mut cost = Cost::new();
        let res = w
            .subquery(
                r#"select A.Gene, A.Term.TermName from GO.Annotation A where A.EvidenceCode = "IDA""#,
                &mut cost,
            )
            .unwrap();
        assert_eq!(res.rows, 1);
        assert_eq!(res.column_text("Gene"), vec![Some("TP53".into())]);
        assert_eq!(
            res.column_text("TermName"),
            vec![Some("transcription factor".into())]
        );
    }

    #[test]
    fn refresh_reexports() {
        let mut w = GoWrapper::new(small_db());
        w.db_mut().insert_annotation(GoAnnotation {
            gene_symbol: "EGFR".into(),
            term_id: "GO:0003674".into(),
            evidence: EvidenceCode::Iea,
        });
        let mut cost = Cost::new();
        let before = w
            .subquery("select A from GO.Annotation A", &mut cost)
            .unwrap();
        assert_eq!(before.rows, 1);
        w.refresh();
        let after = w
            .subquery("select A from GO.Annotation A", &mut cost)
            .unwrap();
        assert_eq!(after.rows, 2);
    }

    #[test]
    fn text_docs_join_annotated_genes_onto_terms() {
        let w = GoWrapper::new(small_db());
        let docs = w.text_docs();
        assert_eq!(docs.len(), 2, "one doc per term");
        let tf = docs.iter().find(|d| d.key == "GO:0003700").unwrap();
        assert_eq!(tf.text, "transcription factor TF");
        assert_eq!(tf.loci, vec!["TP53".to_string()]);
        // The unannotated root term indexes with no loci.
        let mf = docs.iter().find(|d| d.key == "GO:0003674").unwrap();
        assert!(mf.loci.is_empty());
    }

    #[test]
    fn text_docs_track_refresh() {
        let mut w = GoWrapper::new(small_db());
        w.db_mut().insert_annotation(GoAnnotation {
            gene_symbol: "EGFR".into(),
            term_id: "GO:0003674".into(),
            evidence: EvidenceCode::Iea,
        });
        w.refresh();
        let docs = w.text_docs();
        let mf = docs.iter().find(|d| d.key == "GO:0003674").unwrap();
        assert_eq!(mf.loci, vec!["EGFR".to_string()]);
    }
}
