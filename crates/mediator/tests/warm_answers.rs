//! A warm question copies no store: subquery-cache hits share the cached
//! fragments instead of deep-copying them. The only test in its binary,
//! because the clone counter it reads is process-wide.

use annoda_mediator::{AspectClause, GeneQuestion, Mediator};
use annoda_sources::{Corpus, CorpusConfig};
use annoda_wrap::{GoWrapper, LocusLinkWrapper, OmimWrapper};

#[test]
fn warm_answers_clone_no_store() {
    let corpus = Corpus::generate(CorpusConfig::tiny(42));
    let mut m = Mediator::new();
    m.register(Box::new(LocusLinkWrapper::new(corpus.locuslink)));
    m.register(Box::new(GoWrapper::new(corpus.go)));
    m.register(Box::new(OmimWrapper::new(corpus.omim)));
    m.enable_cache();
    let q = GeneQuestion {
        function: AspectClause::Require(None),
        disease: AspectClause::Exclude(None),
        ..GeneQuestion::default()
    };
    let cold = m.answer(&q).unwrap();
    assert!(cold.cost.requests > 0);

    let clones = annoda_oem::store_clone_count();
    for _ in 0..10 {
        let warm = m.answer(&q).unwrap();
        assert_eq!(warm.cost.requests, 0, "served from the cache");
        assert_eq!(warm.fused.genes, cold.fused.genes);
    }
    assert_eq!(
        annoda_oem::store_clone_count(),
        clones,
        "a hit copies no store"
    );
}
