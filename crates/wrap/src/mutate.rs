//! Scripted, deterministic native-database mutations for change-feed
//! testing and benchmarking.
//!
//! A source-server in `--mutate-every` mode, the stream proptests, and
//! the benchmark's traced replay all need the same thing: a
//! reproducible sequence of record-level changes to a wrapper's native
//! database. [`scripted_mutation`] provides it — mutation `step` under
//! `seed` always produces the same change, and the change is applied
//! through the wrapper's own [`Wrapper::apply_change`] path, so a
//! subscriber replaying the emitted `(key, flat)` pairs converges on a
//! byte-identical native state (the incremental ≡ full-rebuild
//! invariant the proptests pin).
//!
//! Mutations rewrite existing records (a locus description, an OMIM
//! clinical-text line) rather than inserting or deleting, mirroring how
//! curated annotation databases mostly *revise*; the change-feed
//! protocol itself supports inserts and deletes.

use crate::locuslink::{locus_flat, LocusLinkWrapper};
use crate::omim::{omim_flat, OmimWrapper};
use crate::wrapper::Wrapper;

/// SplitMix64 — a tiny, deterministic hash for picking mutation
/// targets; same construction the federation client uses for jitter.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Applies scripted mutation number `step` (deterministic under
/// `seed`) to `wrapper`'s native database and returns the change as a
/// `(key, flat)` pair ready for journaling. Returns `None` when the
/// wrapper's concrete type is not scriptable (only LocusLink and OMIM
/// are) or its database is empty. The caller owns re-exporting the OML
/// ([`Wrapper::refresh`]) — typically once per batch of mutations.
pub fn scripted_mutation(
    wrapper: &mut dyn Wrapper,
    seed: u64,
    step: u64,
) -> Option<(String, String)> {
    let draw = mix64(seed ^ mix64(step));
    let any = wrapper.as_any_mut();
    if let Some(w) = any.downcast_mut::<LocusLinkWrapper>() {
        let n = w.db().len();
        if n == 0 {
            return None;
        }
        let mut rec = w.db().scan().nth((draw % n as u64) as usize)?.clone();
        rec.description = format!(
            "{} revised annotation (step {step}, evidence e{})",
            rec.symbol,
            draw % 97
        );
        let key = rec.locus_id.to_string();
        let flat = locus_flat(&rec);
        w.apply_change(&key, Some(&flat)).ok()?;
        return Some((key, flat));
    }
    if let Some(w) = any.downcast_mut::<OmimWrapper>() {
        let n = w.db().len();
        if n == 0 {
            return None;
        }
        let mut entry = w.db().scan().nth((draw % n as u64) as usize)?.clone();
        entry.text = format!(
            "Revised clinical synopsis at step {step}: phenotype term pt{} with penetrance p{}.",
            draw % 53,
            draw % 11
        );
        let key = entry.mim_number.to_string();
        let flat = omim_flat(&entry);
        w.apply_change(&key, Some(&flat)).ok()?;
        return Some((key, flat));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_sources::{Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::tiny(7))
    }

    #[test]
    fn mutations_are_deterministic_and_visible_after_refresh() {
        let c = corpus();
        let mut a = LocusLinkWrapper::new(c.locuslink.clone());
        let mut b = LocusLinkWrapper::new(c.locuslink.clone());
        for step in 0..20 {
            let ca = scripted_mutation(&mut a, 42, step).expect("scriptable");
            let cb = scripted_mutation(&mut b, 42, step).expect("scriptable");
            assert_eq!(ca, cb, "step {step} must be deterministic");
        }
        a.refresh();
        b.refresh();
        assert_eq!(a.db().to_flat(), b.db().to_flat());
        // A different seed picks a different script.
        let mut c2 = LocusLinkWrapper::new(c.locuslink.clone());
        let other = scripted_mutation(&mut c2, 43, 0).expect("scriptable");
        let first = scripted_mutation(&mut a, 42, 0).expect("scriptable");
        assert_ne!(other, first);
    }

    #[test]
    fn omim_mutations_change_text_docs() {
        let c = corpus();
        let mut w = OmimWrapper::new(c.omim.clone());
        let before = w.text_docs();
        let (key, _flat) = scripted_mutation(&mut w, 9, 0).expect("scriptable");
        w.refresh();
        let after = w.text_docs();
        assert_ne!(before, after, "mutated entry {key} must change its doc");
    }

    #[test]
    fn replaying_emitted_changes_converges() {
        let c = corpus();
        let mut source = LocusLinkWrapper::new(c.locuslink.clone());
        let mut subscriber = LocusLinkWrapper::new(c.locuslink.clone());
        for step in 0..10 {
            let (key, flat) = scripted_mutation(&mut source, 5, step).expect("scriptable");
            subscriber.apply_change(&key, Some(&flat)).expect("applies");
        }
        source.refresh();
        subscriber.refresh();
        assert_eq!(source.db().to_flat(), subscriber.db().to_flat());
    }
}
