//! Property tests for the wrapper layer: the index-backed access path
//! must be indistinguishable from the scan path on arbitrary data, and
//! the failure injector must honour its schedule exactly.

use proptest::prelude::*;

use annoda_lorel::{eval_rows_naive, parse};
use annoda_oem::{AtomicValue, OemStore};
use annoda_wrap::{Cost, CustomWrapper, FailureMode, FlakyWrapper, SourceDescription, Wrapper};

/// Builds an OML of `Entity` objects with a multi-valued `Key` attribute
/// drawn from a small alphabet, plus a payload.
fn oml_from(keysets: &[Vec<String>]) -> OemStore {
    let mut oml = OemStore::new();
    let root = oml.new_complex();
    for (i, keys) in keysets.iter().enumerate() {
        let e = oml.add_complex_child(root, "Entity").unwrap();
        for k in keys {
            oml.add_atomic_child(e, "Key", k.as_str()).unwrap();
        }
        oml.add_atomic_child(e, "Payload", AtomicValue::Int(i as i64))
            .unwrap();
    }
    oml.set_name("S", root).unwrap();
    oml
}

fn key() -> impl Strategy<Value = String> {
    // Non-numeric keys (letters only), which the index serves exactly.
    proptest::string::string_regex("[a-d]{1,3}").expect("valid regex")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_subqueries_equal_scans(
        keysets in proptest::collection::vec(
            proptest::collection::vec(key(), 0..3),
            0..10,
        ),
        probe in key(),
        extra in key(),
    ) {
        let oml = oml_from(&keysets);
        let wrapper = CustomWrapper::new(
            SourceDescription::remote("S", "indexed", "http://s"),
            oml.clone(),
        );
        let queries = [
            format!(r#"select E.Payload from S.Entity E where E.Key = "{probe}""#),
            format!(
                r#"select E.Payload from S.Entity E where (E.Key = "{probe}" or E.Key = "{extra}")"#
            ),
        ];
        for q in &queries {
            // The scan reference: each naive row's payload.
            let scan: Vec<Option<String>> = eval_rows_naive(&oml, &parse(q).unwrap())
                .unwrap()
                .iter()
                .map(|r| oml.child_value(r.bindings[0].1, "Payload").map(|v| v.as_text()))
                .collect();
            let mut cost = Cost::new();
            let fast = wrapper.subquery(q, &mut cost).unwrap();
            prop_assert!(fast.planner_index_backed, "index seek not taken for {q}");
            prop_assert_eq!(fast.rows, scan.len(), "row counts differ for {}", q);
            prop_assert_eq!(fast.column_text("Payload"), scan.clone(), "payloads differ for {}", q);
            prop_assert_eq!(cost.records, scan.len() as u64, "one payload shipped per row");
        }
    }

    #[test]
    fn flaky_schedule_is_exact(n in 1u64..40, k in 1u64..6) {
        let oml = oml_from(&[vec!["a".to_string()]]);
        let w = FlakyWrapper::new(
            CustomWrapper::new(SourceDescription::remote("S", "", ""), oml),
            FailureMode::EveryNth(k),
        );
        let mut failures = 0u64;
        let mut cost = Cost::new();
        for _ in 0..n {
            if w.subquery("select E from S.Entity E", &mut cost).is_err() {
                failures += 1;
            }
        }
        prop_assert_eq!(failures, n / k);
        prop_assert_eq!(w.attempts(), n);
    }
}
