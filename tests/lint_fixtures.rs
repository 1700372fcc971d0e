//! The seeded-violation corpus of the determinism rules, which are
//! clippy configuration (the root `clippy.toml`; DESIGN.md §9).
//!
//! Each `tests/fixtures/lint/l00N_*.rs` seeds reads that one rule must
//! reject, and each seeded read carries the `#[expect(clippy::…)]` it
//! must raise. So `cargo clippy --workspace --all-targets -- -D warnings`
//! fails with `unfulfilled_lint_expectations` the moment a rule stops
//! firing, and with the rule's own lint if one fires where no fixture
//! expects it. Under plain `cargo test` the fixtures compile and run.

#[path = "fixtures/lint/l001_unordered_iteration.rs"]
mod l001;
#[path = "fixtures/lint/l002_wall_clock.rs"]
mod l002;
#[path = "fixtures/lint/l003_thread_id.rs"]
mod l003;
#[path = "fixtures/lint/l004_float_accumulation.rs"]
mod l004;
#[path = "fixtures/lint/l005_print_in_lib.rs"]
mod l005;

use std::collections::HashMap;

#[test]
fn seeded_fixtures_compile_and_run() {
    assert_eq!(l001::keys_of(&HashMap::from([(1, 2)])), [1]);
    assert_eq!(l001::walk(), 3);
    assert!(l002::stamp() > 0);
    assert!(l003::worker_tag().starts_with("ThreadId("));
    let weights = HashMap::from([("a".to_owned(), 0.5), ("b".to_owned(), 1.5)]);
    assert_eq!(l004::total(&weights), 2.0);
    l005::report(1);
}
