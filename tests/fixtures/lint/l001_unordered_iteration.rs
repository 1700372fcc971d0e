// Seeded violation for L001: hash-order iteration in a
// determinism-scoped crate, in both shapes. The type ban is on here, as
// in `relstore` and `core`.
#![warn(clippy::disallowed_types)]

#[expect(clippy::disallowed_types, reason = "seeded: the banned type")]
use std::collections::HashMap;

#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "seeded: a hash-order read of the banned type"
)]
pub fn keys_of(m: &HashMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}

pub fn walk() -> u64 {
    #[expect(clippy::disallowed_types, reason = "seeded: the banned type")]
    let mut seen = HashMap::new();
    seen.insert(1u64, 2u64);
    let mut total = 0;
    #[expect(clippy::iter_over_hash_type, reason = "seeded: a hash-order loop")]
    for (k, v) in &seen {
        total += k + v;
    }
    total
}
