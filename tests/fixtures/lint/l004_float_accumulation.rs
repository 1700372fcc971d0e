// Seeded violation for L004: float accumulation driven by hash-order
// iteration — flagged in every crate, not just determinism-scoped ones.
use std::collections::HashMap;

#[expect(
    clippy::disallowed_methods,
    reason = "seeded: a float sum in hash order"
)]
pub fn total(weights: &HashMap<String, f64>) -> f64 {
    weights.values().sum::<f64>()
}
