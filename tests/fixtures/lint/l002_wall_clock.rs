// Seeded violation for L002: wall-clock reads in library code outside
// the obs span internals.
use std::time::{Instant, SystemTime};

pub fn stamp() -> u128 {
    #[expect(clippy::disallowed_methods, reason = "seeded: a monotonic clock read")]
    let t = Instant::now();
    #[expect(clippy::disallowed_methods, reason = "seeded: a wall-clock read")]
    let wall = SystemTime::now();
    let since_epoch = wall.duration_since(std::time::UNIX_EPOCH).unwrap();
    since_epoch.as_nanos() + t.elapsed().as_nanos()
}
