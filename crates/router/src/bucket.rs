//! Per-tenant token-bucket admission control.
//!
//! The serve tier already sheds load when its accept queue fills; that
//! protects the *process* but lets one noisy tenant starve everyone
//! ahead of the queue. The front adds a second, earlier gate: each
//! tenant (the `X-Exq-Tenant` header; requests without one share the
//! global `""` bucket) gets a token bucket refilled at a configured
//! rate. A request that finds no token is answered `503` +
//! `Retry-After` — the same backpressure contract the queue uses, so
//! clients need exactly one retry strategy
//! (`exq_serve::client::Connection::post_json_retry`).
//!
//! Deliberately wall-clock: admission is about *real* arrival rates, so
//! the refill math reads `Instant::now` (lint-allowed below) — but no
//! token-bucket decision ever reaches explanation results, only whether
//! a request is admitted.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Hard cap on tracked tenants; beyond it, unseen tenants share the
/// global bucket instead of growing the map without bound.
const MAX_TENANTS: usize = 10_000;

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Token buckets keyed by tenant, all sharing one rate/burst config.
pub struct TokenBuckets {
    /// Tokens added per second.
    rate: f64,
    /// Bucket capacity (burst allowance).
    burst: f64,
    state: Mutex<HashMap<String, Bucket>>,
}

impl TokenBuckets {
    /// Buckets refilled at `rate_per_sec`, with a burst of twice the
    /// rate (minimum 1 token, so a positive rate always admits an idle
    /// tenant's first request).
    pub fn new(rate_per_sec: f64) -> TokenBuckets {
        TokenBuckets::with_burst(rate_per_sec, (rate_per_sec * 2.0).max(1.0))
    }

    /// [`TokenBuckets::new`] with an explicit burst capacity.
    pub fn with_burst(rate_per_sec: f64, burst: f64) -> TokenBuckets {
        TokenBuckets {
            rate: rate_per_sec.max(0.0),
            burst: burst.max(1.0),
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Take one token from `tenant`'s bucket, refilling for elapsed
    /// time first. `true` admits the request.
    pub fn try_take(&self, tenant: &str) -> bool {
        #[expect(clippy::disallowed_methods, reason = "token refill, not a result")]
        let now = Instant::now();
        let mut state = self.state.lock().expect("bucket state poisoned");
        let key = if state.len() >= MAX_TENANTS && !state.contains_key(tenant) {
            "" // overflow tenants share the global bucket
        } else {
            tenant
        };
        let bucket = state.entry(key.to_string()).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_admits_then_denies() {
        let buckets = TokenBuckets::with_burst(0.0, 3.0);
        assert!(buckets.try_take("t"));
        assert!(buckets.try_take("t"));
        assert!(buckets.try_take("t"));
        assert!(!buckets.try_take("t"), "burst exhausted, zero refill");
    }

    #[test]
    fn tenants_are_isolated() {
        let buckets = TokenBuckets::with_burst(0.0, 1.0);
        assert!(buckets.try_take("a"));
        assert!(!buckets.try_take("a"));
        assert!(buckets.try_take("b"), "tenant b has its own bucket");
        assert!(buckets.try_take(""), "the global bucket too");
    }

    #[test]
    fn refill_restores_admission() {
        let buckets = TokenBuckets::with_burst(1_000.0, 1.0);
        assert!(buckets.try_take("t"));
        assert!(!buckets.try_take("t"));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(buckets.try_take("t"), "20ms at 1000/s refills the token");
    }
}
