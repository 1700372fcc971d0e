//! Per-shard pools of keep-alive connections to the workers.
//!
//! Each worker is a thread-per-connection server, so a persistent
//! connection *pins a worker thread* for its lifetime. The pool
//! therefore enforces a hard per-shard capacity (the front passes the
//! worker's thread count): a front thread checks a connection out,
//! proxies one request, and checks it back in; when all connections are
//! out, checkout blocks briefly and then reports [`CheckoutError::Busy`]
//! so the front can shed load the standard way (`503` + `Retry-After`)
//! instead of deadlocking the worker.
//!
//! Workers also *move*: the supervisor restarts a crashed worker on a
//! fresh port. Each slot carries a generation counter bumped on every
//! [`Upstreams::set_addr`]; leases from an older generation are dropped
//! on return rather than pooled, so a restart can never resurrect a
//! stream to the dead process. A slot with no address (worker down,
//! restart pending) reports [`CheckoutError::Down`].

use exq_serve::client::Connection;
use std::net::SocketAddr;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a checkout produced no connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckoutError {
    /// The shard has no live worker (crashed, restart pending). The
    /// front answers `503` and the supervisor is already on it.
    Down,
    /// All pooled connections are in flight and none freed within the
    /// wait budget. The front sheds the request.
    Busy,
}

struct SlotState {
    /// Where the shard's worker listens, or `None` while it is down.
    addr: Option<SocketAddr>,
    /// Bumped on every `set_addr`; stale leases are filtered on return.
    generation: u64,
    /// Connections currently out or idle, bounded by pool capacity.
    open: usize,
    idle: Vec<Connection>,
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

/// A checked-out connection, tagged with the slot generation it came
/// from so [`Upstreams::checkin`] can discard it if the worker moved.
#[derive(Debug)]
pub struct Lease {
    /// The connection itself; the front drives requests through it.
    pub conn: Connection,
    generation: u64,
    pooled: bool,
}

impl Lease {
    /// Whether this lease reused an idle pooled connection (as opposed
    /// to opening a fresh one) — feeds `router.upstream.reuses`.
    pub fn was_pooled(&self) -> bool {
        self.pooled
    }
}

/// One connection pool per shard.
pub struct Upstreams {
    slots: Vec<Slot>,
    capacity: usize,
    wait: Duration,
}

impl Upstreams {
    /// Pools for `shards` workers, `capacity` connections each (the
    /// worker's thread count), waiting up to `wait` for a free
    /// connection before reporting [`CheckoutError::Busy`]. All slots
    /// start with no address; the supervisor (or an embedding test)
    /// calls [`Upstreams::set_addr`] as workers come up.
    pub fn new(shards: usize, capacity: usize, wait: Duration) -> Upstreams {
        Upstreams {
            slots: (0..shards.max(1))
                .map(|_| Slot {
                    state: Mutex::new(SlotState {
                        addr: None,
                        generation: 0,
                        open: 0,
                        idle: Vec::new(),
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            capacity: capacity.max(1),
            wait,
        }
    }

    /// How many shards the pool tracks.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// The shard's current worker address, if it is up.
    pub fn addr(&self, shard: usize) -> Option<SocketAddr> {
        self.slots[shard].state.lock().expect("slot poisoned").addr
    }

    /// Point `shard` at a (re)started worker, or mark it down with
    /// `None`. Either way the generation bumps: idle connections are
    /// dropped and in-flight leases will be discarded on return, never
    /// pooled against the new address.
    pub fn set_addr(&self, shard: usize, addr: Option<SocketAddr>) {
        let slot = &self.slots[shard];
        let mut state = slot.state.lock().expect("slot poisoned");
        state.addr = addr;
        state.generation += 1;
        state.open = 0;
        state.idle.clear();
        drop(state);
        slot.cv.notify_all();
    }

    /// Check a connection out of `shard`'s pool: an idle one if
    /// available, a fresh one while under capacity, else wait up to the
    /// pool's budget for a checkin.
    pub fn checkout(&self, shard: usize) -> Result<Lease, CheckoutError> {
        let slot = &self.slots[shard];
        let mut state = slot.state.lock().expect("slot poisoned");
        #[expect(clippy::disallowed_methods, reason = "a pool-wait deadline only")]
        let deadline = std::time::Instant::now() + self.wait;
        loop {
            let Some(addr) = state.addr else {
                return Err(CheckoutError::Down);
            };
            if let Some(conn) = state.idle.pop() {
                return Ok(Lease {
                    conn,
                    generation: state.generation,
                    pooled: true,
                });
            }
            if state.open < self.capacity {
                state.open += 1;
                return Ok(Lease {
                    // Dialing is lazy, so holding no lock here is fine.
                    conn: Connection::new(addr),
                    generation: state.generation,
                    pooled: false,
                });
            }
            #[expect(clippy::disallowed_methods, reason = "a pool-wait deadline only")]
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(CheckoutError::Busy);
            }
            let (guard, _) = slot
                .cv
                .wait_timeout(state, deadline - now)
                .expect("slot poisoned");
            state = guard;
        }
    }

    /// Return a healthy connection to the pool. Stale leases (the
    /// worker moved since checkout) are silently dropped.
    pub fn checkin(&self, shard: usize, lease: Lease) {
        let slot = &self.slots[shard];
        let mut state = slot.state.lock().expect("slot poisoned");
        if state.generation == lease.generation {
            state.idle.push(lease.conn);
            drop(state);
            slot.cv.notify_one();
        }
    }

    /// Drop a connection that errored, freeing its capacity. Stale
    /// leases already freed theirs when the generation bumped.
    pub fn discard(&self, shard: usize, lease: Lease) {
        let slot = &self.slots[shard];
        let mut state = slot.state.lock().expect("slot poisoned");
        if state.generation == lease.generation {
            state.open = state.open.saturating_sub(1);
            drop(state);
            slot.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Upstreams {
        let pool = Upstreams::new(2, 2, Duration::from_millis(20));
        pool.set_addr(0, Some("127.0.0.1:9".parse().unwrap()));
        pool
    }

    #[test]
    fn capacity_bounds_concurrent_leases() {
        let pool = pool();
        let a = pool.checkout(0).expect("fresh connection under capacity");
        let b = pool.checkout(0).expect("second connection under capacity");
        assert!(!a.was_pooled() && !b.was_pooled());
        assert_eq!(pool.checkout(0).unwrap_err(), CheckoutError::Busy);
        pool.checkin(0, a);
        let c = pool.checkout(0).expect("checkin freed a connection");
        assert!(c.was_pooled(), "idle connection is reused, not redialed");
        drop((b, c));
    }

    #[test]
    fn down_shard_reports_down() {
        let pool = pool();
        assert_eq!(pool.checkout(1).unwrap_err(), CheckoutError::Down);
        pool.set_addr(0, None);
        assert_eq!(pool.checkout(0).unwrap_err(), CheckoutError::Down);
    }

    #[test]
    fn restart_invalidates_stale_leases() {
        let pool = pool();
        let stale = pool.checkout(0).expect("lease against the old worker");
        pool.set_addr(0, Some("127.0.0.1:10".parse().unwrap()));
        // Returning the stale lease must not pool it against the new
        // address, and must not corrupt the open count.
        pool.checkin(0, stale);
        let fresh = pool.checkout(0).expect("checkout after restart");
        assert!(!fresh.was_pooled(), "stale connection was not resurrected");
        let stale2 = pool.checkout(0).unwrap();
        pool.set_addr(0, Some("127.0.0.1:11".parse().unwrap()));
        pool.discard(0, stale2); // stale discard: generation mismatch, no underflow
        let a = pool.checkout(0).unwrap();
        let b = pool.checkout(0).unwrap();
        assert_eq!(pool.checkout(0).unwrap_err(), CheckoutError::Busy);
        drop((fresh, a, b));
    }
}
