//! FNV-1a digests of answers, and the scrubbing that makes two HTTP
//! bodies comparable.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a (64 bit).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn of_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// Digest of a list of digests, order-sensitive (a workload's golden).
pub fn of_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.u64(d);
    }
    h.finish()
}

/// Zero every `"MARKER": N` integer in a response body.
fn zero_json_int(body: &str, marker: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(marker) {
        let digits_from = at + marker.len();
        out.push_str(&rest[..digits_from]);
        out.push('0');
        rest = rest[digits_from..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Digest of an HTTP explain body with its wall-clock span totals and
/// its epoch zeroed: the two fields that legitimately differ between two
/// servers holding the same rows.
pub fn of_scrubbed_body(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    let scrubbed = zero_json_int(&zero_json_int(&text, "\"total_ns\": "), "\"epoch\": ");
    of_bytes(scrubbed.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(of_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn scrubbing_hides_only_time_and_epoch() {
        let a = br#"{"x": 1, "total_ns": 123, "epoch": 4, "y": "total_ns"}"#;
        let b = br#"{"x": 1, "total_ns": 98765, "epoch": 0, "y": "total_ns"}"#;
        let c = br#"{"x": 2, "total_ns": 123, "epoch": 4, "y": "total_ns"}"#;
        assert_eq!(of_scrubbed_body(a), of_scrubbed_body(b));
        assert_ne!(of_scrubbed_body(a), of_scrubbed_body(c));
    }

    #[test]
    fn digest_lists_are_order_sensitive() {
        assert_ne!(of_digests([1, 2]), of_digests([2, 1]));
        assert_eq!(of_digests([1, 2]), of_digests([1, 2]));
    }
}
