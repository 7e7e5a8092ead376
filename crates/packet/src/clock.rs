//! Coarse monotonic wall clock for ingress timestamping.
//!
//! The I/O plane stamps every received [`crate::Mbuf`] with
//! [`coarse_now_ns`] so the data path can measure end-to-end sojourn
//! (ingress → egress/drop) and shed packets that have already blown a
//! latency deadline. The clock is process-global and anchored at the
//! first call, so values are small, monotonic and comparable across
//! threads. Every value, `0` included, is a valid reading: "unstamped"
//! is [`crate::Mbuf::ingress_ns`] returning `None`, not a magic time.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the first call in this process: monotonic,
/// and cheap enough to read once per received batch.
#[inline]
pub fn coarse_now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let a = coarse_now_ns();
        let b = coarse_now_ns();
        assert!(b >= a);
    }
}
