//! # rp-packet — wire formats and packet buffers for the Router Plugins EISR
//!
//! This crate is the lowest substrate of the Router Plugins reproduction
//! (Decasper et al., SIGCOMM '98). It provides:
//!
//! * Zero-copy **wrapper types** over byte slices for IPv4, IPv6, UDP, TCP,
//!   ICMP, IPv6 extension headers and the IPsec AH/ESP headers, in the style
//!   of `smoltcp`: `Ipv4Packet<&[u8]>` for parsing, `Ipv4Packet<&mut [u8]>`
//!   for in-place mutation, plus `*Repr` value types with `emit`.
//! * The Internet **checksum** (RFC 1071) with incremental update
//!   (RFC 1624) used by the forwarding fast path for TTL decrement.
//! * [`Mbuf`] — the BSD `mbuf` analogue: an owned packet buffer carrying the
//!   metadata the architecture threads through the data path, most
//!   importantly the **flow index** (FIX) that caches the flow-table row for
//!   gates after the first one.
//! * [`FlowTuple`] — the paper's six-tuple `<src, dst, proto, sport, dport,
//!   incoming interface>` — and [`FlowKey`], the same six-tuple as eleven
//!   words, which the one extraction from raw packets produces (including
//!   the IPv6 extension-header walk) and the flow table hashes and compares.
//! * From-scratch **SHA-1/HMAC-SHA1** (RFC 3174 / RFC 2104) for the AH
//!   security plugin; no crypto crates are available offline and the
//!   algorithms are small and fully test-vectored.
//!
//! Nothing in this crate knows about plugins, gates or classification; those
//! live in `rp-classifier` and `router-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod checksum;
pub mod clock;
pub mod error;
pub mod ext_hdr;
pub mod flow;
pub mod hmac;
pub mod icmp;
pub mod ip;
pub mod ipsec;
pub mod ipv4;
pub mod ipv4_opts;
pub mod ipv6;
pub mod mbuf;
pub mod pool;
pub mod sha1;
pub mod tcp;
pub mod udp;
pub mod wire;

pub use clock::coarse_now_ns;
pub use error::{Error, Result};
pub use flow::{FlowKey, FlowTuple};
pub use ip::{IpVersion, Protocol};
pub use mbuf::{FlowIndex, Mbuf};
pub use pool::{MbufPool, PoolStats};
