//! # rp-lpm — longest-prefix-match algorithms (the paper's "BMP plugins")
//!
//! The Router Plugins architecture makes the best-matching-prefix (BMP)
//! function itself a plugin: the DAG classifier calls a pluggable matcher at
//! each IP-address level (paper §5.1.1). The paper ships two BMP plugins —
//! a PATRICIA trie ("slower but freely available") and *binary search on
//! prefix lengths* (Waldvogel et al., SIGCOMM '97). This crate implements
//! both behind the [`LpmTable`] trait, generic over the address width
//! through the [`Bits`] trait (`u32` for IPv4, `u128` for IPv6), and both
//! return the **memory accesses** a lookup made (an [`AccessCounter`]
//! sums them for a stand-alone table), because the paper's Table 2 is
//! denominated in memory accesses, not nanoseconds.
//!
//! The third structure is what the paper cites as the state of the art,
//! controlled prefix expansion (Srinivasan & Varghese, SIGMETRICS '98), in
//! the one shape the router uses it: [`Dir24Table`], the IPv4 routing
//! table as a [`Rib`] compiled into a 24-8, leaf-pushed FIB whose first
//! level stores each /16's 256 two-byte slots as runs in one 128-B chunk
//! (a run-start bitmap and up to 48 leaves; 8 MB in all). A lookup reads
//! one chunk and the leaf its popcount rank names, plus one group slot
//! past /24. It returns values without matched lengths, so it stands
//! beside the trait rather than behind it. The RIB is split at /16 too:
//! a PATRICIA trie of the shorter prefixes and one sorted list per /16 of
//! the longer ones, 8 B an entry.

// Not `forbid`: `dir24::prefetch_read` holds the one `allow` (CI counts it).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod bits;
pub mod bspl;
pub mod dir24;
pub mod hash;
pub mod patricia;
pub mod rib;
pub mod table;

pub use access::AccessCounter;
pub use bits::Bits;
pub use bspl::BsplTable;
pub use dir24::{Dir24Table, FibStats};
pub use hash::IntMap;
pub use patricia::PatriciaTable;
pub use rib::Rib;
pub use table::{LpmTable, Prefix};
