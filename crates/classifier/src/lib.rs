//! # rp-classifier — the Association Identification Unit (AIU)
//!
//! The AIU is "the most important component" of the Router Plugins
//! architecture (paper §5): it classifies packets into flows and maintains
//! the binding between flows and plugin instances. It consists of:
//!
//! * [`filter::FilterSpec`] — the six-tuple filter language with prefix
//!   wildcards, port ranges, and full wildcards (paper §3, `<src, dst,
//!   proto, sport, dport, incoming interface>`).
//! * [`dag::DagTable`] — the paper's novel DAG / *set-pruning trie* filter
//!   table (§5.1): one level per header field, a pluggable match function
//!   per level (the BMP plugins from `rp-lpm` for the address levels),
//!   filter replication along covering edges so lookup never backtracks,
//!   and cost `O(fields)` — independent of the number of filters.
//! * [`flow_table::FlowTable`] — the hash-based flow cache (§5.2): the
//!   cheap hash of the six-tuple's key, chained buckets, a free list that grows
//!   exponentially (1024, 2048, …), and recycling of the oldest records.
//! * [`linear::LinearTable`] — the `O(n)` scan that stands in for the
//!   "typical filter algorithms used in existing implementations" the
//!   paper benchmarks against.
//! * [`aiu::Aiu`] — the facade combining one filter table per *gate* with
//!   the shared flow table, implementing the cached / uncached data paths
//!   of §3.2.
//!
//! Everything is generic over the bound value `V` (in `router-core` this is
//! the plugin-instance handle), so the classifier substrate is reusable and
//! testable in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aiu;
pub mod dag;
pub mod filter;
pub mod flow_table;
pub mod grid;
pub mod linear;

pub use aiu::{Aiu, AiuConfig, GateId};
pub use dag::{BmpKind, DagTable, LookupStats};
pub use filter::{AddrMatch, FilterId, FilterSpec, PortMatch};
pub use flow_table::{FlowTable, FlowTableConfig};
pub use grid::{GridOfTries, TwoDFilter};
pub use linear::LinearTable;
