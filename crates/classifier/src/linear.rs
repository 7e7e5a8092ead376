//! Linear-scan classifier: the `O(n)` baseline standing in for "the
//! 'typical' filter algorithms used in existing implementations" the paper
//! compares against (§5.1.2: "most of these existing techniques require
//! O(n) time, n being the number of filters").
//!
//! Uses the same specificity order as the DAG, so both classifiers return
//! identical results — which the property tests in `tests/` assert.

use crate::filter::{FilterId, FilterSpec};
use rp_packet::FlowKey;

/// A classifier that scans every installed filter.
pub struct LinearTable<V> {
    filters: Vec<(FilterId, FilterSpec, V)>,
    next_id: u64,
}

impl<V> Default for LinearTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LinearTable<V> {
    /// Empty table.
    pub fn new() -> Self {
        LinearTable {
            filters: Vec::new(),
            next_id: 0,
        }
    }

    /// Install a filter.
    pub fn insert(&mut self, spec: FilterSpec, value: V) -> FilterId {
        let id = FilterId(self.next_id);
        self.next_id += 1;
        self.filters.push((id, spec, value));
        id
    }

    /// Remove a filter by id.
    pub fn remove(&mut self, id: FilterId) -> Option<(FilterSpec, V)> {
        let pos = self.filters.iter().position(|(i, _, _)| *i == id)?;
        let (_, spec, v) = self.filters.remove(pos);
        Some((spec, v))
    }

    /// Number of installed filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Most specific matching filter: scans all `n` filters.
    pub fn lookup(&self, key: &FlowKey) -> Option<(FilterId, &V)> {
        self.filters
            .iter()
            .filter(|(_, spec, _)| spec.matches(key))
            .max_by(|(ia, sa, _), (ib, sb, _)| {
                sa.specificity().cmp(&sb.specificity()).then(ib.cmp(ia)) // earlier id wins ties
            })
            .map(|(id, _, v)| (*id, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::paper_table1_filters;
    use rp_packet::FlowTuple;
    use std::net::{IpAddr, Ipv4Addr};

    fn t4(src: [u8; 4], dst: [u8; 4], proto: u8) -> FlowKey {
        FlowKey::of(&FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(src)),
            dst: IpAddr::V4(Ipv4Addr::from(dst)),
            proto,
            sport: 9,
            dport: 9,
            rx_if: 0,
        })
    }

    #[test]
    fn table1_most_specific() {
        let mut lt = LinearTable::new();
        let ids: Vec<FilterId> = paper_table1_filters()
            .into_iter()
            .enumerate()
            .map(|(i, f)| lt.insert(f, i))
            .collect();
        let got = lt.lookup(&t4([128, 252, 153, 1], [128, 252, 153, 7], 17));
        assert_eq!(got.unwrap().0, ids[1]); // filter 2 beats filter 4
        let got = lt.lookup(&t4([128, 252, 153, 1], [128, 252, 154, 7], 17));
        assert_eq!(got.unwrap().0, ids[3]);
        assert!(lt.lookup(&t4([1, 2, 3, 4], [5, 6, 7, 8], 6)).is_none());
    }

    #[test]
    fn remove_by_id() {
        let mut lt = LinearTable::new();
        let a = lt.insert(FilterSpec::any(), "a");
        assert_eq!(lt.len(), 1);
        assert_eq!(lt.remove(a).unwrap().1, "a");
        assert!(lt.remove(a).is_none());
        assert!(lt.is_empty());
    }

    #[test]
    fn tie_breaks_to_earliest() {
        let mut lt = LinearTable::new();
        let first = lt.insert(FilterSpec::any(), "first");
        let _second = lt.insert(FilterSpec::any(), "second");
        let got = lt.lookup(&t4([1, 1, 1, 1], [2, 2, 2, 2], 6));
        assert_eq!(got.unwrap().0, first);
    }
}
