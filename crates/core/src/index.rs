//! The index identifier.
//!
//! The paper builds *one* trie over *one* key extraction function, and a
//! deployment hosts exactly that one index.  [`IndexId`] survives only as
//! the name the benchmark harness passes to a handful of runtime accessors
//! (`peer_state`, `original_entries_of`, `issue_query_batch_on`,
//! `issue_range_query_on`, `NetMetrics::stats`); they accept nothing but
//! [`IndexId::PRIMARY`].

/// Identifier of the one index a deployment hosts.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexId(pub u16);

impl IndexId {
    /// The one index of every overlay engine.
    pub const PRIMARY: IndexId = IndexId(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_is_zero_and_default() {
        assert_eq!(IndexId::PRIMARY, IndexId(0));
        assert_eq!(IndexId::default(), IndexId::PRIMARY);
    }
}
