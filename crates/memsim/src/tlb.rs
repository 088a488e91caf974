//! Data-TLB model.
//!
//! The R10000/R12000 have a 64-entry fully-associative unified TLB with
//! (under IRIX 6.5) 16 KB base pages. The paper reports TLB misses as
//! negligible for MPEG-4; we simulate the TLB so that claim is *checked*
//! rather than assumed.

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        // R10K/R12K: 64 entries; IRIX 6.5 default page 16 KB.
        TlbConfig {
            entries: 64,
            page_bytes: 16 * 1024,
        }
    }
}

/// VPN value marking an empty entry. No real VPN reaches it:
/// [`Tlb::new`] requires pages of at least two bytes.
const EMPTY: u64 = u64::MAX;

/// Fully-associative LRU TLB.
///
/// The entries are a recency-ordered VPN list: entry 0 is the most
/// recently used page, the last entry the LRU one, and empty entries
/// only sit at the tail. A hit on entry 0 is one compare; a hit further
/// down rotates the page to the front; a miss drops the last entry.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    page_shift: u32,
    vpns: Vec<u64>,
    misses: u64,
    lookups: u64,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the page size is not a power of two of at least two
    /// bytes, or `entries` is zero.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.page_bytes.is_power_of_two() && config.page_bytes >= 2);
        assert!(config.entries >= 1);
        Tlb {
            config,
            page_shift: config.page_bytes.trailing_zeros(),
            vpns: vec![EMPTY; config.entries],
            misses: 0,
            lookups: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Looks up the page containing `addr`; returns `true` on hit and
    /// installs the translation on miss (LRU replacement).
    #[inline]
    pub fn lookup(&mut self, addr: u64) -> bool {
        let vpn = addr >> self.page_shift;
        self.lookups += 1;
        self.vpns[0] == vpn || self.lookup_slow(vpn)
    }

    /// A lookup whose page is not entry 0: a hit further down or a miss
    /// (dropping the last entry). Either way the page moves to the front.
    fn lookup_slow(&mut self, vpn: u64) -> bool {
        let found = self.vpns.iter().position(|&v| v == vpn);
        if found.is_none() {
            self.misses += 1;
        }
        let i = found.unwrap_or(self.vpns.len() - 1);
        self.vpns.copy_within(0..i, 1);
        self.vpns[0] = vpn;
        found.is_some()
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total misses taken.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_first_touch() {
        let mut t = Tlb::new(TlbConfig::default());
        assert!(!t.lookup(0x4000));
        assert!(t.lookup(0x4abc));
        assert!(t.lookup(0x7fff)); // still page 1 of 16 KB
        assert!(!t.lookup(0x8000)); // next page
        assert_eq!(t.misses(), 2);
        assert_eq!(t.lookups(), 4);
    }

    #[test]
    fn lru_replacement_at_capacity() {
        let cfg = TlbConfig {
            entries: 4,
            page_bytes: 4096,
        };
        let mut t = Tlb::new(cfg);
        for p in 0..4u64 {
            t.lookup(p * 4096);
        }
        t.lookup(0); // refresh page 0 → page 1 is LRU
        t.lookup(4 * 4096); // evicts page 1
        assert!(t.lookup(0)); // page 0 still resident
        assert!(!t.lookup(4096)); // page 1 was evicted
    }

    /// A page hit further down moves to the front; the page it
    /// displaced is then the one a lookup of entry 1 finds.
    #[test]
    fn later_entry_hit_rotates_to_front() {
        let cfg = TlbConfig {
            entries: 3,
            page_bytes: 4096,
        };
        let mut t = Tlb::new(cfg);
        for p in [0u64, 1, 2] {
            t.lookup(p * 4096); // order: 2, 1, 0
        }
        assert!(t.lookup(0)); // order: 0, 2, 1
        assert!(!t.lookup(3 * 4096)); // evicts 1
        assert!(t.lookup(2 * 4096));
        assert!(!t.lookup(4096));
        assert_eq!(t.misses(), 5);
    }

    #[test]
    fn working_set_within_entries_never_misses_again() {
        let cfg = TlbConfig {
            entries: 8,
            page_bytes: 4096,
        };
        let mut t = Tlb::new(cfg);
        for _ in 0..10 {
            for p in 0..8u64 {
                t.lookup(p * 4096 + 123);
            }
        }
        assert_eq!(t.misses(), 8);
    }
}
