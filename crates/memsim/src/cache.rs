//! Set-associative cache with true-LRU replacement and
//! write-back / write-allocate policy, matching the MIPS R10000/R12000
//! data caches. Sets are kept in recency order (see [`Cache`]).

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `line_bytes × assoc × sets` with
    /// a power-of-two set count.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent or not power-of-two.
    pub fn sets(&self) -> u64 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(self.assoc >= 1);
        let sets = self.size_bytes / (self.line_bytes * self.assoc as u64);
        assert!(
            sets.is_power_of_two() && sets * self.line_bytes * self.assoc as u64 == self.size_bytes,
            "inconsistent cache geometry {self:?}"
        );
        sets
    }
}

/// Outcome of a single line probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// `true` when the line was already present.
    pub hit: bool,
    /// Address of a dirty line that had to be written back to make room
    /// (line-aligned), when the probe missed and evicted a dirty victim.
    pub writeback_of: Option<u64>,
}

/// Tag value marking an empty way. No real tag reaches it: a tag is
/// `addr >> (line_shift + set_bits)` and [`Cache::new`] requires that
/// shift to be non-zero.
const EMPTY: u64 = u64::MAX;

/// One level of set-associative cache.
///
/// Each set is kept in recency order: way 0 holds the most recently
/// used line and the last way the least recently used one. Empty ways
/// (tag `u64::MAX`) only ever sit at the tail, so evicting the last way
/// is exactly "first invalid way, else LRU". A hit on way 0 is one
/// compare; a hit on a later way rotates it to the front.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    /// `sets × assoc` tags, set-major, each set in recency order.
    tags: Vec<u64>,
    /// Dirty flags parallel to `tags`.
    dirty: Vec<bool>,
    stats: CacheStats,
}

/// Hit/miss accounting local to a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Probes that found the line present.
    pub hits: u64,
    /// Probes that missed and allocated.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not a consistent power-of-two geometry, or
    /// if it is a single set of one-byte lines (whose tags would span
    /// the whole `u64` range).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let line_shift = config.line_bytes.trailing_zeros();
        let set_shift = sets.trailing_zeros();
        assert!(
            line_shift + set_shift > 0,
            "degenerate cache geometry {config:?}"
        );
        let ways = (sets as usize) * config.assoc;
        Cache {
            config,
            line_shift,
            set_shift,
            set_mask: sets - 1,
            tags: vec![EMPTY; ways],
            dirty: vec![false; ways],
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Line-aligns an address.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes - 1)
    }

    /// Index of the set holding `addr`'s line.
    pub(crate) fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    /// First way index and tag of the set holding `addr`'s line.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_no = addr >> self.line_shift;
        let base = (line_no & self.set_mask) as usize * self.config.assoc;
        (base, line_no >> self.set_shift)
    }

    /// Probes (and on miss, allocates) the line containing `addr`.
    /// `write` marks the line dirty on hit or after allocation.
    #[inline]
    pub fn probe(&mut self, addr: u64, write: bool) -> ProbeResult {
        let (base, tag) = self.locate(addr);
        if self.tags[base] == tag {
            self.dirty[base] |= write;
            self.stats.hits += 1;
            return ProbeResult {
                hit: true,
                writeback_of: None,
            };
        }
        self.probe_slow(base, tag, write)
    }

    /// A probe whose line is not the MRU way of its set: a hit further
    /// down (rotated to the front) or a miss (evicting the last way).
    fn probe_slow(&mut self, base: usize, tag: u64, write: bool) -> ProbeResult {
        let ways = base..base + self.config.assoc;
        if let Some(i) = self.tags[ways.clone()].iter().position(|&t| t == tag) {
            let dirty = self.dirty[base + i] | write;
            self.install_front(base, i, tag, dirty);
            self.stats.hits += 1;
            return ProbeResult {
                hit: true,
                writeback_of: None,
            };
        }
        self.stats.misses += 1;
        let last = ways.end - 1;
        let mut writeback_of = None;
        if self.tags[last] != EMPTY && self.dirty[last] {
            self.stats.writebacks += 1;
            let set = (base / self.config.assoc) as u64;
            let victim_line = (self.tags[last] << self.set_shift) | set;
            writeback_of = Some(victim_line << self.line_shift);
        }
        self.install_front(base, last - base, tag, write);
        ProbeResult {
            hit: false,
            writeback_of,
        }
    }

    /// Moves ways `0..i` of the set at `base` back by one, overwriting
    /// way `i`, and puts `tag` with its dirty flag at way 0.
    #[inline]
    fn install_front(&mut self, base: usize, i: usize, tag: u64, dirty: bool) {
        for w in (base + 1..=base + i).rev() {
            self.tags[w] = self.tags[w - 1];
            self.dirty[w] = self.dirty[w - 1];
        }
        self.tags[base] = tag;
        self.dirty[base] = dirty;
    }

    /// `true` if the line containing `addr` is currently resident
    /// (does not update recency or statistics).
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        self.tags[base..base + self.config.assoc].contains(&tag)
    }

    /// Invalidates everything and zeroes statistics.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.dirty.fill(false);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 32 B = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            assoc: 2,
        })
    }

    #[test]
    fn geometry_validation() {
        assert_eq!(
            CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 32,
                assoc: 2
            }
            .sets(),
            512
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn non_power_of_two_sets_panics() {
        CacheConfig {
            size_bytes: 96,
            line_bytes: 32,
            assoc: 1,
        }
        .sets();
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.probe(0x40, false).hit);
        assert!(c.probe(0x40, false).hit);
        assert!(c.probe(0x5f, false).hit); // same 32 B line
        assert!(!c.probe(0x60, false).hit); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines whose line_no % 4 == 0: addresses 0, 128, 256…
        c.probe(0, false); // way A
        c.probe(128, false); // way B
        c.probe(0, false); // touch A → B is LRU
        c.probe(256, false); // evicts B (128)
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.probe(0, true); // dirty
        c.probe(128, false);
        c.probe(256, false); // evicts line 0 (LRU, dirty)
                             // line 0 was LRU after 128 and 256 probes? order: 0(t1),128(t2),256→evict 0.
        assert!(!c.contains(0));
        let mut c2 = tiny();
        c2.probe(0, true);
        c2.probe(128, false);
        let r = c2.probe(256, false);
        assert_eq!(r.writeback_of, Some(0));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.probe(0, false);
        c.probe(128, false);
        let r = c.probe(256, false);
        assert!(!r.hit);
        assert_eq!(r.writeback_of, None);
    }

    #[test]
    fn write_hit_marks_dirty_for_later_eviction() {
        let mut c = tiny();
        c.probe(0, false); // clean load
        c.probe(0, true); // store hit → dirty
        c.probe(128, false);
        c.probe(256, false); // evict 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        for addr in (0..1024u64).step_by(32) {
            c.probe(addr, false);
        }
        let s = c.stats();
        assert_eq!(s.misses, 32);
        assert_eq!(s.hits, 0);
        // 256 B cache can hold 8 lines of the 32 touched.
        let resident = (0..1024u64).step_by(32).filter(|&a| c.contains(a)).count();
        assert_eq!(resident, 8);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        c.probe(0, true);
        c.reset();
        assert!(!c.contains(0));
        assert_eq!(c.stats(), CacheStats::default());
    }

    /// A write hit on the MRU way (the one-compare path) must still
    /// dirty the line: fill the 2-way set (lines 0x40, 0xc0) and evict
    /// 0x40, expecting a writeback.
    #[test]
    fn mru_way_write_hit_dirties_the_line() {
        let mut c = tiny();
        c.probe(0x40, false);
        assert!(c.probe(0x47, true).hit);
        assert_eq!(c.stats().hits, 1);
        c.probe(0xc0, false);
        let r = c.probe(0x140, false);
        assert_eq!(r.writeback_of, Some(0x40));
    }

    /// A hit on a later way carries its dirty flag to the front with
    /// it, and the way it displaced becomes the victim.
    #[test]
    fn later_way_hit_rotates_line_and_dirty_flag_to_front() {
        let mut c = tiny();
        c.probe(0, true); // dirty, then demoted to way 1
        c.probe(128, false);
        assert!(c.probe(0, false).hit); // rotated back to way 0
        let r = c.probe(256, false); // evicts clean 128, not dirty 0
        assert_eq!(r.writeback_of, None);
        assert!(c.contains(0) && !c.contains(128));
        let r = c.probe(384, false); // now 0 is LRU: dirty eviction
        assert_eq!(r.writeback_of, Some(0));
    }

    #[test]
    fn empty_ways_fill_before_any_eviction() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 32,
            assoc: 4,
        });
        for a in [0u64, 32, 64] {
            assert_eq!(c.probe(a * 4, true).writeback_of, None);
        }
        assert!(c.probe(0, false).hit);
        assert_eq!(c.probe(384, true).writeback_of, None); // fourth way
                                                           // Full: LRU is 128 (0 was refreshed), and it is dirty.
        assert_eq!(c.probe(512, false).writeback_of, Some(128));
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        // 8 lines fit exactly; loop over them repeatedly → misses only on
        // first touch. Addresses chosen to spread over all 4 sets.
        let mut c = tiny();
        let addrs: Vec<u64> = (0..8u64).map(|i| i * 32).collect();
        for _ in 0..100 {
            for &a in &addrs {
                c.probe(a, false);
            }
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 8 * 100 - 8);
    }
}
