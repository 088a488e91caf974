//! The naive reference hierarchy.
//!
//! [`NaiveHierarchy`] models exactly the same machine as
//! [`Hierarchy`](crate::Hierarchy) but shares none of its data
//! structures or fast paths. Its caches and TLB are this module's
//! private stamp-and-scan types: every line and TLB entry carries a
//! valid bit and a recency stamp from a global tick, a probe scans the
//! whole set (or all TLB entries), and a miss replaces the first
//! invalid entry, else the one with the oldest stamp. `Hierarchy`
//! instead keeps each set and the TLB in recency order. Rectangles and
//! block sweeps go through the default per-row [`MemModel::access_rect`]
//! and [`MemModel::access_block_sweep`].
//!
//! It exists as the differential baseline for the fast model: the
//! `fastpath_equiv` suite drives both models with identical reference
//! streams (random, adversarial, and full encodes) and requires every
//! [`Counters`] field, the DRAM traffic, and the per-region tallies to
//! be bit-identical. Keep its semantics in lockstep with `Hierarchy`
//! whenever the charging model changes.

use crate::cache::{CacheConfig, CacheStats, ProbeResult};
use crate::counters::Counters;
use crate::dram::DramModel;
use crate::hierarchy::RegionMisses;
use crate::machine::MachineSpec;
use crate::model::{AccessKind, MemModel, ParallelModel};
use crate::space::Region;
use crate::tlb::TlbConfig;

/// One cache line of the reference cache.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Recency stamp; larger = more recently used.
    last_use: u64,
}

/// Reference set-associative write-back cache: LRU by stamp and scan.
#[derive(Debug, Clone)]
struct StampCache {
    config: CacheConfig,
    set_shift: u32,
    line_shift: u32,
    set_mask: u64,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl StampCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        StampCache {
            config,
            set_shift: sets.trailing_zeros(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            lines: vec![Line::default(); sets as usize * config.assoc],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Set index, tag and way range of `addr`'s line.
    fn locate(&self, addr: u64) -> (u64, u64, std::ops::Range<usize>) {
        let line_no = addr >> self.line_shift;
        let set = line_no & self.set_mask;
        let base = set as usize * self.config.assoc;
        (
            set,
            line_no >> self.set_shift,
            base..base + self.config.assoc,
        )
    }

    fn probe(&mut self, addr: u64, write: bool) -> ProbeResult {
        self.tick += 1;
        let (set, tag, ways) = self.locate(addr);
        let ways = &mut self.lines[ways];
        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = self.tick;
            way.dirty |= write;
            self.stats.hits += 1;
            return ProbeResult {
                hit: true,
                writeback_of: None,
            };
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_use + 1 } else { 0 })
            .expect("assoc >= 1");
        let writeback_of = (victim.valid && victim.dirty)
            .then(|| ((victim.tag << self.set_shift) | set) << self.line_shift);
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            last_use: self.tick,
        };
        self.stats.misses += 1;
        self.stats.writebacks += u64::from(writeback_of.is_some());
        ProbeResult {
            hit: false,
            writeback_of,
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let (_, tag, ways) = self.locate(addr);
        self.lines[ways].iter().any(|w| w.valid && w.tag == tag)
    }
}

/// Reference fully-associative TLB: LRU by stamp and scan.
#[derive(Debug, Clone)]
struct StampTlb {
    page_shift: u32,
    /// (virtual page number, recency stamp) per entry; invalid = None.
    entries: Vec<Option<(u64, u64)>>,
    tick: u64,
    misses: u64,
    lookups: u64,
}

impl StampTlb {
    fn new(config: TlbConfig) -> Self {
        StampTlb {
            page_shift: config.page_bytes.trailing_zeros(),
            entries: vec![None; config.entries],
            tick: 0,
            misses: 0,
            lookups: 0,
        }
    }

    fn lookup(&mut self, addr: u64) -> bool {
        let vpn = addr >> self.page_shift;
        self.tick += 1;
        self.lookups += 1;
        let tick = self.tick;
        if let Some((_, stamp)) = self.entries.iter_mut().flatten().find(|(p, _)| *p == vpn) {
            *stamp = tick;
            return true;
        }
        self.misses += 1;
        let victim = self
            .entries
            .iter_mut()
            .min_by_key(|e| e.map_or(0, |(_, stamp)| stamp + 1))
            .expect("entries >= 1");
        *victim = Some((vpn, tick));
        false
    }
}

/// Reference memory-hierarchy simulator without any charging fast path.
///
/// # Examples
///
/// ```
/// use m4ps_memsim::{AccessKind, Hierarchy, MachineSpec, MemModel, NaiveHierarchy};
///
/// let mut fast = Hierarchy::new(MachineSpec::o2());
/// let mut naive = NaiveHierarchy::new(MachineSpec::o2());
/// for m in [&mut fast as &mut dyn MemModel, &mut naive] {
///     m.access_range(0x1_0000, 16, AccessKind::Load, 16);
///     m.access_range(0x1_0000, 16, AccessKind::Load, 16);
/// }
/// assert_eq!(fast.counters(), naive.counters());
/// ```
#[derive(Debug, Clone)]
pub struct NaiveHierarchy {
    machine: MachineSpec,
    l1: StampCache,
    l2: StampCache,
    tlb: StampTlb,
    dram: DramModel,
    counters: Counters,
    prefetch_enabled: bool,
    region_spans: Vec<(u64, u64, usize)>,
    region_tags: Vec<String>,
    region_l1: Vec<u64>,
    region_l2: Vec<u64>,
}

impl NaiveHierarchy {
    /// Builds an empty naive hierarchy with prefetch modelling enabled.
    pub fn new(machine: MachineSpec) -> Self {
        NaiveHierarchy {
            l1: StampCache::new(machine.l1),
            l2: StampCache::new(machine.l2),
            tlb: StampTlb::new(machine.tlb),
            dram: DramModel::new(machine.dram),
            counters: Counters::new(),
            prefetch_enabled: true,
            region_spans: Vec::new(),
            region_tags: Vec::new(),
            region_l1: Vec::new(),
            region_l2: Vec::new(),
            machine,
        }
    }

    /// Builds a naive hierarchy with software prefetch disabled.
    pub fn without_prefetch(machine: MachineSpec) -> Self {
        let mut h = Self::new(machine);
        h.prefetch_enabled = false;
        h
    }

    /// Attaches the region map for miss attribution (same semantics as
    /// [`crate::Hierarchy::attach_regions`]).
    pub fn attach_regions(&mut self, regions: &[Region]) {
        self.region_spans.clear();
        self.region_tags.clear();
        for r in regions {
            let idx = match self.region_tags.iter().position(|t| t == &r.tag) {
                Some(i) => i,
                None => {
                    self.region_tags.push(r.tag.clone());
                    self.region_tags.len() - 1
                }
            };
            self.region_spans
                .push((r.base, r.base + r.bytes.max(1), idx));
        }
        self.region_spans.sort_unstable();
        self.region_l1 = vec![0; self.region_tags.len()];
        self.region_l2 = vec![0; self.region_tags.len()];
    }

    /// Miss tallies per region tag, most L1 misses first.
    pub fn region_misses(&self) -> Vec<RegionMisses> {
        let mut out: Vec<RegionMisses> = self
            .region_tags
            .iter()
            .enumerate()
            .map(|(i, tag)| RegionMisses {
                tag: tag.clone(),
                l1_misses: self.region_l1[i],
                l2_misses: self.region_l2[i],
            })
            .collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.l1_misses));
        out
    }

    /// DRAM traffic accounting.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// The machine this hierarchy models.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    fn region_of(&self, addr: u64) -> Option<usize> {
        if self.region_spans.is_empty() {
            return None;
        }
        let i = self
            .region_spans
            .partition_point(|&(base, _, _)| base <= addr);
        if i == 0 {
            return None;
        }
        let (_, end, idx) = self.region_spans[i - 1];
        (addr < end).then_some(idx)
    }

    /// Line probe through L1 → L2 → DRAM; counter semantics
    /// identical to the fast hierarchy's `probe_line`.
    fn probe_line(&mut self, addr: u64, write: bool, demand: bool) {
        let r1 = self.l1.probe(addr, write);
        if r1.hit {
            return;
        }
        if demand {
            self.counters.l1_misses += 1;
            if let Some(idx) = self.region_of(addr) {
                self.region_l1[idx] += 1;
            }
        }
        if let Some(victim) = r1.writeback_of {
            self.counters.l1_writebacks += 1;
            let wb = self.l2.probe(victim, true);
            if !wb.hit {
                self.counters.l2_misses += 1;
                self.dram.record_read(self.machine.l2.line_bytes);
                if wb.writeback_of.is_some() {
                    self.counters.l2_writebacks += 1;
                    self.dram.record_write(self.machine.l2.line_bytes);
                }
            }
        }
        let r2 = self.l2.probe(addr, false);
        if !r2.hit {
            if demand {
                self.counters.l2_misses += 1;
                if let Some(idx) = self.region_of(addr) {
                    self.region_l2[idx] += 1;
                }
            }
            self.dram.record_read(self.machine.l2.line_bytes);
            if r2.writeback_of.is_some() {
                self.counters.l2_writebacks += 1;
                self.dram.record_write(self.machine.l2.line_bytes);
            }
        }
    }
}

impl MemModel for NaiveHierarchy {
    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, arch_ops: u64) {
        match kind {
            AccessKind::Load => self.counters.loads += arch_ops,
            AccessKind::Store => self.counters.stores += arch_ops,
        }
        self.counters.bytes_accessed += len.max(1);
        let last = addr.saturating_add(len.max(1) - 1);
        let page = self.machine.tlb.page_bytes;
        let mut a = addr & !(page - 1);
        let last_page = last & !(page - 1);
        loop {
            if !self.tlb.lookup(a) {
                self.counters.tlb_misses += 1;
            }
            if a == last_page {
                break;
            }
            a += page;
        }
        let line = self.machine.l1.line_bytes;
        let write = matches!(kind, AccessKind::Store);
        let mut a = addr & !(line - 1);
        let last_line = last & !(line - 1);
        loop {
            self.probe_line(a, write, true);
            if a == last_line {
                break;
            }
            a += line;
        }
    }

    // access_rect and access_block_sweep: deliberately the default per-row
    // implementations — they *are* the reference semantics the
    // optimized overrides must match.

    fn prefetch(&mut self, addr: u64) {
        if !self.prefetch_enabled {
            return;
        }
        self.counters.prefetches += 1;
        if self.l1.contains(addr) {
            self.counters.prefetch_l1_hits += 1;
            return;
        }
        self.probe_line(addr, false, false);
    }

    fn add_ops(&mut self, ops: u64) {
        self.counters.compute_ops += ops;
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }
}

impl ParallelModel for NaiveHierarchy {
    fn fork(&self) -> Self {
        let mut child = if self.prefetch_enabled {
            NaiveHierarchy::new(self.machine.clone())
        } else {
            NaiveHierarchy::without_prefetch(self.machine.clone())
        };
        child.region_spans = self.region_spans.clone();
        child.region_tags = self.region_tags.clone();
        child.region_l1 = vec![0; self.region_tags.len()];
        child.region_l2 = vec![0; self.region_tags.len()];
        child
    }

    fn absorb(&mut self, child: Self) {
        self.counters.merge(&child.counters);
        self.dram.record_read(child.dram.bytes_read());
        self.dram.record_write(child.dram.bytes_written());
        for (i, tag) in child.region_tags.iter().enumerate() {
            if let Some(j) = self.region_tags.iter().position(|t| t == tag) {
                self.region_l1[j] += child.region_l1[i];
                self.region_l2[j] += child.region_l2[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::tlb::Tlb;

    /// A probe stream mixing same-line repeats, same-set conflicts past
    /// the associativity, and sweeps, with every third probe a store.
    fn probe_stream() -> impl Iterator<Item = (u64, bool)> {
        (0..4000u64).map(|i| {
            let addr = match i % 9 {
                0..=2 => 0x40 + (i % 32),      // one line, any byte
                3 | 4 => 256 * (i % 6),        // six lines of set 0
                5 => 32 * (i % 23),            // sweep across sets
                6 => 256 * (i % 3) + 32,       // three lines of set 1
                _ => (i * 0x9e37_79b9) % 8192, // scattered
            };
            (addr, i % 3 == 0)
        })
    }

    /// The recency-ordered `Cache` and the stamp-and-scan reference agree
    /// on every probe result, statistic and final residency.
    #[test]
    fn recency_cache_matches_stamp_reference() {
        for assoc in [1usize, 2, 4] {
            let config = CacheConfig {
                size_bytes: 256 * assoc as u64,
                line_bytes: 32,
                assoc,
            };
            let mut fast = Cache::new(config);
            let mut stamp = StampCache::new(config);
            for (addr, write) in probe_stream() {
                assert_eq!(
                    fast.probe(addr, write),
                    stamp.probe(addr, write),
                    "assoc {assoc}, addr {addr:#x}"
                );
            }
            assert_eq!(fast.stats(), stamp.stats, "assoc {assoc}");
            for a in (0..8192u64).step_by(32) {
                assert_eq!(
                    fast.contains(a),
                    stamp.contains(a),
                    "assoc {assoc}, line {a:#x}"
                );
            }
        }
    }

    /// The recency-ordered `Tlb` and the stamp reference agree on every
    /// lookup, including churn well past capacity.
    #[test]
    fn recency_tlb_matches_stamp_reference() {
        for entries in [1usize, 2, 4, 64] {
            let config = TlbConfig {
                entries,
                page_bytes: 4096,
            };
            let mut fast = Tlb::new(config);
            let mut stamp = StampTlb::new(config);
            for i in 0..5000u64 {
                let page = match i % 7 {
                    0..=2 => i % 2,                // alternating pair
                    3 => i % (entries as u64 + 3), // cycle just past capacity
                    4 => (i * 31) % 200,           // churn
                    _ => 5,
                };
                let addr = page * 4096 + (i % 4096);
                assert_eq!(
                    fast.lookup(addr),
                    stamp.lookup(addr),
                    "entries {entries}, i {i}"
                );
            }
            assert_eq!(fast.misses(), stamp.misses, "entries {entries}");
            assert_eq!(fast.lookups(), stamp.lookups, "entries {entries}");
        }
    }

    #[test]
    fn naive_fork_starts_cold_and_absorb_merges() {
        let mut parent = NaiveHierarchy::new(MachineSpec::o2());
        parent.access_range(0, 4096, AccessKind::Store, 512);
        let mut child = parent.fork();
        assert_eq!(*child.counters(), Counters::default());
        child.access_range(65536, 4096, AccessKind::Load, 512);
        let before = parent.counters().merged_with(child.counters());
        parent.absorb(child);
        assert_eq!(*parent.counters(), before);
    }

    #[test]
    fn naive_prefetch_counters_match_fast_model() {
        use crate::hierarchy::Hierarchy;
        let mut fast = Hierarchy::new(MachineSpec::o2());
        let mut naive = NaiveHierarchy::new(MachineSpec::o2());
        for m in [&mut fast as &mut dyn MemModel, &mut naive] {
            m.prefetch(0x2000); // useful
            m.access_range(0x2000, 8, AccessKind::Load, 1);
            m.prefetch(0x2004); // wasted (hits L1)
            m.prefetch_pair(0x4000);
        }
        assert_eq!(fast.counters(), naive.counters());
        assert_eq!(fast.dram().bytes_total(), naive.dram().bytes_total());
    }
}
