//! Differential property suite: the fast [`Hierarchy`] (recency-ordered
//! cache sets and TLB, optimized `access_rect` and `access_rect_pair`)
//! against the [`NaiveHierarchy`] reference (stamp-and-scan LRU, default
//! per-row rectangles).
//!
//! Every test drives both models with an identical reference stream and
//! requires *every* [`Counters`] field, the DRAM read/write traffic,
//! and the per-region miss attribution to be bit-identical. The streams
//! are chosen to hammer the fast paths where they could diverge:
//! same-line repeats, store-after-load dirtiness, set-conflict
//! evictions, page alternation, prefetch interleaving, and rectangular
//! and paired-rectangle charging.

use m4ps_memsim::{
    AccessKind, Counters, Hierarchy, MachineSpec, MemModel, NaiveHierarchy, ParallelModel,
    RectSpan, Region,
};
use m4ps_testkit::prop::{check, Config};
use m4ps_testkit::prop_assert_eq;
use m4ps_testkit::rng::Rng;

/// One operation of a generated reference stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Range(u64, u64, AccessKind, u64),
    Rect(u64, u64, u64, u64, AccessKind, u64),
    RectPair(RectSpan, RectSpan, u64, AccessKind, u64),
    Prefetch(u64),
    PrefetchPair(u64),
    Ops(u64),
}

fn apply<M: MemModel>(m: &mut M, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Range(a, l, k, n) => m.access_range(a, l, k, n),
            Op::Rect(a, s, r, w, k, n) => m.access_rect(a, s, r, w, k, n),
            Op::RectPair(a, b, r, k, n) => m.access_rect_pair(a, b, r, k, n),
            Op::Prefetch(a) => m.prefetch(a),
            Op::PrefetchPair(a) => m.prefetch_pair(a),
            Op::Ops(n) => m.add_ops(n),
        }
    }
}

/// A tiny machine so short streams still cause conflict and capacity
/// evictions at both levels and in the TLB.
fn small_machine() -> MachineSpec {
    let mut m = MachineSpec::o2();
    m.l1.size_bytes = 1024; // 16 sets × 2 × 32 B
    m.l2.size_bytes = 8 * 1024; // 32 sets × 2 × 128 B
    m.tlb.entries = 4;
    m
}

/// [`small_machine`] with a one-entry TLB: two spans in different pages
/// then evict each other on every row.
fn one_entry_tlb_machine() -> MachineSpec {
    let mut m = small_machine();
    m.tlb.entries = 1;
    m
}

/// Generates a stream biased toward the patterns the fast paths
/// shortcut: runs of touches inside one line/page, interleaved with
/// conflicting lines, page churn, stores, rects, paired rects and
/// prefetches.
fn gen_stream(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    // A handful of hot lines; several alias to the same L1 set.
    let bases: Vec<u64> = (0..8)
        .map(|i| 0x1000 * u64::from(rng.gen_range(0u32..64)) + 0x200 * i)
        .collect();
    let n = rng.gen_range(20u32..120);
    for _ in 0..n {
        let kind = if rng.gen_bool() {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        let base = *rng.choose(&bases);
        match rng.gen_range(0u32..11) {
            // Repeat touches within one line (the MRU fast path).
            0..=3 => {
                let line = base & !31;
                for _ in 0..rng.gen_range(1u32..6) {
                    let off = u64::from(rng.gen_range(0u32..30));
                    let len = u64::from(rng.gen_range(0u32..3)).min(31 - off);
                    ops.push(Op::Range(line + off, len.max(1), kind, 1));
                }
            }
            // Row runs like SimBuf::load_run.
            4..=5 => {
                let len = u64::from(rng.gen_range(1u32..48));
                ops.push(Op::Range(base, len, kind, len));
            }
            // Rectangular block charges with varied geometry.
            6..=7 => {
                let rows = u64::from(rng.gen_range(1u32..18));
                let w = u64::from(rng.gen_range(1u32..20));
                let stride = u64::from(rng.gen_range(16u32..800));
                ops.push(Op::Rect(base, stride, rows, w, kind, w));
            }
            8 => {
                let other = *rng.choose(&bases);
                ops.push(gen_rect_pair(rng, base, other, kind));
            }
            9 => {
                if rng.gen_bool() {
                    ops.push(Op::Prefetch(base));
                } else {
                    ops.push(Op::PrefetchPair(base));
                }
            }
            _ => ops.push(Op::Ops(u64::from(rng.next_u32() & 0xfff))),
        }
    }
    ops
}

/// A paired rectangle the way SAD candidates issue them (one fixed
/// block against a displaced one), with the shapes that matter for the
/// lockstep TLB argument: rows crossing a 16 KB page partway down, spans
/// straddling lines, both spans in one page or one L1 set, and `rows`
/// of zero.
fn gen_rect_pair(rng: &mut Rng, base_a: u64, base_b: u64, kind: AccessKind) -> Op {
    let page = 16 * 1024;
    let row_bytes = *rng.choose(&[1u64, 8, 16, 17, 31, 33, 64]);
    let stride = *rng.choose(&[32u64, 720, 752, 1024, 4096, page, page + 16]);
    let rows = u64::from(rng.gen_range(0u32..18));
    let addr_a = match rng.gen_range(0u32..4) {
        // Start a few rows above a page boundary.
        0 => (base_a | (page - 1)).saturating_sub(stride * u64::from(rng.gen_range(0u32..4))),
        // Straddle a line.
        1 => (base_a | 31) - u64::from(rng.gen_range(0u32..8)),
        _ => base_a + u64::from(rng.gen_range(0u32..64)),
    };
    let addr_b = match rng.gen_range(0u32..4) {
        // Same L1 set (1 KB apart on the small machine), same page.
        0 => addr_a + 1024,
        // A small displacement, like a nearby search candidate.
        1 => addr_a.saturating_add(u64::from(rng.gen_range(0u32..40))),
        2 => addr_a,
        _ => base_b + u64::from(rng.gen_range(0u32..64)),
    };
    let ops_per_row = row_bytes;
    Op::RectPair(
        RectSpan {
            addr: addr_a,
            stride,
            row_bytes,
        },
        RectSpan {
            addr: addr_b,
            stride,
            row_bytes,
        },
        rows,
        kind,
        ops_per_row,
    )
}

/// Asserts full observable equality between the two models.
#[track_caller]
fn assert_models_equal(fast: &Hierarchy, naive: &NaiveHierarchy) {
    assert_eq!(fast.counters(), naive.counters(), "Counters diverged");
    assert_eq!(
        fast.dram().bytes_read(),
        naive.dram().bytes_read(),
        "DRAM reads diverged"
    );
    assert_eq!(
        fast.dram().bytes_written(),
        naive.dram().bytes_written(),
        "DRAM writes diverged"
    );
    assert_eq!(
        fast.region_misses(),
        naive.region_misses(),
        "region attribution diverged"
    );
}

#[test]
fn random_streams_are_counter_identical() {
    check(
        "fastpath/random_streams",
        &Config::default(),
        gen_stream,
        |ops| {
            for machine in [small_machine(), one_entry_tlb_machine(), MachineSpec::o2()] {
                let mut fast = Hierarchy::new(machine.clone());
                let mut naive = NaiveHierarchy::new(machine);
                apply(&mut fast, ops);
                apply(&mut naive, ops);
                prop_assert_eq!(fast.counters(), naive.counters());
                prop_assert_eq!(fast.dram().bytes_total(), naive.dram().bytes_total());
            }
            Ok(())
        },
    );
}

#[test]
fn random_streams_with_regions_and_prefetch_disabled() {
    let regions = [
        Region {
            tag: "frame".into(),
            base: 0,
            bytes: 64 * 1024,
        },
        Region {
            tag: "ref".into(),
            base: 64 * 1024,
            bytes: 64 * 1024,
        },
    ];
    check(
        "fastpath/random_streams_regions",
        &Config::default(),
        gen_stream,
        |ops| {
            let mut fast = Hierarchy::without_prefetch(small_machine());
            let mut naive = NaiveHierarchy::without_prefetch(small_machine());
            fast.attach_regions(&regions);
            naive.attach_regions(&regions);
            apply(&mut fast, ops);
            apply(&mut naive, ops);
            prop_assert_eq!(fast.counters(), naive.counters());
            prop_assert_eq!(fast.region_misses(), naive.region_misses());
            Ok(())
        },
    );
}

/// Adversarial hand-written sequences aimed at each fast-path guard.
#[test]
fn pinned_adversarial_sequences() {
    let scripts: Vec<Vec<Op>> = vec![
        // Store to a clean MRU line must not lose the dirty transition.
        vec![
            Op::Range(0x100, 8, AccessKind::Load, 1),
            Op::Range(0x100, 8, AccessKind::Store, 1),
            Op::Range(0x100, 8, AccessKind::Store, 1),
            // Evict it through its set and observe the writeback.
            Op::Range(0x100 + 1024, 8, AccessKind::Load, 1),
            Op::Range(0x100 + 2048, 8, AccessKind::Load, 1),
            Op::Range(0x100 + 3072, 8, AccessKind::Load, 1),
        ],
        // Prefetch swings the hierarchy MRU line without a TLB walk;
        // the following access must still resolve its own page.
        vec![
            Op::Range(0x100, 8, AccessKind::Load, 1),
            Op::Prefetch(0x20_0000),
            Op::Range(0x20_0000, 8, AccessKind::Load, 1),
            Op::Range(0x20_0008, 8, AccessKind::Load, 1),
        ],
        // Line-straddling spans never take the fast path.
        vec![
            Op::Range(0x11e, 8, AccessKind::Load, 1),
            Op::Range(0x11e, 8, AccessKind::Load, 1),
            Op::Range(0x11f, 1, AccessKind::Store, 1),
        ],
        // Page-straddling rect rows (stride pushes rows across pages).
        vec![Op::Rect(0x3f00, 0x1000, 8, 64, AccessKind::Store, 64)],
        // Zero-length and zero-row degenerate shapes.
        vec![
            Op::Range(0x40, 0, AccessKind::Load, 0),
            Op::Rect(0x40, 32, 0, 16, AccessKind::Load, 16),
            Op::Rect(0x40, 0, 4, 16, AccessKind::Store, 16),
        ],
        // Alternating pages (the two-slot TLB memo pattern) plus a
        // third page to force memo misses.
        (0..40)
            .map(|i| {
                let page = [0u64, 0x4000, 0x8000][i % 3];
                Op::Range(page + (i as u64 % 13) * 8, 8, AccessKind::Load, 1)
            })
            .collect(),
    ];
    for (i, script) in scripts.iter().enumerate() {
        let mut fast = Hierarchy::new(small_machine());
        let mut naive = NaiveHierarchy::new(small_machine());
        apply(&mut fast, script);
        apply(&mut naive, script);
        assert_models_equal(&fast, &naive);
        assert_ne!(
            *fast.counters(),
            Counters::default(),
            "script {i} was empty"
        );
    }
}

/// fork/absorb (the slice-parallel merge path) must agree field by
/// field, including when children run disjoint streams.
#[test]
fn fork_absorb_is_counter_identical() {
    let mut rng = Rng::new(0x5eed_fa57);
    let parent_ops = gen_stream(&mut rng);
    let child_a = gen_stream(&mut rng);
    let child_b = gen_stream(&mut rng);

    let regions = [Region {
        tag: "frame".into(),
        base: 0,
        bytes: 1 << 20,
    }];
    let mut fast = Hierarchy::new(small_machine());
    let mut naive = NaiveHierarchy::new(small_machine());
    fast.attach_regions(&regions);
    naive.attach_regions(&regions);
    apply(&mut fast, &parent_ops);
    apply(&mut naive, &parent_ops);

    let (mut fa, mut fb) = (fast.fork(), fast.fork());
    let (mut na, mut nb) = (naive.fork(), naive.fork());
    apply(&mut fa, &child_a);
    apply(&mut na, &child_a);
    apply(&mut fb, &child_b);
    apply(&mut nb, &child_b);
    fast.absorb(fa);
    naive.absorb(na);
    fast.absorb(fb);
    naive.absorb(nb);
    assert_models_equal(&fast, &naive);
}

/// The optimized `access_rect` must equal issuing its defining per-row
/// `access_range` loop on the *same* model (not just the naive one).
#[test]
fn access_rect_equals_row_loop_on_fast_model() {
    check(
        "fastpath/rect_equals_rows",
        &Config::default(),
        |rng: &mut Rng| {
            let addr = u64::from(rng.next_u32() & 0xf_ffff);
            let stride = u64::from(rng.gen_range(1u32..2048));
            let rows = u64::from(rng.gen_range(1u32..20));
            let w = u64::from(rng.gen_range(1u32..64));
            let kind = if rng.gen_bool() {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            (addr, stride, rows, w, kind)
        },
        |&(addr, stride, rows, w, kind)| {
            let mut by_rect = Hierarchy::new(small_machine());
            let mut by_rows = Hierarchy::new(small_machine());
            by_rect.access_rect(addr, stride, rows, w, kind, w);
            let mut a = addr;
            for r in 0..rows {
                by_rows.access_range(a, w, kind, w);
                if r + 1 < rows {
                    a = a.saturating_add(stride);
                }
            }
            prop_assert_eq!(by_rect.counters(), by_rows.counters());
            Ok(())
        },
    );
}

/// Streams dominated by paired rectangles, with single spans mixed in
/// so the TLB order a pair starts from varies. Includes a one-entry TLB,
/// where pages of the two spans evict each other row by row.
#[test]
fn rect_pair_streams_are_counter_identical() {
    let regions = [Region {
        tag: "plane".into(),
        base: 0,
        bytes: 1 << 22,
    }];
    check(
        "fastpath/rect_pair_streams",
        &Config::default(),
        |rng: &mut Rng| {
            let n = rng.gen_range(1u32..40);
            (0..n)
                .map(|_| {
                    let kind = if rng.gen_range(0u32..4) == 0 {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    let a = 0x1000 * u64::from(rng.gen_range(0u32..256));
                    let b = 0x1000 * u64::from(rng.gen_range(0u32..256));
                    if rng.gen_range(0u32..5) == 0 {
                        Op::Range(b + u64::from(rng.gen_range(0u32..64)), 16, kind, 16)
                    } else {
                        gen_rect_pair(rng, a, b, kind)
                    }
                })
                .collect::<Vec<Op>>()
        },
        |ops| {
            for machine in [small_machine(), one_entry_tlb_machine(), MachineSpec::o2()] {
                let mut fast = Hierarchy::new(machine.clone());
                let mut naive = NaiveHierarchy::new(machine);
                fast.attach_regions(&regions);
                naive.attach_regions(&regions);
                apply(&mut fast, ops);
                apply(&mut naive, ops);
                prop_assert_eq!(fast.counters(), naive.counters());
                prop_assert_eq!(fast.dram().bytes_read(), naive.dram().bytes_read());
                prop_assert_eq!(fast.dram().bytes_written(), naive.dram().bytes_written());
                prop_assert_eq!(fast.region_misses(), naive.region_misses());
            }
            Ok(())
        },
    );
}

/// The `Hierarchy` override of `access_rect_pair` must equal its
/// defining interleaved per-row `access_range` loop on the same model.
#[test]
fn rect_pair_equals_interleaved_row_loop_on_fast_model() {
    check(
        "fastpath/rect_pair_equals_rows",
        &Config::default(),
        |rng: &mut Rng| {
            let kind = if rng.gen_bool() {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            let a = 0x1000 * u64::from(rng.gen_range(0u32..64));
            let b = 0x1000 * u64::from(rng.gen_range(0u32..64));
            gen_rect_pair(rng, a, b, kind)
        },
        |&op| {
            let Op::RectPair(a, b, rows, kind, n) = op else {
                unreachable!()
            };
            for machine in [small_machine(), one_entry_tlb_machine()] {
                let mut paired = Hierarchy::new(machine.clone());
                let mut by_rows = Hierarchy::new(machine);
                paired.access_rect_pair(a, b, rows, kind, n);
                let (mut addr_a, mut addr_b) = (a.addr, b.addr);
                for r in 0..rows {
                    by_rows.access_range(addr_a, a.row_bytes, kind, n);
                    by_rows.access_range(addr_b, b.row_bytes, kind, n);
                    if r + 1 < rows {
                        addr_a = addr_a.saturating_add(a.stride);
                        addr_b = addr_b.saturating_add(b.stride);
                    }
                }
                prop_assert_eq!(paired.counters(), by_rows.counters());
                prop_assert_eq!(paired.dram().bytes_total(), by_rows.dram().bytes_total());
            }
            Ok(())
        },
    );
}

/// Hand-written paired rectangles aimed at the lockstep TLB filter.
#[test]
fn pinned_rect_pair_sequences() {
    let span = |addr, stride, row_bytes| RectSpan {
        addr,
        stride,
        row_bytes,
    };
    let page = 16 * 1024;
    let scripts: Vec<Vec<Op>> = vec![
        // Both rectangles cross a page boundary after their third row,
        // one of them also straddling lines.
        vec![Op::RectPair(
            span(page - 3 * 752 + 4, 752, 16),
            span(8 * page - 3 * 752 + 27, 752, 16),
            16,
            AccessKind::Load,
            16,
        )],
        // One rectangle crosses into a new page mid-row.
        vec![Op::RectPair(
            span(page - 2 * 752 - 8, 752, 16),
            span(3 * page, 752, 16),
            8,
            AccessKind::Load,
            16,
        )],
        // Both spans in one page and one L1 set; then stores to the
        // same pair, so the dirty bits must survive the rotations.
        vec![
            Op::RectPair(
                span(0x100, 752, 16),
                span(0x100 + 1024, 752, 16),
                16,
                AccessKind::Load,
                16,
            ),
            Op::RectPair(
                span(0x100, 752, 16),
                span(0x100 + 1024, 752, 16),
                16,
                AccessKind::Store,
                16,
            ),
            Op::Range(0x100 + 2048, 16, AccessKind::Load, 16),
            Op::Range(0x100 + 3072, 16, AccessKind::Load, 16),
        ],
        // The two spans are the same rectangle.
        vec![Op::RectPair(
            span(0x4010, 720, 8),
            span(0x4010, 720, 8),
            8,
            AccessKind::Load,
            8,
        )],
        // Zero rows charge nothing; a stride of zero repeats one row.
        vec![
            Op::RectPair(
                span(0x40, 32, 16),
                span(0x80, 32, 16),
                0,
                AccessKind::Load,
                16,
            ),
            Op::RectPair(
                span(0x40, 0, 16),
                span(0x9000, 0, 16),
                4,
                AccessKind::Store,
                16,
            ),
        ],
        // Rows running into the top of the address space: the stride
        // saturates, so the last rows repeat the top line and page.
        vec![Op::RectPair(
            span(u64::MAX - 3 * 752, 752, 16),
            span(u64::MAX - 2 * page, page, 16),
            8,
            AccessKind::Load,
            16,
        )],
        vec![Op::RectPair(
            span(u64::MAX - 20, u64::MAX, 64),
            span(u64::MAX - 40, 16, 64),
            5,
            AccessKind::Store,
            64,
        )],
    ];
    for machine in [small_machine(), one_entry_tlb_machine(), MachineSpec::o2()] {
        for (i, script) in scripts.iter().enumerate() {
            let mut fast = Hierarchy::new(machine.clone());
            let mut naive = NaiveHierarchy::new(machine.clone());
            apply(&mut fast, script);
            apply(&mut naive, script);
            assert_models_equal(&fast, &naive);
            assert_ne!(
                *fast.counters(),
                Counters::default(),
                "script {i} was empty"
            );
        }
    }
}
