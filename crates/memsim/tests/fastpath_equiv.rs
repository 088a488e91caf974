//! Differential property suite: the fast [`Hierarchy`] (recency-ordered
//! cache sets and TLB, optimized `access_rect` and the two-pass
//! `access_block_sweep`) against the [`NaiveHierarchy`] reference
//! (stamp-and-scan LRU, default per-row rectangles and sweeps).
//!
//! Every test drives both models with an identical reference stream and
//! requires *every* [`Counters`] field, the DRAM read/write traffic,
//! and the per-region miss attribution to be bit-identical. The streams
//! are chosen to hammer the fast paths where they could diverge:
//! same-line repeats, store-after-load dirtiness, set-conflict
//! evictions, page alternation, prefetch interleaving, rectangular
//! charging and block sweeps.

use std::cell::Cell;

use m4ps_memsim::{
    block_sweep_by_rows, AccessKind, Counters, Hierarchy, MachineSpec, MemModel, NaiveHierarchy,
    ParallelModel, RectSpan, Region, SweepCandidate,
};
use m4ps_testkit::prop::{check, Config};
use m4ps_testkit::prop_assert_eq;
use m4ps_testkit::rng::Rng;

/// One operation of a generated reference stream.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Range(u64, u64, AccessKind, u64),
    Rect(u64, u64, u64, u64, AccessKind, u64),
    Sweep(RectSpan, RectSpan, Vec<SweepCandidate>, u64),
    Prefetch(u64),
    PrefetchPair(u64),
    Ops(u64),
}

fn apply<M: MemModel>(m: &mut M, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Range(a, l, k, n) => m.access_range(a, l, k, n),
            Op::Rect(a, s, r, w, k, n) => m.access_rect(a, s, r, w, k, n),
            Op::Sweep(a, b, ref cands, n) => m.access_block_sweep(a, b, cands, n),
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
/// conflicting lines, page churn, stores, rects, one-candidate sweeps
/// and prefetches.
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
                ops.extend(gen_pair_sweep(rng, base, other, kind));
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

/// A one-candidate sweep: one fixed block against one other rectangle,
/// with the shapes that matter for the line sweep: rows crossing a 16 KB
/// page partway down, spans straddling lines, both spans in one page or
/// one L1 set, the same rectangle twice, and `rows` of zero. Sweeps are
/// loads; with `kind` a store the two rectangles are stored instead,
/// block first.
fn gen_pair_sweep(rng: &mut Rng, base_a: u64, base_b: u64, kind: AccessKind) -> Vec<Op> {
    let page = 16 * 1024;
    let row_bytes = *rng.choose(&[1u64, 8, 16, 17, 31, 33, 64]);
    let stride = *rng.choose(&[32u64, 720, 752, 1024, 4096, page, page + 16]);
    let rows = rng.gen_range(0u8..18);
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
    let span = |addr| RectSpan {
        addr,
        stride,
        row_bytes,
    };
    match kind {
        AccessKind::Load => vec![pair_sweep(span(addr_a), span(addr_b), rows, row_bytes)],
        AccessKind::Store => [addr_a, addr_b]
            .map(|a| Op::Rect(a, stride, u64::from(rows), row_bytes, kind, row_bytes))
            .to_vec(),
    }
}

/// The sweep of one undisplaced candidate reading `rows` rows: block
/// row, then reference row, row by row.
fn pair_sweep(block: RectSpan, reference: RectSpan, rows: u8, ops_per_row: u64) -> Op {
    let cand = SweepCandidate { dx: 0, dy: 0, rows };
    Op::Sweep(block, reference, vec![cand], ops_per_row)
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

/// Streams dominated by one-candidate sweeps, with single spans mixed
/// in so the TLB order a sweep starts from varies. Includes a one-entry
/// TLB, where pages of the two spans evict each other row by row.
#[test]
fn one_candidate_sweep_streams_are_counter_identical() {
    let regions = [Region {
        tag: "plane".into(),
        base: 0,
        bytes: 1 << 22,
    }];
    check(
        "fastpath/pair_sweep_streams",
        &Config::default(),
        |rng: &mut Rng| {
            let n = rng.gen_range(1u32..40);
            let mut ops = Vec::new();
            for _ in 0..n {
                let kind = if rng.gen_range(0u32..4) == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let a = 0x1000 * u64::from(rng.gen_range(0u32..256));
                let b = 0x1000 * u64::from(rng.gen_range(0u32..256));
                if rng.gen_range(0u32..5) == 0 {
                    ops.push(Op::Range(
                        b + u64::from(rng.gen_range(0u32..64)),
                        16,
                        kind,
                        16,
                    ));
                } else {
                    ops.extend(gen_pair_sweep(rng, a, b, kind));
                }
            }
            ops
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

/// The `Hierarchy` override of `access_block_sweep` on one candidate
/// must equal its defining interleaved per-row `access_range` loop on
/// the same model.
#[test]
fn one_candidate_sweep_equals_interleaved_row_loop_on_fast_model() {
    check(
        "fastpath/pair_sweep_equals_rows",
        &Config::default(),
        |rng: &mut Rng| {
            let a = 0x1000 * u64::from(rng.gen_range(0u32..64));
            let b = 0x1000 * u64::from(rng.gen_range(0u32..64));
            gen_pair_sweep(rng, a, b, AccessKind::Load)
        },
        |ops| {
            let Op::Sweep(a, b, ref cands, n) = ops[0] else {
                unreachable!()
            };
            let rows = cands[0].rows;
            for machine in [small_machine(), one_entry_tlb_machine(), MachineSpec::o2()] {
                let mut swept = Hierarchy::new(machine.clone());
                let mut by_rows = Hierarchy::new(machine);
                swept.access_block_sweep(a, b, cands, n);
                let (mut addr_a, mut addr_b) = (a.addr, b.addr);
                for r in 0..rows {
                    by_rows.access_range(addr_a, a.row_bytes, AccessKind::Load, n);
                    by_rows.access_range(addr_b, b.row_bytes, AccessKind::Load, n);
                    if r + 1 < rows {
                        addr_a = addr_a.saturating_add(a.stride);
                        addr_b = addr_b.saturating_add(b.stride);
                    }
                }
                prop_assert_eq!(swept.counters(), by_rows.counters());
                prop_assert_eq!(swept.dram().bytes_total(), by_rows.dram().bytes_total());
            }
            Ok(())
        },
    );
}

/// Hand-written one-candidate sweeps: page crossings, line straddles,
/// shared pages and sets, and degenerate shapes.
#[test]
fn pinned_one_candidate_sweeps() {
    let span = |addr, stride, row_bytes| RectSpan {
        addr,
        stride,
        row_bytes,
    };
    let page = 16 * 1024;
    let stores = |a: RectSpan, b: RectSpan, rows: u64| {
        [a, b].map(|s| {
            Op::Rect(
                s.addr,
                s.stride,
                rows,
                s.row_bytes,
                AccessKind::Store,
                s.row_bytes,
            )
        })
    };
    let scripts: Vec<Vec<Op>> = vec![
        // Both rectangles cross a page boundary after their third row,
        // one of them also straddling lines.
        vec![pair_sweep(
            span(page - 3 * 752 + 4, 752, 16),
            span(8 * page - 3 * 752 + 27, 752, 16),
            16,
            16,
        )],
        // One rectangle crosses into a new page mid-row.
        vec![pair_sweep(
            span(page - 2 * 752 - 8, 752, 16),
            span(3 * page, 752, 16),
            8,
            16,
        )],
        // Both spans in one page and one L1 set; then stores to the
        // same rectangles, so the dirty bits must survive the rotations.
        [
            vec![pair_sweep(
                span(0x100, 752, 16),
                span(0x100 + 1024, 752, 16),
                16,
                16,
            )],
            stores(span(0x100, 752, 16), span(0x100 + 1024, 752, 16), 16).to_vec(),
            vec![
                Op::Range(0x100 + 2048, 16, AccessKind::Load, 16),
                Op::Range(0x100 + 3072, 16, AccessKind::Load, 16),
            ],
        ]
        .concat(),
        // The two spans are the same rectangle.
        vec![pair_sweep(span(0x4010, 720, 8), span(0x4010, 720, 8), 8, 8)],
        // Zero rows charge nothing; a stride of zero repeats one row.
        [
            vec![
                pair_sweep(span(0x40, 32, 16), span(0x80, 32, 16), 0, 16),
                pair_sweep(span(0x40, 0, 16), span(0x9000, 0, 16), 4, 16),
            ],
            stores(span(0x40, 0, 16), span(0x9000, 0, 16), 4).to_vec(),
        ]
        .concat(),
        // Rows running into the top of the address space: the stride
        // saturates, so the last rows repeat the top line and page.
        vec![pair_sweep(
            span(u64::MAX - 3 * 752, 752, 16),
            span(u64::MAX - 2 * page, page, 16),
            8,
            16,
        )],
        [
            vec![pair_sweep(
                span(u64::MAX - 20, u64::MAX, 64),
                span(u64::MAX - 40, 16, 64),
                5,
                64,
            )],
            stores(
                span(u64::MAX - 20, u64::MAX, 64),
                span(u64::MAX - 40, 16, 64),
                5,
            )
            .to_vec(),
        ]
        .concat(),
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

/// A block search the way the motion estimator issues it: a `size`-row
/// block against candidates displaced inside a ±`range` window, visited
/// in raster (full search), diamond-walk or scattered order, each
/// reading 0 to `size` rows.
#[derive(Debug, Clone)]
struct SweepCase {
    block: RectSpan,
    reference: RectSpan,
    cands: Vec<SweepCandidate>,
    before: Vec<Op>,
    after: Vec<Op>,
}

fn gen_sweep_case(rng: &mut Rng) -> SweepCase {
    let size = *rng.choose(&[8u64, 16]);
    // PAL and QCIF luma strides with the 16-pixel pad, a line-aligned
    // one and odd ones (many line phases).
    let stride = *rng.choose(&[752u64, 208, 768, 753, 1001, 4096]);
    let range = rng.gen_range(1i32..=15);
    let block = RectSpan {
        addr: 0x10_0000 + u64::from(rng.gen_range(0u32..0x4_0000)),
        stride,
        row_bytes: size,
    };
    let reference = RectSpan {
        addr: 0x80_0000 + u64::from(rng.gen_range(0u32..0x4_0000)),
        stride,
        row_bytes: size,
    };
    let rows = |rng: &mut Rng| rng.gen_range(0u8..=size as u8);
    let mut cands = vec![SweepCandidate {
        dx: 0,
        dy: 0,
        rows: size as u8,
    }];
    match rng.gen_range(0u32..3) {
        0 => {
            for dy in -range..=range {
                for dx in -range..=range {
                    let rows = rows(rng);
                    cands.push(SweepCandidate {
                        dx: dx as i8,
                        dy: dy as i8,
                        rows,
                    });
                }
            }
        }
        1 => {
            let (mut cx, mut cy) = (0i32, 0i32);
            for _ in 0..rng.gen_range(1u32..12) {
                for (dx, dy) in [
                    (0, -2),
                    (-1, -1),
                    (1, -1),
                    (-2, 0),
                    (2, 0),
                    (-1, 1),
                    (1, 1),
                    (0, 2),
                ] {
                    let (x, y) = (cx + dx, cy + dy);
                    if x.abs() <= range && y.abs() <= range {
                        let rows = rows(rng);
                        cands.push(SweepCandidate {
                            dx: x as i8,
                            dy: y as i8,
                            rows,
                        });
                    }
                }
                cx = (cx + rng.gen_range(-2i32..=2)).clamp(-range, range);
                cy = (cy + rng.gen_range(-2i32..=2)).clamp(-range, range);
            }
        }
        _ => {
            for _ in 0..rng.gen_range(1u32..60) {
                let rows = rows(rng);
                cands.push(SweepCandidate {
                    dx: rng.gen_range(-range..=range) as i8,
                    dy: rng.gen_range(-range..=range) as i8,
                    rows,
                });
            }
        }
    }
    // Follow-up touches aimed at the sweep's lines and pages: the lines
    // themselves, lines of the same L1 set in other ways (16 KB and 4 KB
    // apart on the test machines) and other pages, with stores mixed
    // in, so a wrong recency order or dirty bit shows as a miss count.
    let touches = |rng: &mut Rng| {
        (0..rng.gen_range(10u32..80))
            .map(|_| {
                let (span, dy) = if rng.gen_bool() {
                    (block, 0)
                } else {
                    (reference, rng.gen_range(-range..=range + 15))
                };
                let x = rng.gen_range(-range..=range + size as i32);
                let a = (span.addr as i64 + i64::from(dy) * stride as i64 + i64::from(x)) as u64;
                let a = a + *rng.choose(&[0u64, 0, 0, 4096, 16 * 1024, 32 * 1024, 1 << 20]);
                let kind = if rng.gen_range(0u32..4) == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                Op::Range(a, u64::from(rng.gen_range(1u32..17)), kind, 1)
            })
            .collect::<Vec<Op>>()
    };
    let before = touches(rng);
    let after = touches(rng);
    SweepCase {
        block,
        reference,
        cands,
        before,
        after,
    }
}

/// [`MachineSpec::o2`] with a 4-way 16 KB L1: sets of more ways, 4 KB
/// apart.
fn four_way_l1_machine() -> MachineSpec {
    let mut m = MachineSpec::o2();
    m.l1.size_bytes = 16 * 1024;
    m.l1.assoc = 4;
    m
}

/// [`MachineSpec::o2`] with 4 KB pages and an 8-entry TLB, so windows
/// span several pages and the TLB bound binds.
fn small_page_machine() -> MachineSpec {
    let mut m = MachineSpec::o2();
    m.tlb.entries = 8;
    m.tlb.page_bytes = 4096;
    m
}

/// Random block sweeps against the naive model and against the
/// defining row loop on the fast model, every observable compared after
/// the sweep and again after follow-up touches of its lines.
#[test]
fn random_sweeps_are_counter_identical() {
    let regions = [
        Region {
            tag: "cur".into(),
            base: 0x10_0000,
            bytes: 0x8_0000,
        },
        Region {
            tag: "ref".into(),
            base: 0x70_0000,
            bytes: 0x20_0000,
        },
    ];
    let (swept, fell_back) = (Cell::new(0u64), Cell::new(0u64));
    check(
        "fastpath/random_sweeps",
        &Config::default(),
        gen_sweep_case,
        |case| {
            for machine in [
                MachineSpec::o2(),
                four_way_l1_machine(),
                small_page_machine(),
                small_machine(),
            ] {
                let mut fast = Hierarchy::new(machine.clone());
                let mut by_rows = Hierarchy::new(machine.clone());
                let mut naive = NaiveHierarchy::new(machine);
                fast.attach_regions(&regions);
                by_rows.attach_regions(&regions);
                naive.attach_regions(&regions);
                apply(&mut fast, &case.before);
                apply(&mut by_rows, &case.before);
                apply(&mut naive, &case.before);
                let ops = 2 * case.block.row_bytes;
                fast.access_block_sweep(case.block, case.reference, &case.cands, ops);
                block_sweep_by_rows(&mut by_rows, case.block, case.reference, &case.cands, ops);
                naive.access_block_sweep(case.block, case.reference, &case.cands, ops);
                swept.set(swept.get() + 1);
                fell_back.set(fell_back.get() + fast.sweep_fallbacks());
                for phase in ["sweep", "follow-up"] {
                    if phase == "follow-up" {
                        apply(&mut fast, &case.after);
                        apply(&mut by_rows, &case.after);
                        apply(&mut naive, &case.after);
                    }
                    for (other, what) in [
                        (by_rows.counters(), "row loop"),
                        (naive.counters(), "naive"),
                    ] {
                        prop_assert_eq!(fast.counters(), other, "{} vs {}", phase, what);
                    }
                    prop_assert_eq!(fast.dram().bytes_read(), naive.dram().bytes_read());
                    prop_assert_eq!(fast.dram().bytes_written(), naive.dram().bytes_written());
                    prop_assert_eq!(fast.dram().bytes_total(), by_rows.dram().bytes_total());
                    prop_assert_eq!(fast.region_misses(), naive.region_misses());
                    prop_assert_eq!(fast.region_misses(), by_rows.region_misses());
                }
            }
            Ok(())
        },
    );
    // Most random sweeps must take the line sweep, or this suite would
    // only compare the row loop with itself.
    assert!(
        fell_back.get() * 2 < swept.get(),
        "{} of {} sweeps fell back",
        fell_back.get(),
        swept.get()
    );
}

/// PAL full searches on the O2 take the line sweep and match the naive
/// model; each sweep outside the exactness conditions takes the row
/// loop (and still matches).
#[test]
fn pinned_sweeps_take_the_expected_path() {
    let pal = |addr| RectSpan {
        addr,
        stride: 752,
        row_bytes: 16,
    };
    let full_search = |range: i8| -> Vec<SweepCandidate> {
        (-range..=range)
            .flat_map(|dy| {
                (-range..=range).map(move |dx| SweepCandidate {
                    dx,
                    dy,
                    rows: (1 + (dx + 2 * dy).rem_euclid(16)) as u8,
                })
            })
            .collect()
    };
    let one = |dx, dy, rows| SweepCandidate { dx, dy, rows };
    let way = 16 * 1024; // bytes per way of the O2's L1: one set apart
    let (cur, reference) = (0x10_0000 + 40 * 752 + 64, 0x40_0000 + 40 * 752 + 64);
    // (machine, block, reference, candidates, expect the line sweep)
    type Case = (MachineSpec, RectSpan, RectSpan, Vec<SweepCandidate>, bool);
    let mut two_entry_tlb = MachineSpec::o2();
    two_entry_tlb.tlb.entries = 2;
    let cases: Vec<(&str, Case)> = vec![
        (
            "PAL ±8 full search",
            (
                MachineSpec::o2(),
                pal(cur),
                pal(reference),
                full_search(8),
                true,
            ),
        ),
        (
            "PAL ±15 full search (47-row window)",
            (
                MachineSpec::o2(),
                pal(cur),
                pal(reference),
                full_search(15),
                true,
            ),
        ),
        (
            "three window rows in one L1 set",
            (
                MachineSpec::o2(),
                pal(cur),
                RectSpan {
                    addr: reference,
                    stride: way,
                    row_bytes: 16,
                },
                vec![one(0, 0, 3)],
                false,
            ),
        ),
        (
            "more pages than a one-entry TLB",
            (
                one_entry_tlb_machine(),
                pal(cur),
                pal(reference),
                vec![one(0, 0, 4)],
                false,
            ),
        ),
        (
            "more pages than a two-entry TLB",
            (
                two_entry_tlb,
                pal(cur),
                pal(0x40_0000 + 16 * 1024 - 2 * 752),
                vec![one(0, 0, 4)],
                false,
            ),
        ),
        // A line read by two cells is probed once per cell in each
        // pass; the later probes are hits, so these stay on the sweep.
        (
            "block and reference share lines",
            (
                MachineSpec::o2(),
                pal(reference),
                pal(reference),
                full_search(2),
                true,
            ),
        ),
        (
            "rows closer together than a line",
            (
                MachineSpec::o2(),
                pal(cur + 256),
                RectSpan {
                    addr: reference,
                    stride: 8,
                    row_bytes: 16,
                },
                vec![one(0, 0, 2)],
                true,
            ),
        ),
        (
            "window taller than 64 rows",
            (
                MachineSpec::o2(),
                pal(cur),
                pal(reference + 40 * 752),
                vec![one(0, -40, 1), one(0, 40, 1)],
                false,
            ),
        ),
        (
            "window past the top of the address space",
            (
                MachineSpec::o2(),
                pal(cur),
                pal(u64::MAX - 4 * 752),
                vec![one(0, 0, 16)],
                false,
            ),
        ),
        (
            "empty candidate list",
            (MachineSpec::o2(), pal(cur), pal(reference), vec![], false),
        ),
        (
            "no candidate reads a row",
            (
                MachineSpec::o2(),
                pal(cur),
                pal(reference),
                vec![one(1, 1, 0)],
                false,
            ),
        ),
    ];
    for (what, (machine, block, refr, cands, line_sweep)) in cases {
        let mut fast = Hierarchy::new(machine.clone());
        let mut naive = NaiveHierarchy::new(machine);
        // Warm both with the block's neighbourhood so hits and misses mix.
        for model in [&mut fast as &mut dyn MemModel, &mut naive] {
            model.access_rect(
                block.addr.saturating_sub(752),
                752,
                8,
                64,
                AccessKind::Store,
                8,
            );
            model.access_block_sweep(block, refr, &cands, 16);
            model.access_range(refr.addr, 64, AccessKind::Load, 8);
        }
        assert_models_equal(&fast, &naive);
        assert_eq!(
            fast.sweep_fallbacks(),
            u64::from(!line_sweep),
            "{what}: wrong path"
        );
    }
}

/// A sweep forked off and absorbed counts its fallbacks in the parent.
#[test]
fn absorb_adds_sweep_fallbacks() {
    let mut parent = Hierarchy::new(MachineSpec::o2());
    let mut child = parent.fork();
    let span = RectSpan {
        addr: 0x1000,
        stride: 0,
        row_bytes: 16,
    };
    child.access_block_sweep(
        span,
        span,
        &[SweepCandidate {
            dx: 0,
            dy: 0,
            rows: 2,
        }],
        16,
    );
    assert_eq!(child.sweep_fallbacks(), 1);
    parent.absorb(child);
    assert_eq!(parent.sweep_fallbacks(), 1);
}
