//! A warmed-up `Hierarchy::access_block_sweep` allocates nothing: the
//! line sweep plans in fixed stack arrays and the fallback is the
//! plain row loop. A motion search charges one sweep per macroblock,
//! so an allocation here would be one per macroblock.
//!
//! Lives in its own integration-test binary because it installs a
//! process-wide `#[global_allocator]`.

use m4ps_memsim::{Hierarchy, MachineSpec, MemModel, RectSpan, SweepCandidate};
use m4ps_testkit::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warmed_up_sweeps_allocate_nothing() {
    // A ±8 full search on PAL planes, and the same with one candidate
    // far below, whose 69-row window takes the row loop.
    let mut full_search = [SweepCandidate::default(); 289];
    for (i, c) in full_search.iter_mut().enumerate() {
        let i = i as i32;
        *c = SweepCandidate {
            dx: (i % 17 - 8) as i8,
            dy: (i / 17 - 8) as i8,
            rows: (1 + i % 16) as u8,
        };
    }
    let mut tall = [SweepCandidate::default(); 290];
    tall[..289].copy_from_slice(&full_search);
    tall[289] = SweepCandidate {
        dx: 0,
        dy: 60,
        rows: 1,
    };
    let mut h = Hierarchy::new(MachineSpec::o2());
    let sweep = |h: &mut Hierarchy, mb: u64, cands: &[SweepCandidate]| {
        let span = |plane: u64| RectSpan {
            addr: 0x10_0000 + plane + 64 * 752 + 16 + 16 * (mb % 44),
            stride: 752,
            row_bytes: 16,
        };
        h.access_block_sweep(span(0), span(457_216), cands, 16);
    };
    for mb in 0..8 {
        sweep(&mut h, mb, &full_search);
        sweep(&mut h, mb, &tall);
    }
    let before = ALLOC.allocations();
    for mb in 8..108 {
        sweep(&mut h, mb, &full_search);
        sweep(&mut h, mb, &tall);
    }
    assert_eq!(ALLOC.allocations() - before, 0);
    assert_eq!(h.sweep_fallbacks(), 108, "only the tall sweeps fall back");
}
