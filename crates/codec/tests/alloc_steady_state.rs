//! Steady-state allocation budget for slice encoding.
//!
//! After the first VOPs have grown the per-slice scratch arenas, a
//! sliced encode must not allocate per macroblock: all block-level
//! buffers are stack arrays or recycled arena state. QCIF is 99
//! macroblocks per frame, so asserting fewer allocations than
//! macroblocks per steady-state frame proves the hot loop is clean
//! while leaving room for the legitimate per-frame/per-slice setup
//! (output `Vec`s, slice bitstream buffers, returned VOP metadata,
//! and — for the wavefront mode — one boxed task per macroblock row).
//!
//! Runs the sweep over both scheduling modes and worker counts on one
//! persistent pool per configuration: after warmup the pool's deques
//! and the coder's scratch are at capacity, so the budget also pins
//! the scheduler's steady state. A second sweep runs IBBP GOPs, at a
//! fixed quantizer and rate-controlled, so queued B-VOPs draining
//! through the same slice engine are held to the same budget.
//!
//! Lives in its own integration-test binary because it installs a
//! process-wide `#[global_allocator]`.

use m4ps_codec::{EncoderConfig, FrameView, GopStructure, Scheduling, VideoObjectCoder};
use m4ps_memsim::{AddressSpace, NullModel};
use m4ps_testkit::alloc::CountingAlloc;
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const MBS_PER_FRAME: u64 = 99; // QCIF: 11 × 9 macroblocks
const WARMUP_FRAMES: usize = 4;
/// A multiple of the IBBP group length (3), so a B-frame sweep measures
/// whole groups of one anchor and its two queued B-VOPs.
const MEASURED_FRAMES: usize = 9;

fn steady_state_allocs_per_frame(
    sched: Scheduling,
    threads: usize,
    b_frames: usize,
    bitrate: Option<u32>,
) -> u64 {
    let scene = Scene::new(SceneSpec {
        resolution: Resolution::QCIF,
        objects: 0,
        seed: 7,
    });
    // No intra refresh inside the measured window. With `b_frames = 0`
    // every call emits exactly one VOP; otherwise every third call
    // emits an anchor and the two B-VOPs queued before it.
    let config = EncoderConfig {
        gop: GopStructure {
            intra_period: 1 << 20,
            b_frames,
        },
        bitrate,
        ..EncoderConfig::fast_test()
    }
    .with_slices(2);
    // Pre-render frames so scene generation doesn't bill the encoder.
    let frames: Vec<_> = (0..WARMUP_FRAMES + MEASURED_FRAMES)
        .map(|t| scene.frame(t))
        .collect();

    let mut mem = NullModel::new();
    let mut space = AddressSpace::new();
    let mut coder = VideoObjectCoder::new(&mut space, 176, 144, config).unwrap();
    coder.set_threads(threads);
    coder.set_scheduling(sched);

    let encode = |coder: &mut VideoObjectCoder, mem: &mut NullModel, f: &m4ps_vidgen::YuvFrame| {
        let view = FrameView {
            width: 176,
            height: 144,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        };
        coder.encode_frame(mem, &view, None).unwrap();
    };

    for f in &frames[..WARMUP_FRAMES] {
        encode(&mut coder, &mut mem, f);
    }
    let before = ALLOC.allocations();
    for f in &frames[WARMUP_FRAMES..] {
        encode(&mut coder, &mut mem, f);
    }
    (ALLOC.allocations() - before) / MEASURED_FRAMES as u64
}

#[test]
fn steady_state_slice_encode_does_not_allocate_per_macroblock() {
    for (sched, threads) in [
        (Scheduling::SliceParallel, 1),
        (Scheduling::SliceParallel, 2),
        (Scheduling::Wavefront, 1),
        (Scheduling::Wavefront, 2),
    ] {
        let per_frame = steady_state_allocs_per_frame(sched, threads, 0, None);
        assert!(
            per_frame < MBS_PER_FRAME,
            "steady-state {sched:?} encode at {threads} threads allocates \
             {per_frame} times per frame (>= {MBS_PER_FRAME} macroblocks) — \
             a per-macroblock allocation is back"
        );
    }
}

#[test]
fn steady_state_b_frame_encode_does_not_allocate_per_macroblock() {
    for bitrate in [None, Some(38_400)] {
        for threads in [1, 2] {
            let per_frame =
                steady_state_allocs_per_frame(Scheduling::Wavefront, threads, 2, bitrate);
            assert!(
                per_frame < MBS_PER_FRAME,
                "steady-state IBBP encode (bitrate {bitrate:?}) at {threads} threads \
                 allocates {per_frame} times per frame (>= {MBS_PER_FRAME} \
                 macroblocks) — a per-macroblock allocation is back"
            );
        }
    }
}
