//! Tier-1 smoke of the slice engine: every VOP runs its slices through
//! one runner, unsliced VOPs run inline on the caller's memory model,
//! and the thread count never changes a bitstream, a reconstruction or
//! a merged counter. The full-size suites live in
//! `crates/codec/tests/parallel.rs` and `parallel_decode.rs`.

use m4ps::codec::{
    EncoderConfig, FrameView, GopStructure, ReconPlanes, VideoObjectCoder, VideoObjectDecoder,
};
use m4ps::memsim::{
    AccessKind, AddressSpace, Counters, Hierarchy, MachineSpec, MemModel, NullModel, ParallelModel,
    RectSpan, SweepCandidate,
};
use m4ps::vidgen::{Resolution, Scene, SceneSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Display-order frames per encode: I B B P B B I, then a flush.
const FRAMES: usize = 7;

/// A [`NullModel`] that counts every `fork()` made from it or from any
/// of its forks.
struct ForkCounting {
    inner: NullModel,
    forks: Arc<AtomicUsize>,
}

impl MemModel for ForkCounting {
    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, arch_ops: u64) {
        self.inner.access_range(addr, len, kind, arch_ops);
    }

    fn access_rect(
        &mut self,
        addr: u64,
        stride: u64,
        rows: u64,
        row_bytes: u64,
        kind: AccessKind,
        ops_per_row: u64,
    ) {
        self.inner
            .access_rect(addr, stride, rows, row_bytes, kind, ops_per_row);
    }

    fn access_block_sweep(
        &mut self,
        block: RectSpan,
        reference: RectSpan,
        cands: &[SweepCandidate],
        ops_per_row: u64,
    ) {
        self.inner
            .access_block_sweep(block, reference, cands, ops_per_row);
    }

    fn prefetch(&mut self, addr: u64) {
        self.inner.prefetch(addr);
    }

    fn add_ops(&mut self, ops: u64) {
        self.inner.add_ops(ops);
    }

    fn counters(&self) -> &Counters {
        self.inner.counters()
    }
}

impl ParallelModel for ForkCounting {
    fn fork(&self) -> Self {
        self.forks.fetch_add(1, Ordering::Relaxed);
        ForkCounting {
            inner: self.inner.fork(),
            forks: Arc::clone(&self.forks),
        }
    }

    fn absorb(&mut self, child: Self) {
        self.inner.absorb(child.inner);
    }
}

/// A QCIF IBBP configuration with `slices` slices, at a fixed quantizer
/// (`bitrate: None`) or rate-controlled.
fn ibbp(slices: usize, bitrate: Option<u32>) -> EncoderConfig {
    EncoderConfig {
        gop: GopStructure {
            intra_period: 6,
            b_frames: 2,
        },
        bitrate,
        ..EncoderConfig::fast_test()
    }
    .with_slices(slices)
}

/// Encodes the test scene on `threads` workers; returns the elementary
/// stream (VOL header first) and the number of VOPs coded.
fn encode<M: ParallelModel>(
    mem: &mut M,
    config: EncoderConfig,
    threads: usize,
) -> (Vec<u8>, usize) {
    let res = Resolution::QCIF;
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 0,
        seed: 3,
    });
    let mut space = AddressSpace::new();
    let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
    coder.set_threads(threads);
    let mut stream = coder.header_bytes();
    let mut vops = 0;
    for t in 0..FRAMES {
        let f = scene.frame(t);
        let view = FrameView {
            width: res.width,
            height: res.height,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        };
        for vop in coder.encode_frame(mem, &view, None).unwrap() {
            stream.extend_from_slice(&vop.bytes);
            vops += 1;
        }
    }
    for vop in coder.flush(mem).unwrap() {
        stream.extend_from_slice(&vop.bytes);
        vops += 1;
    }
    (stream, vops)
}

/// Encodes on a fork-counting model; returns the VOP and fork counts.
fn count_forks(config: EncoderConfig, threads: usize) -> (usize, usize) {
    let forks = Arc::new(AtomicUsize::new(0));
    let mut mem = ForkCounting {
        inner: NullModel::new(),
        forks: Arc::clone(&forks),
    };
    let (_, vops) = encode(&mut mem, config, threads);
    (vops, forks.load(Ordering::Relaxed))
}

#[test]
fn unsliced_fixed_qp_b_vops_encode_without_forking() {
    // An unsliced VOP is one slice run inline on the caller's model:
    // B-VOPs at a fixed quantizer included, at any thread count.
    for threads in [1, 4] {
        let (vops, forks) = count_forks(ibbp(1, None), threads);
        assert_eq!(vops, FRAMES);
        assert_eq!(forks, 0, "{threads} threads: an unsliced encode forked");
    }
    // A sliced VOP forks once per slice, B-VOPs included.
    let (vops, forks) = count_forks(ibbp(3, None), 4);
    assert_eq!(forks, 3 * vops);
}

#[test]
fn sliced_ibbp_encode_is_identical_at_any_thread_count() {
    for bitrate in [None, Some(38_400)] {
        let run = |threads: usize| {
            let mut mem = Hierarchy::new(MachineSpec::o2());
            let (stream, _) = encode(&mut mem, ibbp(3, bitrate), threads);
            (stream, *mem.counters())
        };
        let (stream, counters) = run(1);
        assert!(counters.loads > 0);
        let (par_stream, par_counters) = run(4);
        assert_eq!(par_stream, stream, "bitrate {bitrate:?}: bitstream");
        assert_eq!(par_counters, counters, "bitrate {bitrate:?}: counters");
    }
}

/// Decodes `stream` on a `threads`-wide pool; returns every VOP's
/// reconstruction, the merged counters and the parallel fallbacks.
fn decode(stream: &[u8], threads: usize) -> (Vec<ReconPlanes>, Counters, u64) {
    let mut mem = Hierarchy::new(MachineSpec::o2());
    let mut space = AddressSpace::new();
    let mut r = m4ps::bitstream::BitReader::new(stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r).unwrap();
    dec.set_threads(threads);
    dec.set_keep_output(true);
    let mut planes = Vec::new();
    while let Some(vop) = dec.decode_next(&mut mem, &mut r).unwrap() {
        planes.push(vop.planes.unwrap());
    }
    (planes, *mem.counters(), dec.parallel_fallbacks())
}

#[test]
fn sliced_ibbp_decode_is_identical_at_any_thread_count() {
    for bitrate in [None, Some(38_400)] {
        let (stream, vops) = encode(&mut NullModel::new(), ibbp(3, bitrate), 1);
        let (planes, counters, fallbacks) = decode(&stream, 1);
        assert_eq!(planes.len(), vops);
        assert_eq!(fallbacks, 0);
        let (par_planes, par_counters, par_fallbacks) = decode(&stream, 4);
        assert_eq!(par_fallbacks, 0, "bitrate {bitrate:?}: a slice fell back");
        assert!(par_planes == planes, "bitrate {bitrate:?}: reconstruction");
        assert_eq!(par_counters, counters, "bitrate {bitrate:?}: counters");
    }
}
