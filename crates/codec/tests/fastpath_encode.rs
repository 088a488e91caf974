//! End-to-end differential for the memsim charging fast path: full
//! encode and decode runs under the fast [`Hierarchy`] must produce the
//! same bitstream, the same [`Counters`] (every field), the same DRAM
//! traffic, and the same region attribution as the stamp-and-scan
//! [`NaiveHierarchy`] reference — at every slice and thread count, and
//! in both the fast test and the paper configuration.
//!
//! This is the pinned-scenario half of the differential suite; the
//! random-stream half lives in `crates/memsim/tests/fastpath_equiv.rs`.

use m4ps_codec::{
    EncoderConfig, FrameView, GopStructure, SearchStrategy, VideoObjectCoder, VideoObjectDecoder,
};
use m4ps_memsim::{
    AddressSpace, Hierarchy, MachineSpec, MemModel, NaiveHierarchy, ParallelModel, Region,
};
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

const FRAMES: usize = 4;

fn test_config(slices: usize) -> EncoderConfig {
    // B-frames on so the fast path is exercised on I, P and B slices.
    EncoderConfig {
        gop: GopStructure {
            intra_period: 3,
            b_frames: 1,
        },
        ..EncoderConfig::fast_test()
    }
    .with_slices(slices)
}

fn encode<M: ParallelModel>(mem: &mut M, slices: usize, threads: usize) -> Vec<u8> {
    encode_with(
        mem,
        |_, _| {},
        test_config(slices),
        Resolution::QCIF,
        threads,
    )
}

/// Encodes `FRAMES` frames of a seeded scene at `res` under `config`,
/// letting `attach` see the address-space regions once the coder has
/// allocated its buffers.
fn encode_with<M: ParallelModel>(
    mem: &mut M,
    attach: impl FnOnce(&mut M, &[Region]),
    config: EncoderConfig,
    res: Resolution,
    threads: usize,
) -> Vec<u8> {
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 0,
        seed: 7,
    });
    let mut space = AddressSpace::new();
    let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
    attach(mem, space.regions());
    coder.set_threads(threads);
    let mut stream = coder.header_bytes();
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
        }
    }
    for vop in coder.flush(mem).unwrap() {
        stream.extend_from_slice(&vop.bytes);
    }
    stream
}

fn decode<M: ParallelModel>(mem: &mut M, stream: &[u8]) -> usize {
    let mut space = AddressSpace::new();
    let mut r = m4ps_bitstream::BitReader::new(stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, mem, &mut r).unwrap();
    let mut n = 0;
    while dec.decode_next(mem, &mut r).unwrap().is_some() {
        n += 1;
    }
    n
}

#[track_caller]
fn assert_models_equal(fast: &Hierarchy, naive: &NaiveHierarchy, what: &str) {
    assert_eq!(
        fast.counters(),
        naive.counters(),
        "{what}: Counters diverged"
    );
    assert_eq!(
        fast.dram().bytes_read(),
        naive.dram().bytes_read(),
        "{what}: DRAM reads diverged"
    );
    assert_eq!(
        fast.dram().bytes_written(),
        naive.dram().bytes_written(),
        "{what}: DRAM writes diverged"
    );
    assert_eq!(
        fast.region_misses(),
        naive.region_misses(),
        "{what}: region attribution diverged"
    );
}

/// Full encodes under both models across slice/thread schedules: the
/// bitstream must be byte-identical and every counter bit-identical.
#[test]
fn encode_is_bit_identical_under_fast_and_naive_models() {
    let mut reference_stream: Option<Vec<u8>> = None;
    for (slices, threads) in [(1, 1), (4, 1), (4, 4), (9, 3)] {
        let mut fast = Hierarchy::new(MachineSpec::o2());
        let mut naive = NaiveHierarchy::new(MachineSpec::o2());
        let fast_stream = encode(&mut fast, slices, threads);
        let naive_stream = encode(&mut naive, slices, threads);
        assert_eq!(
            fast_stream, naive_stream,
            "bitstream diverged at {slices} slices / {threads} threads"
        );
        assert_models_equal(
            &fast,
            &naive,
            &format!("encode {slices} slices / {threads} threads"),
        );
        assert!(fast.counters().loads > 0);
        // The model must also never influence WHAT is coded: all
        // schedules and both models emit one canonical stream per
        // slice count, and slices=4 runs share theirs.
        if slices == 4 {
            match &reference_stream {
                Some(r) => assert_eq!(&fast_stream, r),
                None => reference_stream = Some(fast_stream),
            }
        }
    }
}

/// Decode differential: replaying the same stream through both models
/// charges identical counters.
#[test]
fn decode_is_counter_identical_under_fast_and_naive_models() {
    let stream = encode(&mut m4ps_memsim::NullModel::new(), 4, 1);
    let mut fast = Hierarchy::new(MachineSpec::o2());
    let mut naive = NaiveHierarchy::new(MachineSpec::o2());
    let n_fast = decode(&mut fast, &stream);
    let n_naive = decode(&mut naive, &stream);
    assert_eq!(n_fast, n_naive);
    assert!(n_fast >= FRAMES);
    assert_models_equal(&fast, &naive, "decode");
    assert!(fast.counters().loads > 0);
}

/// The 8 MB-L2 Onyx2 machine takes different hit/miss paths than the
/// 1 MB O2; the equivalence must hold there too (this is the pair the
/// paper's DRAM-time comparison rests on).
#[test]
fn encode_is_counter_identical_on_onyx2() {
    let mut fast = Hierarchy::new(MachineSpec::onyx2());
    let mut naive = NaiveHierarchy::new(MachineSpec::onyx2());
    let fast_stream = encode(&mut fast, 4, 2);
    let naive_stream = encode(&mut naive, 4, 2);
    assert_eq!(fast_stream, naive_stream);
    assert_models_equal(&fast, &naive, "encode onyx2");
}

/// The paper configuration — exhaustive search, half-pel refinement,
/// B-VOPs, rate control, software prefetch — plus its 4MV variant, which
/// adds the 8×8 refine searches. Every motion search charges its SAD
/// candidates as one block sweep, so every study machine must see
/// identical counters, DRAM traffic and region tallies under both
/// models, with every sweep taking the two-pass line sweep.
#[test]
fn paper_config_encode_is_counter_identical_on_every_study_machine() {
    let res = Resolution::QCIF;
    for machine in MachineSpec::study_machines() {
        for four_mv in [false, true] {
            let config = EncoderConfig {
                four_mv,
                ..EncoderConfig::paper()
            };
            let mut fast = Hierarchy::new(machine.clone());
            let mut naive = NaiveHierarchy::new(machine.clone());
            let fast_stream = encode_with(&mut fast, Hierarchy::attach_regions, config, res, 1);
            let naive_stream =
                encode_with(&mut naive, NaiveHierarchy::attach_regions, config, res, 1);
            let what = format!("paper encode on {} (4MV {four_mv})", machine.name);
            assert_eq!(fast_stream, naive_stream, "{what}: bitstream diverged");
            assert_models_equal(&fast, &naive, &what);
            assert!(
                fast.counters().prefetches > 0,
                "{what}: prefetch path unused"
            );
            assert!(
                fast.region_misses().iter().any(|r| r.l1_misses > 0),
                "{what}: no region saw a miss"
            );
            assert_eq!(fast.sweep_fallbacks(), 0, "{what}: a sweep fell back");
        }
    }
}

/// Every search strategy at the smallest, the paper's and the largest
/// search range (±15 sweeps a 47-row window), with and without 4MV
/// refinement, in one slice and in two (forked models): the same
/// bitstream, counters, DRAM traffic and region tallies as the naive
/// model.
#[test]
fn every_search_strategy_and_range_is_counter_identical() {
    for search in [
        SearchStrategy::FullSearch,
        SearchStrategy::ThreeStep,
        SearchStrategy::Diamond,
    ] {
        for search_range in [1, 8, 15] {
            for four_mv in [false, true] {
                for slices in [1, 2] {
                    let config = EncoderConfig {
                        search,
                        search_range,
                        four_mv,
                        half_pel: true,
                        ..test_config(slices)
                    };
                    let mut fast = Hierarchy::new(MachineSpec::o2());
                    let mut naive = NaiveHierarchy::new(MachineSpec::o2());
                    let res = Resolution::QCIF;
                    let fast_stream =
                        encode_with(&mut fast, Hierarchy::attach_regions, config, res, 1);
                    let naive_stream =
                        encode_with(&mut naive, NaiveHierarchy::attach_regions, config, res, 1);
                    let what =
                        format!("{search:?} ±{search_range} (4MV {four_mv}, {slices} slices)");
                    assert_eq!(fast_stream, naive_stream, "{what}: bitstream diverged");
                    assert_models_equal(&fast, &naive, &what);
                    assert_eq!(fast.sweep_fallbacks(), 0, "{what}: a sweep fell back");
                }
            }
        }
    }
}
