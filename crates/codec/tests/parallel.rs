//! Parallel encoding invariants: the thread count AND the scheduling
//! mode (coarse slice jobs vs wavefront macroblock-row chains) are
//! pure scheduling knobs. For a fixed slice count the bitstream must
//! be byte-identical and the merged memory-model counters identical no
//! matter how many workers ran the slices or how the rows were cut
//! into tasks — and sliced streams must still decode drift-free.

use m4ps_codec::{
    EncoderConfig, FrameView, GopStructure, Scheduling, VideoObjectCoder, VideoObjectDecoder,
};
use m4ps_memsim::{AddressSpace, Counters, Hierarchy, MachineSpec, MemModel, NullModel};
use m4ps_testkit::prop::{self, Config};
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

const FRAMES: usize = 5;

fn test_config(slices: usize, b_frames: usize, bitrate: Option<u32>) -> EncoderConfig {
    // B-frames on so the parallel path covers I, P and B slices; each
    // queued B-VOP drains one after another, at a fixed quantizer
    // (`bitrate: None`) or under rate control.
    EncoderConfig {
        gop: GopStructure {
            intra_period: 4,
            b_frames,
        },
        bitrate,
        ..EncoderConfig::fast_test()
    }
    .with_slices(slices)
}

/// Encodes the reference scene and returns the full elementary stream
/// plus (optionally) every reconstruction produced along the way.
fn encode_stream<M: m4ps_memsim::ParallelModel>(
    mem: &mut M,
    slices: usize,
    threads: usize,
    keep_recon: bool,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    encode_scene(
        mem,
        7,
        test_config(slices, 1, None),
        threads,
        Scheduling::Wavefront,
        keep_recon,
    )
}

/// Like [`encode_stream`] but over an arbitrary scene seed, coder
/// configuration and scheduling mode.
fn encode_scene<M: m4ps_memsim::ParallelModel>(
    mem: &mut M,
    scene_seed: u64,
    config: EncoderConfig,
    threads: usize,
    sched: Scheduling,
    keep_recon: bool,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let scene = Scene::new(SceneSpec {
        resolution: Resolution::QCIF,
        objects: 0,
        seed: scene_seed,
    });
    let mut space = AddressSpace::new();
    let mut coder = VideoObjectCoder::new(&mut space, 176, 144, config).unwrap();
    coder.set_threads(threads);
    coder.set_scheduling(sched);
    coder.set_keep_recon(keep_recon);
    let mut stream = coder.header_bytes();
    let mut recons = Vec::new();
    let mut push = |vops: Vec<m4ps_codec::EncodedVop>, stream: &mut Vec<u8>| {
        for vop in vops {
            stream.extend_from_slice(&vop.bytes);
            if let Some(r) = vop.recon {
                recons.push(r.y);
            }
        }
    };
    for t in 0..FRAMES {
        let f = scene.frame(t);
        let view = FrameView {
            width: 176,
            height: 144,
            y: &f.y,
            u: &f.u,
            v: &f.v,
        };
        let vops = coder.encode_frame(mem, &view, None).unwrap();
        push(vops, &mut stream);
    }
    let vops = coder.flush(mem).unwrap();
    push(vops, &mut stream);
    (stream, recons)
}

#[test]
fn bitstream_is_identical_for_any_thread_count() {
    let mut mem = NullModel::new();
    let (reference, _) = encode_stream(&mut mem, 4, 1, false);
    for threads in [2, 4, 7] {
        let (stream, _) = encode_stream(&mut mem, 4, threads, false);
        assert_eq!(
            stream, reference,
            "{threads}-thread stream differs from the single-threaded one"
        );
    }
}

#[test]
fn bitstream_is_identical_across_scheduling_modes() {
    // Wavefront cuts each slice into one task per macroblock row;
    // slice-parallel runs it as one coarse job. Same bytes either way,
    // at any worker count.
    let mut mem = NullModel::new();
    let config = test_config(4, 1, None);
    let (reference, _) = encode_scene(&mut mem, 7, config, 1, Scheduling::SliceParallel, false);
    for threads in [1, 3, 4] {
        for sched in [Scheduling::SliceParallel, Scheduling::Wavefront] {
            let (stream, _) = encode_scene(&mut mem, 7, config, threads, sched, false);
            assert_eq!(
                stream, reference,
                "{sched:?} at {threads} threads differs from sequential slice-parallel"
            );
        }
    }
}

#[test]
fn merged_counters_are_identical_for_any_thread_count() {
    let run = |threads: usize| -> Counters {
        let mut mem = Hierarchy::new(MachineSpec::o2());
        encode_stream(&mut mem, 4, threads, false);
        *mem.counters()
    };
    let reference = run(1);
    assert!(reference.loads > 0);
    for threads in [2, 4] {
        assert_eq!(
            run(threads),
            reference,
            "{threads}-thread counters differ from the single-threaded ones"
        );
    }
}

#[test]
fn sliced_stream_decodes_drift_free() {
    let mut mem = NullModel::new();
    let (stream, enc_recons) = encode_stream(&mut mem, 4, 4, true);
    assert!(!enc_recons.is_empty());

    let mut space = AddressSpace::new();
    let mut r = m4ps_bitstream::BitReader::new(&stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r).unwrap();
    dec.set_keep_output(true);
    let mut decoded = Vec::new();
    while let Some(vop) = dec.decode_next(&mut mem, &mut r).unwrap() {
        decoded.push(vop.planes.unwrap().y);
    }
    assert_eq!(decoded.len(), enc_recons.len());
    for (i, (d, e)) in decoded.iter().zip(&enc_recons).enumerate() {
        assert_eq!(d, e, "decoder drift on VOP {i}");
    }
}

#[test]
fn slice_count_is_a_bitstream_parameter() {
    // Unlike the thread count, the slice count changes what is coded.
    let mut mem = NullModel::new();
    let (sliced, _) = encode_stream(&mut mem, 4, 1, false);
    let (unsliced, _) = encode_stream(&mut mem, 1, 1, false);
    assert_ne!(sliced, unsliced);
}

#[test]
fn random_scenes_encode_identically_for_any_schedule() {
    // Property: for ANY scene, slice count, B-queue depth, rate
    // control setting, thread count and scheduling mode, the parallel
    // encode produces exactly the bitstream and merged counters of the
    // sequential (threads = 1, coarse slice jobs) encode at the SAME
    // slice count, GOP and bitrate. Randomizing all of them covers
    // uneven slice partitions, more-threads-than-slices schedules,
    // sliced B-VOPs draining at a fixed quantizer and under rate
    // control, and the wavefront row chains the pinned tests above
    // don't reach.
    prop::check(
        "parallel_encode_determinism",
        &Config::with_cases(5),
        |rng| {
            (
                rng.gen_range(0u64..1 << 32),
                rng.gen_range(1..=10usize),
                rng.gen_range(0..=2usize),
                rng.gen_bool().then_some(38_400u32),
                rng.gen_range(2..=8usize),
            )
        },
        |&(scene_seed, slices, b_frames, bitrate, threads)| {
            let config = test_config(slices, b_frames, bitrate);
            let run = |threads: usize, sched: Scheduling| {
                let mut mem = Hierarchy::new(MachineSpec::o2());
                let (stream, _) = encode_scene(&mut mem, scene_seed, config, threads, sched, false);
                (stream, *mem.counters())
            };
            let (seq_stream, seq_counters) = run(1, Scheduling::SliceParallel);
            for sched in [Scheduling::SliceParallel, Scheduling::Wavefront] {
                let (par_stream, par_counters) = run(threads, sched);
                if par_stream != seq_stream {
                    return Err(format!(
                        "bitstream differs: {slices} slices, {b_frames} B, \
                         bitrate {bitrate:?}, {threads} threads, {sched:?}"
                    ));
                }
                if par_counters != seq_counters {
                    return Err(format!(
                        "merged counters differ: {slices} slices, {b_frames} B, \
                         bitrate {bitrate:?}, {threads} threads, {sched:?}"
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn slices_beyond_rows_are_clamped_and_still_roundtrip() {
    // QCIF has 9 macroblock rows; asking for 64 slices must clamp to 9
    // and still produce a decodable stream.
    let mut mem = NullModel::new();
    let (stream, enc_recons) = encode_stream(&mut mem, 64, 3, true);
    let mut space = AddressSpace::new();
    let mut r = m4ps_bitstream::BitReader::new(&stream);
    let mut dec = VideoObjectDecoder::from_stream(&mut space, &mut mem, &mut r).unwrap();
    dec.set_keep_output(true);
    let mut n = 0;
    while let Some(vop) = dec.decode_next(&mut mem, &mut r).unwrap() {
        assert_eq!(vop.planes.unwrap().y, enc_recons[n]);
        n += 1;
    }
    assert_eq!(n, enc_recons.len());
}
