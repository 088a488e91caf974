//! Tier-1 smoke of the simulator's central invariant: a paper-config
//! encode charged through the fast [`Hierarchy`] and through the
//! [`NaiveHierarchy`] reference yields the same bitstream, every
//! `Counters` field, DRAM traffic and per-region tallies, on each study
//! machine. The full-size suites live in `crates/memsim/tests/
//! fastpath_equiv.rs` and `crates/codec/tests/fastpath_encode.rs`.

use m4ps::codec::{EncoderConfig, FrameView, SearchStrategy, VideoObjectCoder};
use m4ps::memsim::{
    AddressSpace, Hierarchy, MachineSpec, MemModel, NaiveHierarchy, ParallelModel, Region,
};
use m4ps::vidgen::{Resolution, Scene, SceneSpec};

/// Encodes a few frames of a 64×48 scene (I, P and B VOPs).
fn encode<M: ParallelModel>(
    mem: &mut M,
    attach: impl FnOnce(&mut M, &[Region]),
    config: EncoderConfig,
) -> Vec<u8> {
    let res = Resolution {
        width: 64,
        height: 48,
    };
    let scene = Scene::new(SceneSpec {
        resolution: res,
        objects: 0,
        seed: 11,
    });
    let mut space = AddressSpace::new();
    let mut coder = VideoObjectCoder::new(&mut space, res.width, res.height, config).unwrap();
    attach(mem, space.regions());
    let mut stream = coder.header_bytes();
    for t in 0..4 {
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

/// Encodes under both models on `machine` and requires the same
/// bitstream, every counter, DRAM traffic and region tallies, with every
/// motion search charged through the line sweep.
fn assert_fast_equals_naive(machine: &MachineSpec, config: EncoderConfig, what: &str) {
    let mut fast = Hierarchy::new(machine.clone());
    let mut naive = NaiveHierarchy::new(machine.clone());
    let fast_stream = encode(&mut fast, Hierarchy::attach_regions, config);
    let naive_stream = encode(&mut naive, NaiveHierarchy::attach_regions, config);
    assert_eq!(fast_stream, naive_stream, "{what}: bitstream");
    assert_eq!(fast.counters(), naive.counters(), "{what}: counters");
    assert_eq!(
        fast.dram().bytes_read(),
        naive.dram().bytes_read(),
        "{what}: DRAM reads"
    );
    assert_eq!(
        fast.dram().bytes_written(),
        naive.dram().bytes_written(),
        "{what}: DRAM writes"
    );
    assert_eq!(
        fast.region_misses(),
        naive.region_misses(),
        "{what}: region tallies"
    );
    assert!(fast.counters().loads > 0, "{what}: nothing charged");
    assert_eq!(fast.sweep_fallbacks(), 0, "{what}: a sweep fell back");
}

#[test]
fn paper_config_encode_charges_identically_under_fast_and_naive_models() {
    for machine in MachineSpec::study_machines() {
        for four_mv in [false, true] {
            let config = EncoderConfig {
                four_mv,
                ..EncoderConfig::paper()
            };
            assert_fast_equals_naive(
                &machine,
                config,
                &format!("{} (4MV {four_mv})", machine.name),
            );
        }
    }
}

/// Diamond search with 4MV refinement: short, irregular candidate
/// lists and the 8×8 refine sweeps.
#[test]
fn diamond_4mv_encode_charges_identically_under_fast_and_naive_models() {
    let config = EncoderConfig {
        search: SearchStrategy::Diamond,
        four_mv: true,
        ..EncoderConfig::paper()
    };
    assert_fast_equals_naive(&MachineSpec::o2(), config, "diamond 4MV");
}
