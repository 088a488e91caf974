//! Hostile-input regressions for the decoder's header limits: a VOL
//! header may declare any dimensions, and the decoder must refuse the
//! impossible ones with an error before allocating frames for them —
//! an allocation failure aborts the process, which `catch_unwind`
//! cannot contain.

use m4ps::bitstream::{BitReader, BitWriter};
use m4ps::codec::{CodecError, VideoObjectDecoder, VolHeader, MAX_VOL_DIMENSION, MAX_VOL_MBS};
use m4ps::memsim::{AddressSpace, NullModel};
use m4ps::vidgen::Resolution;

/// A stream holding only a rectangular VOL header for `width × height`.
fn vol_only_stream(width: usize, height: usize) -> Vec<u8> {
    let mut w = BitWriter::new();
    VolHeader {
        vo_id: 0,
        vol_id: 0,
        width,
        height,
        binary_shape: false,
        enhancement: false,
    }
    .write(&mut w);
    w.into_bytes()
}

/// Opens a decoder on `stream`, returning the error (if any) and the
/// simulated bytes the attempt allocated.
fn open(stream: &[u8]) -> (Result<(), CodecError>, u64) {
    let mut space = AddressSpace::new();
    let result = VideoObjectDecoder::from_stream(
        &mut space,
        &mut NullModel::new(),
        &mut BitReader::new(stream),
    )
    .map(drop);
    (result, space.allocated_bytes())
}

#[test]
fn oversized_vol_header_is_refused_before_allocation() {
    let stream = vol_only_stream(32768, 32768);
    assert!(stream.len() <= 16, "a tiny stream: {} bytes", stream.len());
    let (result, allocated) = open(&stream);
    assert!(
        matches!(result, Err(CodecError::InvalidStream(_))),
        "got {result:?}"
    );
    assert_eq!(allocated, 0, "frames were allocated for a refused header");
}

#[test]
fn vol_limits_bound_each_dimension_and_the_area() {
    // The last case passes the per-dimension bound; only the area
    // bound refuses it.
    for (w, h) in [
        (MAX_VOL_DIMENSION + 16, 16),
        (16, MAX_VOL_DIMENSION + 16),
        (
            MAX_VOL_DIMENSION,
            16 * (MAX_VOL_MBS / (MAX_VOL_DIMENSION / 16) + 1),
        ),
    ] {
        let (result, allocated) = open(&vol_only_stream(w, h));
        assert!(
            matches!(result, Err(CodecError::InvalidStream(_))),
            "{w}x{h}: {result:?}"
        );
        assert_eq!(allocated, 0, "{w}x{h}");
    }
}

#[test]
fn every_generated_resolution_is_within_the_limits() {
    for res in [
        Resolution::QCIF,
        Resolution::CIF,
        Resolution::PAL,
        Resolution::XGA,
        Resolution::HUGE,
    ] {
        let (result, _) = open(&vol_only_stream(res.width, res.height));
        assert_eq!(result, Ok(()), "{}x{}", res.width, res.height);
    }
}
