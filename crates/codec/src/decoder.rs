//! The video-object decoder
//! (`DecodeVopCombMotionShapeTexture` in MoMuSys terms — the function
//! the paper instruments for its burstiness study).

use crate::encoder::{
    fill_bbox_ring, fill_grey_mb, predict_mb, predict_mb_4mv, reconstruct_inter_mb, Scheduling,
    VopStats, RESYNC_MARKER,
};
use crate::error::CodecError;
use crate::header::{VolHeader, VopHeader};
use crate::mbops::{write_block, write_block_u8, IntraPredState, MvPredictor, StreamCharge};
use crate::mc::average_predictions;
use crate::plane::{FrameSink, FrameViewMut, TracedFrame, TracedPlane};
use crate::shape::{classify_bab, decode_alpha_plane, BabClass};
use crate::slices::{
    mb_ranges, partition_rows, run_chains, Chain, SliceJob, SliceScratch, SLICE_CHARGE_SPAN,
};
use crate::texture::TextureCoder;
use crate::types::{MacroblockKind, MotionVector, VopKind};
use crate::vlc::{get_se, get_ue};
use m4ps_bitstream::{BitReader, BitstreamError, StartCode};
use m4ps_memsim::{AddressSpace, MemModel, ParallelModel};
use m4ps_obs::{span, Phase};
use m4ps_pool::WorkerPool;
use std::ops::Range;
use std::sync::Arc;

/// Largest legal motion-vector component in half-pels: the search range
/// plus half-pel refinement can never leave the [`crate::PAD`]-pixel
/// border, so anything larger marks a corrupt stream.
const MV_LIMIT: i32 = 2 * (crate::plane::PAD as i32 - 1);

/// Largest VOL width or height the decoder accepts, in pixels. It
/// admits every `vidgen` resolution (the largest, `HUGE`, is 2048 wide)
/// with room to spare.
pub const MAX_VOL_DIMENSION: usize = 4096;

/// Largest VOL area the decoder accepts, in macroblocks (4096×2048
/// pixels). Together with [`MAX_VOL_DIMENSION`] it bounds what a VOL
/// header can make the decoder allocate before a single VOP is read.
pub const MAX_VOL_MBS: usize = 32_768;

/// Reconstructs a motion vector from its predictor and decoded
/// differences, validating the result against the padded surface.
fn checked_mv(pred: MotionVector, dx: i32, dy: i32) -> Result<MotionVector, CodecError> {
    let x = i32::from(pred.x) + dx;
    let y = i32::from(pred.y) + dy;
    if x.abs() > MV_LIMIT || y.abs() > MV_LIMIT {
        return Err(CodecError::InvalidStream("motion vector out of range"));
    }
    Ok(MotionVector::new(x as i16, y as i16))
}

/// One decoded VOP, in decode order.
#[derive(Debug, Clone)]
pub struct DecodedVop {
    /// Coding type.
    pub kind: VopKind,
    /// Display (temporal) index from the VOP header.
    pub display_index: usize,
    /// Quantizer used.
    pub qp: u8,
    /// Decode statistics.
    pub stats: VopStats,
    /// Raw copies of the reconstruction when requested via
    /// [`VideoObjectDecoder::set_keep_output`].
    pub planes: Option<crate::encoder::ReconPlanes>,
    /// Raw copy of the decoded alpha plane (binary-shape layers, when
    /// output keeping is on).
    pub alpha: Option<Vec<u8>>,
}

/// Decoder for one video object layer.
#[derive(Debug)]
pub struct VideoObjectDecoder {
    vol: VolHeader,
    anchors: [TracedFrame; 2],
    latest: usize,
    anchor_count: usize,
    b_recon: TracedFrame,
    alpha: Option<TracedPlane>,
    stream_bits: u64,
    keep_output: bool,
    /// Bounding box of the previous shaped VOP (cleared before each new
    /// alpha decode) and of the latest one (for the compositor).
    prev_bbox: Option<(usize, usize, usize, usize)>,
    /// Accumulated counter deltas over the VOP-decode windows — the
    /// paper's `DecodeVopCombMotionShapeTexture()` instrumentation.
    vop_window: m4ps_memsim::Counters,
    engine: DecodeEngine,
}

/// The state every VOP's macroblock layer uses: geometry, the texture
/// pipeline with its recycled per-slice clones, the stream's simulated
/// base, and the pool. Kept apart from the frame buffers so one VOP can
/// borrow its references and target frame from the decoder while the
/// engine decodes it.
#[derive(Debug)]
struct DecodeEngine {
    mb_cols: usize,
    mb_rows: usize,
    texture: TextureCoder,
    stream_base: u64,
    /// Worker pool for slice-parallel decode. `None` (and a zero
    /// `threads_hint`) keeps the legacy sequential path — parallel
    /// decode is strictly opt-in via [`VideoObjectDecoder::set_pool`] /
    /// [`VideoObjectDecoder::set_threads`] so existing sequential
    /// counter pins stay byte-for-byte unchanged.
    pool: Option<Arc<WorkerPool>>,
    /// Thread count for a lazily created pool; 0 = sequential decode.
    threads_hint: usize,
    sched: Scheduling,
    /// Reusable per-slice decode state (texture scratch clones and MV
    /// predictors), grown on first use and recycled every VOP.
    slice_scratch: Vec<SliceScratch>,
    /// VOPs where the parallel attempt was abandoned and the VOP was
    /// re-decoded sequentially (pre-scan miss, slice error, or slice
    /// boundary mismatch — corrupt streams, mostly).
    parallel_fallbacks: u64,
}

impl VideoObjectDecoder {
    /// Creates a decoder by reading the VOL header from the start of the
    /// stream in `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when no valid VOL header is present.
    pub fn from_stream<M: MemModel>(
        space: &mut AddressSpace,
        mem: &mut M,
        r: &mut BitReader<'_>,
    ) -> Result<Self, CodecError> {
        let vol = VolHeader::read(r)?;
        let _ = mem;
        Self::with_vol(space, vol)
    }

    /// Creates a decoder for a known VOL header.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidStream`] for non-MB-aligned
    /// dimensions, or dimensions past [`MAX_VOL_DIMENSION`] or
    /// [`MAX_VOL_MBS`]; nothing is allocated for a rejected header.
    pub fn with_vol(space: &mut AddressSpace, vol: VolHeader) -> Result<Self, CodecError> {
        if !vol.width.is_multiple_of(16) || !vol.height.is_multiple_of(16) {
            return Err(CodecError::InvalidStream(
                "VOL dimensions must be multiples of 16",
            ));
        }
        if vol.width > MAX_VOL_DIMENSION
            || vol.height > MAX_VOL_DIMENSION
            || (vol.width / 16) * (vol.height / 16) > MAX_VOL_MBS
        {
            return Err(CodecError::InvalidStream(
                "VOL dimensions exceed decode limits",
            ));
        }
        space.set_tag("dec.reference_frames");
        let anchors = [
            TracedFrame::new(space, vol.width, vol.height),
            TracedFrame::new(space, vol.width, vol.height),
        ];
        space.set_tag("dec.b_recon");
        let b_recon = TracedFrame::new(space, vol.width, vol.height);
        space.set_tag("dec.alpha");
        let alpha = vol
            .binary_shape
            .then(|| TracedPlane::new(space, vol.width, vol.height));
        space.set_tag("dec.scratch");
        let texture = TextureCoder::new(space);
        space.set_tag("dec.bitstream");
        let stream_base = space.alloc(16 * 1024 * 1024);
        space.set_tag("untagged");
        Ok(VideoObjectDecoder {
            anchors,
            latest: 0,
            anchor_count: 0,
            b_recon,
            alpha,
            stream_bits: 0,
            keep_output: false,
            prev_bbox: None,
            vop_window: m4ps_memsim::Counters::new(),
            engine: DecodeEngine {
                mb_cols: vol.width / 16,
                mb_rows: vol.height / 16,
                texture,
                stream_base,
                pool: None,
                threads_hint: 0,
                sched: Scheduling::from_env(),
                slice_scratch: Vec::new(),
                parallel_fallbacks: 0,
            },
            vol,
        })
    }

    /// Shares a persistent worker pool with this decoder and enables
    /// slice-parallel decode for multi-slice VOPs. Reconstruction and
    /// merged counters are bit-identical at any thread count: the slice
    /// partition, per-slice forks and charge windows depend only on the
    /// bitstream's slice count, never on which thread runs a slice.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.engine.threads_hint = pool.threads();
        self.engine.pool = Some(pool);
    }

    /// Enables slice-parallel decode on a lazily created `threads`-wide
    /// pool (0 restores the sequential path). Purely a scheduling knob:
    /// output is bit-identical across thread counts.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.min(256);
        let engine = &mut self.engine;
        engine.threads_hint = threads;
        match (&engine.pool, threads) {
            (Some(_), 0) => engine.pool = None,
            (Some(p), t) if p.threads() != t => engine.pool = None,
            _ => {}
        }
    }

    /// Selects how a VOP's slice work is decomposed onto the pool (see
    /// [`Scheduling`]). Output is bit-identical across modes.
    pub fn set_scheduling(&mut self, sched: Scheduling) {
        self.engine.sched = sched;
    }

    /// The worker thread count slices are decoded on (0 = sequential).
    pub fn threads(&self) -> usize {
        match (&self.engine.pool, self.engine.threads_hint) {
            (Some(p), _) => p.threads(),
            (None, hint) => hint,
        }
    }

    /// VOPs where the parallel attempt fell back to a sequential
    /// re-decode (corrupt slice, unlocatable slice header, or a slice
    /// boundary mismatch). The fallback decision is a pure function of
    /// the bitstream, so it is identical at every thread count; the
    /// re-decode reproduces the sequential decoder's result exactly,
    /// concealment and all.
    pub fn parallel_fallbacks(&self) -> u64 {
        self.engine.parallel_fallbacks
    }

    /// The VOL header of this layer.
    pub fn vol(&self) -> &VolHeader {
        &self.vol
    }

    /// Keep raw plane copies in every [`DecodedVop`] (testing aid; the
    /// composition stage consumes planes directly otherwise).
    pub fn set_keep_output(&mut self, keep: bool) {
        self.keep_output = keep;
    }

    /// Reconstruction of the most recently decoded VOP.
    pub fn last_recon(&self) -> &TracedFrame {
        if self.anchor_count > 0 {
            &self.anchors[self.latest]
        } else {
            &self.b_recon
        }
    }

    /// Reconstruction of the most recently decoded anchor.
    pub fn last_anchor(&self) -> Option<&TracedFrame> {
        (self.anchor_count > 0).then(|| &self.anchors[self.latest])
    }

    /// Frame the last VOP was reconstructed into (B → `b_recon`).
    fn recon_of(&self, kind: VopKind) -> &TracedFrame {
        if kind.is_anchor() {
            &self.anchors[self.latest]
        } else {
            &self.b_recon
        }
    }

    /// Counter deltas accumulated over every VOP-decode window so far —
    /// the paper's `DecodeVopCombMotionShapeTexture()` instrumentation.
    pub fn vop_window(&self) -> m4ps_memsim::Counters {
        self.vop_window
    }

    /// Decoded alpha plane of the last VOP (binary-shape layers).
    pub fn last_alpha(&self) -> Option<&TracedPlane> {
        self.alpha.as_ref()
    }

    /// Bounding box of the last shaped VOP.
    pub fn last_bbox(&self) -> Option<(usize, usize, usize, usize)> {
        self.prev_bbox
    }

    /// Decodes the next VOP from `r`, or returns `Ok(None)` at end of
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on corrupt or truncated input, including a
    /// B- or P-VOP arriving before its reference anchors.
    pub fn decode_next<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
    ) -> Result<Option<DecodedVop>, CodecError> {
        self.decode_next_inner(mem, r, None)
    }

    /// Like [`VideoObjectDecoder::decode_next`], but predicts P-VOPs from
    /// the external reference `ext` (temporal-scalability enhancement
    /// layers predict from the base layer).
    ///
    /// # Errors
    ///
    /// Same conditions as [`VideoObjectDecoder::decode_next`].
    pub fn decode_next_with_ref<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
        ext: &TracedFrame,
    ) -> Result<Option<DecodedVop>, CodecError> {
        self.decode_next_inner(mem, r, Some(ext))
    }

    fn decode_next_inner<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
        ext: Option<&TracedFrame>,
    ) -> Result<Option<DecodedVop>, CodecError> {
        let header = match r.next_start_code() {
            Err(BitstreamError::StartCodeNotFound) => return Ok(None),
            Err(e) => return Err(e.into()),
            Ok(code) if code == StartCode::VideoObjectPlane.value() => VopHeader::parse_fields(r)?,
            Ok(code) if code == StartCode::VideoObjectLayer.value() => {
                // Tolerate a repeated VOL header mid-stream.
                let _ = VolHeader::parse_fields(r)?;
                return self.decode_next_inner(mem, r, ext);
            }
            Ok(_) => return Err(CodecError::InvalidStream("unexpected startcode")),
        };

        let window_start = *mem.counters();
        let bit_start = r.bit_pos();
        // The paper's `VopDecode()` counter window doubles as the coarse
        // `vop.decode` span; the body is split out so the span closes on
        // error returns too.
        let obs_on = m4ps_obs::enabled();
        if obs_on {
            m4ps_obs::enter(Phase::VopDecode, window_start);
        }
        let body = self.decode_window(mem, r, ext, &header, bit_start);
        if obs_on {
            m4ps_obs::exit(Phase::VopDecode, *mem.counters());
        }
        let (stats, ext_is_ref) = body?;

        self.vop_window = self
            .vop_window
            .merged_with(&mem.counters().delta_since(&window_start));
        self.stream_bits += r.bit_pos() - bit_start;

        let target_kind = if ext_is_ref { VopKind::B } else { header.kind };
        let planes = self.keep_output.then(|| {
            let f = self.recon_of(target_kind);
            crate::encoder::ReconPlanes {
                y: f.y.copy_out(mem),
                u: f.u.copy_out(mem),
                v: f.v.copy_out(mem),
            }
        });
        let alpha_copy = if self.keep_output {
            self.alpha.as_ref().map(|a| a.copy_out(mem))
        } else {
            None
        };

        Ok(Some(DecodedVop {
            kind: header.kind,
            display_index: header.display_index as usize,
            qp: header.qp,
            stats,
            planes,
            alpha: alpha_copy,
        }))
    }

    /// Shape, reference selection, macroblock layer, and anchor
    /// bookkeeping for one VOP — everything inside the per-VOP counter
    /// window. Returns the layer stats and whether the external
    /// reference was used (the output then lands in the B slot).
    fn decode_window<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
        ext: Option<&TracedFrame>,
        header: &VopHeader,
        bit_start: u64,
    ) -> Result<(VopStats, bool), CodecError> {
        if header.kind == VopKind::P && self.anchor_count == 0 && ext.is_none() {
            return Err(CodecError::InvalidStream("P-VOP before first anchor"));
        }
        if header.kind == VopKind::B && self.anchor_count < 2 {
            return Err(CodecError::InvalidStream("B-VOP before two anchors"));
        }

        let mut charge = StreamCharge::reader(self.engine.stream_base + self.stream_bits / 8);

        // Shape first (DecodeVopCombMotionShapeTexture order). This also
        // settles the VOP's geometry: a bounding box lies inside the
        // frame, and only shaped layers carry one.
        if self.vol.binary_shape {
            let bbox = header.bbox.ok_or(CodecError::InvalidStream(
                "shaped VOP without a bounding box",
            ))?;
            if bbox.0 + bbox.2 > self.vol.width || bbox.1 + bbox.3 > self.vol.height {
                return Err(CodecError::InvalidStream("bounding box out of frame"));
            }
            let alpha = self
                .alpha
                .as_mut()
                .expect("binary-shape decoder has an alpha plane");
            if let Some((px, py, pw, ph)) = self.prev_bbox {
                alpha.clear_region(mem, px, py, pw, ph);
            }
            span!(mem, Phase::Shape, decode_alpha_plane(mem, alpha, bbox, r))?;
            self.prev_bbox = Some(bbox);
        } else if header.bbox.is_some() {
            return Err(CodecError::InvalidStream(
                "bounding box on a rectangular layer",
            ));
        }
        // Stream-byte traffic for the consumed header/shape bits is the
        // decoder's parse cost.
        span!(
            mem,
            Phase::Parse,
            charge.charge_to(mem, r.bit_pos() - bit_start)
        );

        // Pick references and the reconstruction target: an anchor
        // decodes into the non-latest slot and a P-VOP predicts from the
        // latest; a B-VOP (or a P-VOP on an external reference) decodes
        // into the B slot.
        let ext_is_ref = ext.is_some() && header.kind == VopKind::P;
        let into_anchor = header.kind.is_anchor() && !ext_is_ref;
        let new_idx = if self.anchor_count == 0 {
            0
        } else {
            1 - self.latest
        };
        let [a0, a1] = &mut self.anchors;
        let (target, other) = if new_idx == 0 { (a0, &*a1) } else { (a1, &*a0) };
        let (recon, fwd, bwd) = if header.kind == VopKind::B {
            // Forward is the older anchor, backward the latest.
            (&mut self.b_recon, Some(&*target), Some(other))
        } else if ext_is_ref {
            (&mut self.b_recon, ext, None)
        } else {
            (target, (header.kind == VopKind::P).then_some(other), None)
        };
        let (mbx_range, mby_range) =
            mb_ranges(header.bbox, self.engine.mb_cols, self.engine.mb_rows);
        let ctx = DecodeCtx {
            hdr: header,
            alpha: self.alpha.as_ref(),
            fwd,
            bwd,
            slice_rows: partition_rows(mby_range.clone(), header.slices),
            mbx_range,
            mby_range,
            bit_start,
        };
        let stats = self.engine.decode(mem, r, &ctx, recon, &mut charge)?;

        if into_anchor {
            if !self.vol.binary_shape {
                self.anchors[new_idx].pad_borders(mem);
            }
            self.latest = new_idx;
            self.anchor_count = (self.anchor_count + 1).min(2);
        }

        Ok((stats, ext_is_ref))
    }
}

/// Read-shared context for decoding one VOP's macroblock layer.
struct DecodeCtx<'a> {
    hdr: &'a VopHeader,
    alpha: Option<&'a TracedPlane>,
    fwd: Option<&'a TracedFrame>,
    bwd: Option<&'a TracedFrame>,
    /// The VOP's slice partition of `mby_range`.
    slice_rows: Vec<Range<usize>>,
    mbx_range: Range<usize>,
    mby_range: Range<usize>,
    /// Absolute bit position just past the VOP header: the origin of
    /// the VOP's own stream-charge window.
    bit_start: u64,
}

impl DecodeEngine {
    /// The pool to decode this VOP's slices on, creating the lazy pool
    /// on first use. `None` = sequential decode.
    fn parallel_pool(&mut self) -> Option<Arc<WorkerPool>> {
        if self.pool.is_none() && self.threads_hint > 0 {
            self.pool = Some(Arc::new(WorkerPool::new(self.threads_hint)));
        }
        self.pool.clone()
    }

    /// Decodes one VOP's macroblock layer into `recon`: slice-parallel
    /// when a pool is attached and the VOP is multi-slice, sequential
    /// otherwise — or whenever the parallel attempt aborts. The
    /// fallback re-decode starts from a saved reader clone and
    /// overwrites every in-bbox macroblock, so its public result
    /// (including concealment) is exactly the sequential decoder's on
    /// every input.
    fn decode<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
        ctx: &DecodeCtx<'_>,
        recon: &mut TracedFrame,
        charge: &mut StreamCharge,
    ) -> Result<VopStats, CodecError> {
        if let Some(pool) = self.parallel_pool() {
            if ctx.slice_rows.len() > 1 {
                let saved = r.clone();
                if let Some(stats) = self.decode_parallel(mem, r, ctx, recon, charge, &pool) {
                    return Ok(stats);
                }
                self.parallel_fallbacks += 1;
                *r = saved;
            }
        }
        decode_vop_body(mem, r, ctx, recon, &mut self.texture, charge)
    }

    /// Decodes a multi-slice VOP's macroblock layer on the pool: a cheap
    /// untraced pre-scan locates every slice header (byte-aligned resync
    /// marker carrying the slice's first macroblock index), then each
    /// slice decodes as a chain of row tasks — cloned reader positioned
    /// at its slice start, forked memory model, recycled
    /// [`SliceScratch`], disjoint reconstruction row band, and a
    /// per-slice-index charge window at
    /// `stream_base + (s+1) * SLICE_CHARGE_SPAN` — the exact construction
    /// the parallel encoder uses, so reconstruction and merged counters
    /// are bit-identical at any thread count.
    ///
    /// The parallel path performs **no concealment**: any anomaly — a
    /// slice header the pre-scan cannot locate, a slice task error (or
    /// panic, caught at the task boundary), or a slice whose aligned end
    /// does not meet the next slice's start — abandons the whole attempt
    /// without absorbing any fork and returns `None`; the caller then
    /// re-decodes the VOP sequentially. Each of those triggers is a pure
    /// function of the bitstream, so the decision is identical at every
    /// thread count.
    fn decode_parallel<M: ParallelModel>(
        &mut self,
        mem: &mut M,
        r: &mut BitReader<'_>,
        ctx: &DecodeCtx<'_>,
        recon: &mut TracedFrame,
        charge: &mut StreamCharge,
        pool: &WorkerPool,
    ) -> Option<VopStats> {
        // Commit: consume the header segment's stuffing (slice 0 starts
        // byte-aligned) and charge it in the parent window — the decode
        // mirror of the encoder charging its aligned header segment.
        r.skip_stuffing();
        span!(
            mem,
            Phase::Parse,
            charge.charge_to(mem, r.bit_pos() - ctx.bit_start)
        );
        let starts = prescan_slice_starts(r, ctx)?;

        SliceScratch::reserve(
            &mut self.slice_scratch,
            ctx.slice_rows.len(),
            &self.texture,
            self.mb_cols,
        );
        let views = recon.split_mb_rows_mut(&ctx.slice_rows);
        let chains: Vec<_> = ctx
            .slice_rows
            .iter()
            .zip(views)
            .zip(self.slice_scratch.iter_mut())
            .enumerate()
            .map(|(s, ((rows, view), scratch))| {
                let first_mb = (rows.start - ctx.mby_range.start) * ctx.mbx_range.len();
                let mut sr = r.clone();
                sr.seek_to(starts[s]);
                let job = DecodeSlice {
                    r: sr,
                    view,
                    scratch,
                    charge: StreamCharge::reader(
                        self.stream_base + (s as u64 + 1) * SLICE_CHARGE_SPAN,
                    ),
                    stats: VopStats::default(),
                    slice_index: s,
                    slice_start: starts[s],
                    first_mb,
                    mb_counter: first_mb,
                };
                Chain::new(mem.fork(), job, rows.clone())
            })
            .collect();
        let results = run_chains(pool, Phase::DecodeSlice, self.sched.grain(), ctx, chains);

        // A corrupt slice surfaces as a clean per-slice error (a panic
        // as a caught payload); the other slices completed
        // independently. Drop every fork unabsorbed and let the
        // sequential re-decode conceal.
        let outs: Vec<_> = results
            .into_iter()
            .map(|result| result.ok()?.ok())
            .collect::<Option<_>>()?;
        // Every slice must end, after consuming its alignment stuffing,
        // exactly at the next slice's header. By induction this proves
        // each task consumed precisely the bits the sequential decoder
        // would.
        if outs
            .iter()
            .zip(&starts[1..])
            .any(|(((_, _, aligned), _), &next)| *aligned != next)
        {
            return None;
        }

        let end_pos = outs.last().expect("at least two slices").0 .1;
        let mut stats = VopStats::default();
        for ((sstats, _, _), smem) in outs {
            let child_total = *smem.counters();
            mem.absorb(smem);
            // Keep the caller's open phase from double-counting the jump
            // `absorb` just folded in (the slices' own domain spans carry
            // those counters, phase by phase).
            m4ps_obs::absorbed(&child_total);
            stats.merge(&sstats);
        }
        // Leave the reader after the last macroblock — exactly where the
        // sequential decoder stops (the next startcode scan handles the
        // final stuffing).
        r.seek_to(end_pos);

        if let Some(bbox) = ctx.hdr.bbox {
            fill_bbox_ring(mem, recon, bbox, self.mb_cols, self.mb_rows);
        }
        Some(stats)
    }
}

/// Locates every slice's byte-aligned start: slice 0 begins at the
/// reader's (aligned) position; slice `s > 0` begins at the first
/// byte-aligned resync marker whose following fields parse as slice
/// `s`'s first macroblock index. In-slice resync markers always carry
/// a *smaller* index, so the first match is the true header unless the
/// payload aliases one — which the slice boundary check catches.
///
/// The scan reads raw bytes through reader clones and charges nothing:
/// like the encoder's slice partition it is scheduling metadata, not
/// modelled codec traffic (the slice tasks charge every stream byte
/// through their own windows).
fn prescan_slice_starts(r: &BitReader<'_>, ctx: &DecodeCtx<'_>) -> Option<Vec<u64>> {
    let mut starts = Vec::with_capacity(ctx.slice_rows.len());
    starts.push(r.bit_pos());
    let mut probe = r.clone();
    for rows in &ctx.slice_rows[1..] {
        let expected = (rows.start - ctx.mby_range.start) * ctx.mbx_range.len();
        loop {
            if !probe.scan_aligned_u16(RESYNC_MARKER) {
                return None;
            }
            if matches!(read_marker_fields(&mut probe.clone()), Ok(idx) if idx == expected) {
                starts.push(probe.bit_pos() - 16);
                break;
            }
            // A smaller index (in-slice marker) or a payload alias:
            // keep scanning forward.
        }
    }
    Some(starts)
}

/// Reads the fields that follow a resync word — the macroblock index
/// and the quantizer (which the decoder does not use) — and returns the
/// index.
fn read_marker_fields(r: &mut BitReader<'_>) -> Result<usize, CodecError> {
    let idx = get_ue(r)? as usize;
    let _qp = r.get_bits(5)?;
    Ok(idx)
}

/// Reads a whole marker — the 16-bit word and its fields — and returns
/// the macroblock index it carries, or `None` when the word is not a
/// resync marker.
fn read_marker(r: &mut BitReader<'_>) -> Result<Option<usize>, CodecError> {
    let word = r.get_bits(16)?;
    let idx = read_marker_fields(r)?;
    Ok((word == u32::from(RESYNC_MARKER)).then_some(idx))
}

/// One slice's decode state, carried from row task to row task: its
/// reader clone and charge window, its reconstruction band and recycled
/// scratch, tallies, and the macroblock counter.
struct DecodeSlice<'a> {
    r: BitReader<'a>,
    view: FrameViewMut<'a>,
    scratch: &'a mut SliceScratch,
    charge: StreamCharge,
    stats: VopStats,
    slice_index: usize,
    /// Absolute bit position of the slice's first bit (the resync
    /// marker for `slice_index > 0`); per-macroblock charges are
    /// relative to it.
    slice_start: u64,
    first_mb: usize,
    mb_counter: usize,
}

impl<'a, M: MemModel> SliceJob<M> for DecodeSlice<'a> {
    type Ctx = DecodeCtx<'a>;
    /// Stats, the reader position after the last macroblock, and the
    /// aligned position after the slice's stuffing (which must meet
    /// the next slice's start).
    type Out = (VopStats, u64, u64);
    type Error = CodecError;

    /// Validates the slice header (the resync word, the index of the
    /// slice's first macroblock, and the quantizer, whose value the
    /// sequential decoder also ignores) and resets prediction.
    fn begin(&mut self, _ctx: &DecodeCtx<'a>) -> Result<(), CodecError> {
        if self.slice_index > 0 && read_marker(&mut self.r)? != Some(self.first_mb) {
            return Err(CodecError::InvalidStream("slice header mismatch"));
        }
        // Recycled predictors start from reset — the same state a fresh
        // `MvPredictor::new` carries.
        self.scratch.fwd_pred.reset();
        self.scratch.bwd_pred.reset();
        Ok(())
    }

    /// Decodes one macroblock row on the clean path only: any marker
    /// mismatch or macroblock error aborts the slice (no concealment —
    /// the coordinator falls back to the sequential decoder, which owns
    /// the error-resilience state machine).
    fn row(&mut self, mem: &mut M, ctx: &DecodeCtx<'a>, mby: usize) -> Result<(), CodecError> {
        let DecodeSlice {
            r,
            view,
            scratch,
            charge,
            stats,
            slice_start,
            first_mb,
            mb_counter,
            ..
        } = self;
        let mut st = MbState::new(
            &mut scratch.texture,
            &mut scratch.fwd_pred,
            &mut scratch.bwd_pred,
            stats,
        );
        st.start_row();
        for mbx in ctx.mbx_range.clone() {
            if let Some(interval) = ctx.hdr.resync_interval {
                if *mb_counter > *first_mb && mb_counter.is_multiple_of(interval) {
                    // Clean path: the expected marker, or abort.
                    r.skip_stuffing();
                    if read_marker(r)? != Some(*mb_counter) {
                        return Err(CodecError::InvalidStream("resync marker mismatch"));
                    }
                    st.reset();
                }
            }
            *mb_counter += 1;
            if decode_mb(mem, r, ctx, view, &mut st, (mbx, mby), false)? {
                span!(
                    mem,
                    Phase::Parse,
                    charge.charge_to(mem, r.bit_pos() - *slice_start)
                );
            }
        }
        Ok(())
    }

    /// Charges the slice's trailing stuffing — sequentially those bytes
    /// are swept up by the successor slice's first macroblock charge.
    /// The LAST slice's stuffing is the one tail the sequential decoder
    /// never touches (it stops right after the final macroblock), so
    /// stop there too.
    fn finish(mut self, mem: &mut M, ctx: &DecodeCtx<'a>) -> (VopStats, u64, u64) {
        let end_pos = self.r.bit_pos();
        self.r.skip_stuffing();
        let aligned = self.r.bit_pos();
        let charge_end = if self.slice_index + 1 == ctx.slice_rows.len() {
            end_pos
        } else {
            aligned
        };
        self.charge.charge_to(mem, charge_end - self.slice_start);
        (self.stats, end_pos, aligned)
    }
}

/// The macroblock-level state a decode loop threads through its rows:
/// the texture pipeline, both MV predictors, the intra DC predictors
/// and the VOP's (or slice's) tallies.
struct MbState<'s> {
    texture: &'s mut TextureCoder,
    fwd_pred: &'s mut MvPredictor,
    bwd_pred: &'s mut MvPredictor,
    ips: IntraPredState,
    stats: &'s mut VopStats,
}

impl<'s> MbState<'s> {
    fn new(
        texture: &'s mut TextureCoder,
        fwd_pred: &'s mut MvPredictor,
        bwd_pred: &'s mut MvPredictor,
        stats: &'s mut VopStats,
    ) -> Self {
        MbState {
            texture,
            fwd_pred,
            bwd_pred,
            ips: IntraPredState::reset(),
            stats,
        }
    }

    /// Starts a macroblock row: intra DC prediction never crosses one.
    fn start_row(&mut self) {
        self.fwd_pred.start_row();
        self.bwd_pred.start_row();
        self.ips = IntraPredState::reset();
    }

    /// Resets all prediction (at a slice start or resync marker).
    fn reset(&mut self) {
        self.fwd_pred.reset();
        self.bwd_pred.reset();
        self.ips = IntraPredState::reset();
    }

    /// Records a macroblock that carries no prediction (transparent or
    /// concealed).
    fn clear_mb(&mut self, mbx: usize) {
        self.fwd_pred.commit(mbx, MotionVector::ZERO);
        self.bwd_pred.commit(mbx, MotionVector::ZERO);
        self.ips = IntraPredState::reset();
    }

    /// Conceals one macroblock: zero-motion copy from the forward
    /// reference when one exists, mid-grey otherwise.
    fn conceal<M: MemModel, F: FrameSink>(
        &mut self,
        mem: &mut M,
        fwd: Option<&TracedFrame>,
        recon: &mut F,
        (mbx, mby): (usize, usize),
    ) {
        match fwd {
            Some(reference) => {
                let (py, pu, pv) =
                    predict_mb(mem, reference, self.texture, MotionVector::ZERO, mbx, mby);
                store_prediction(mem, recon, self.texture, &py, &pu, &pv, mbx, mby);
            }
            None => fill_grey_mb(mem, recon, mbx, mby),
        }
        self.stats.concealed_mbs += 1;
        self.clear_mb(mbx);
    }
}

/// Decodes one macroblock for both decode loops: the transparency
/// check, the per-macroblock overhead charge, then concealment (when
/// `conceal` is set) or the I/P/B dispatch. Returns whether the
/// macroblock parsed any bits — transparent and concealed macroblocks
/// parse none, so the caller charges no stream bytes for them.
fn decode_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    ctx: &DecodeCtx<'_>,
    recon: &mut F,
    st: &mut MbState<'_>,
    (mbx, mby): (usize, usize),
    conceal: bool,
) -> Result<bool, CodecError> {
    let transparent = match ctx.alpha {
        Some(a) => span!(
            mem,
            Phase::Shape,
            classify_bab(mem, a, mbx, mby) == BabClass::Transparent
        ),
        None => false,
    };
    if transparent {
        st.stats.transparent_mbs += 1;
        fill_grey_mb(mem, recon, mbx, mby);
        st.clear_mb(mbx);
        return Ok(false);
    }
    st.texture.charge_mb_overhead(mem);
    if conceal {
        st.conceal(mem, ctx.fwd, recon, (mbx, mby));
        return Ok(false);
    }
    let qp = ctx.hdr.qp;
    match ctx.hdr.kind {
        VopKind::I => {
            decode_intra_mb(mem, r, recon, st.texture, qp, mbx, mby, &mut st.ips)?;
            st.stats.intra_mbs += 1;
            st.fwd_pred.commit(mbx, MotionVector::ZERO);
        }
        VopKind::P => {
            let reference = ctx
                .fwd
                .ok_or(CodecError::InvalidStream("P-VOP without reference"))?;
            decode_p_mb(
                mem,
                r,
                reference,
                recon,
                st.texture,
                qp,
                mbx,
                mby,
                &mut st.ips,
                st.fwd_pred,
                st.stats,
            )?;
        }
        VopKind::B => {
            let f = ctx
                .fwd
                .ok_or(CodecError::InvalidStream("B-VOP without fwd ref"))?;
            let b = ctx
                .bwd
                .ok_or(CodecError::InvalidStream("B-VOP without bwd ref"))?;
            decode_b_mb(
                mem,
                r,
                f,
                b,
                recon,
                st.texture,
                qp,
                mbx,
                mby,
                st.fwd_pred,
                st.bwd_pred,
                st.stats,
            )?;
            st.ips = IntraPredState::reset();
        }
    }
    Ok(true)
}

/// Decodes the macroblock layer of one VOP (after shape) sequentially,
/// with error resilience: on a corrupt macroblock or marker it conceals
/// up to the next valid resync marker instead of failing (streams
/// without markers fail).
fn decode_vop_body<M: MemModel>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    ctx: &DecodeCtx<'_>,
    recon: &mut TracedFrame,
    texture: &mut TextureCoder,
    charge: &mut StreamCharge,
) -> Result<VopStats, CodecError> {
    let header = ctx.hdr;
    if ctx.slice_rows.len() > 1 {
        // The sliced layout byte-aligns the header segment; consume the
        // stuffing so slice 0 starts on its byte boundary.
        r.skip_stuffing();
    }

    let mut stats = VopStats::default();
    let mb_cols = recon.y.width() / 16;
    let mut fwd_pred = MvPredictor::new(mb_cols);
    let mut bwd_pred = MvPredictor::new(mb_cols);
    let mut st = MbState::new(texture, &mut fwd_pred, &mut bwd_pred, &mut stats);
    let total_mbs = ctx.mbx_range.len() * ctx.mby_range.len();
    // `Some(target)` while concealing up to (but excluding) macroblock
    // `target`; `usize::MAX` conceals to the end of the VOP.
    let mut conceal_until: Option<usize> = None;

    for (si, srows) in ctx.slice_rows.iter().enumerate() {
        let slice_first_mb = (srows.start - ctx.mby_range.start) * ctx.mbx_range.len();
        let mut mb_counter = slice_first_mb;
        if si > 0 {
            match conceal_until {
                None => {
                    // Slice header: stuffing, the resync word, the
                    // slice's first macroblock index, the quantizer.
                    r.skip_stuffing();
                    if !matches!(read_marker(r), Ok(Some(idx)) if idx == slice_first_mb) {
                        let Some(interval) = header.resync_interval else {
                            return Err(CodecError::InvalidStream("slice header mismatch"));
                        };
                        conceal_until =
                            Some(scan_to_marker(r, slice_first_mb, total_mbs, interval));
                    }
                }
                Some(target) if slice_first_mb >= target => {
                    // The recovery scan already consumed this slice's
                    // header; resume decoding here.
                    conceal_until = None;
                }
                Some(_) => {}
            }
        }
        // Slice boundaries carry resync-marker semantics: no prediction
        // crosses them (the encoder starts each slice from reset state).
        st.reset();

        for mby in srows.clone() {
            st.start_row();
            for mbx in ctx.mbx_range.clone() {
                // Resynchronization-marker boundary handling.
                if let Some(interval) = header.resync_interval {
                    if mb_counter > slice_first_mb && mb_counter.is_multiple_of(interval) {
                        match conceal_until {
                            None => {
                                // Clean path: consume the expected marker.
                                r.skip_stuffing();
                                if matches!(read_marker(r), Ok(Some(idx)) if idx == mb_counter) {
                                    st.reset();
                                } else {
                                    conceal_until =
                                        Some(scan_to_marker(r, mb_counter, total_mbs, interval));
                                }
                            }
                            Some(target) if mb_counter >= target => {
                                // Resumption point: the scan already consumed
                                // the marker header.
                                conceal_until = None;
                                st.reset();
                            }
                            Some(_) => {}
                        }
                    }
                }
                let counter = mb_counter;
                mb_counter += 1;

                match decode_mb(
                    mem,
                    r,
                    ctx,
                    recon,
                    &mut st,
                    (mbx, mby),
                    conceal_until.is_some(),
                ) {
                    Ok(false) => continue,
                    Ok(true) => {}
                    Err(e) => {
                        let Some(interval) = header.resync_interval else {
                            return Err(e);
                        };
                        // Error resilience: conceal this macroblock and
                        // everything up to the next valid marker.
                        conceal_until = Some(scan_to_marker(r, counter, total_mbs, interval));
                        st.conceal(mem, ctx.fwd, recon, (mbx, mby));
                    }
                }
                span!(
                    mem,
                    Phase::Parse,
                    charge.charge_to(mem, r.bit_pos().max(ctx.bit_start) - ctx.bit_start)
                );
            }
        }
    }

    if let Some(bbox) = header.bbox {
        let (mb_cols, mb_rows) = (recon.y.width() / 16, recon.y.height() / 16);
        fill_bbox_ring(mem, recon, bbox, mb_cols, mb_rows);
    }

    Ok(stats)
}

/// Scans forward for the next valid resynchronization marker and
/// returns the macroblock index at which decoding may resume (leaving
/// the reader positioned after the marker header), or `usize::MAX` when
/// no further marker exists.
fn scan_to_marker(r: &mut BitReader<'_>, after: usize, total_mbs: usize, interval: usize) -> usize {
    loop {
        if !r.scan_aligned_u16(RESYNC_MARKER) {
            return usize::MAX;
        }
        let mut probe = r.clone();
        if let Ok(idx) = read_marker_fields(&mut probe) {
            if idx > after && idx < total_mbs && idx % interval == 0 {
                *r = probe;
                return idx;
            }
        }
        // False positive inside payload: keep scanning after the match.
    }
}

/// Decodes the six blocks of an intra macroblock.
///
/// Like the encoder's intra path, the whole entropy-decode + dequant +
/// IDCT pipeline is one `texture.dctq` span per macroblock.
#[allow(clippy::too_many_arguments)]
fn decode_intra_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    ips: &mut IntraPredState,
) -> Result<(), CodecError> {
    span!(
        mem,
        Phase::DctQuant,
        decode_intra_mb_blocks(mem, r, recon, texture, qp, mbx, mby, ips)
    )
}

/// The fallible body of [`decode_intra_mb`] (split out so `?` cannot
/// skip the span exit).
#[allow(clippy::too_many_arguments)]
fn decode_intra_mb_blocks<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    ips: &mut IntraPredState,
) -> Result<(), CodecError> {
    let (ry, ru, rv) = recon.planes_mut();
    let px = (mbx * 16) as isize;
    let py = (mby * 16) as isize;
    for blk in 0..4 {
        let bx = px + ((blk % 2) * 8) as isize;
        let by = py + ((blk / 2) * 8) as isize;
        let qb = texture.entropy_decode(mem, true, ips.y, r)?;
        ips.y = qb.qdc();
        let rec = texture.reconstruct(mem, &qb, qp);
        write_block(mem, ry, bx, by, &rec);
    }
    let cx = (mbx * 8) as isize;
    let cy = (mby * 8) as isize;
    for plane_idx in 0..2 {
        let pred = if plane_idx == 0 { ips.u } else { ips.v };
        let qb = texture.entropy_decode(mem, true, pred, r)?;
        if plane_idx == 0 {
            ips.u = qb.qdc();
        } else {
            ips.v = qb.qdc();
        }
        let rec = texture.reconstruct(mem, &qb, qp);
        let dst: &mut F::Plane = if plane_idx == 0 { &mut *ru } else { &mut *rv };
        write_block(mem, dst, cx, cy, &rec);
    }
    Ok(())
}

/// Parses the cbp flags and the flagged residual blocks — the Vlc
/// section of an inter macroblock, split out so `?` cannot skip the
/// span exit.
fn parse_inter_residual<M: MemModel>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    texture: &mut TextureCoder,
    cbp: &mut [bool; 6],
    blocks: &mut [crate::texture::QuantizedBlock; 6],
) -> Result<(), CodecError> {
    for b in cbp.iter_mut() {
        *b = r.get_bit().map_err(CodecError::from)?;
    }
    for i in 0..6 {
        if cbp[i] {
            blocks[i] = texture.entropy_decode(mem, false, 0, r)?;
        }
    }
    Ok(())
}

/// Decodes cbp flags and the flagged residual blocks, then reconstructs.
#[allow(clippy::too_many_arguments)]
fn decode_inter_residual_and_reconstruct<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    pred_y: &[u8; 256],
    pred_u: &[u8; 64],
    pred_v: &[u8; 64],
) -> Result<(), CodecError> {
    let mut cbp = [false; 6];
    let empty = crate::texture::QuantizedBlock {
        levels: m4ps_dsp::CoefBlock::default(),
        intra: false,
    };
    let mut blocks = [empty; 6];
    span!(
        mem,
        Phase::Vlc,
        parse_inter_residual(mem, r, texture, &mut cbp, &mut blocks)
    )?;
    reconstruct_inter_mb(
        mem, recon, &blocks, &cbp, pred_y, pred_u, pred_v, texture, qp, mbx, mby,
    );
    Ok(())
}

/// Decodes one macroblock of a P-VOP.
#[allow(clippy::too_many_arguments)]
fn decode_p_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    reference: &TracedFrame,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    ips: &mut IntraPredState,
    mv_pred: &mut MvPredictor,
    stats: &mut VopStats,
) -> Result<(), CodecError> {
    let skipped = r.get_bit().map_err(CodecError::from)?;
    if skipped {
        let (pred_y, pred_u, pred_v) =
            predict_mb(mem, reference, texture, MotionVector::ZERO, mbx, mby);
        // Zero residue: reconstruction is the prediction itself.
        store_prediction(mem, recon, texture, &pred_y, &pred_u, &pred_v, mbx, mby);
        stats.skipped_mbs += 1;
        mv_pred.commit(mbx, MotionVector::ZERO);
        *ips = IntraPredState::reset();
        return Ok(());
    }
    let kind = MacroblockKind::from_code(get_ue(r)?)
        .ok_or(CodecError::InvalidStream("bad macroblock type"))?;
    match kind {
        MacroblockKind::Intra => {
            decode_intra_mb(mem, r, recon, texture, qp, mbx, mby, ips)?;
            stats.intra_mbs += 1;
            mv_pred.commit(mbx, MotionVector::ZERO);
        }
        MacroblockKind::Inter => {
            *ips = IntraPredState::reset();
            let pred = mv_pred.predict(mbx);
            let dx = get_se(r)?;
            let dy = get_se(r)?;
            let mv = checked_mv(pred, dx, dy)?;
            let (pred_y, pred_u, pred_v) = predict_mb(mem, reference, texture, mv, mbx, mby);
            decode_inter_residual_and_reconstruct(
                mem, r, recon, texture, qp, mbx, mby, &pred_y, &pred_u, &pred_v,
            )?;
            stats.inter_mbs += 1;
            mv_pred.commit(mbx, mv);
        }
        MacroblockKind::Inter4V => {
            *ips = IntraPredState::reset();
            let mut mvs4 = [MotionVector::ZERO; 4];
            let mut pred = mv_pred.predict(mbx);
            for mv in mvs4.iter_mut() {
                let dx = get_se(r)?;
                let dy = get_se(r)?;
                *mv = checked_mv(pred, dx, dy)?;
                pred = *mv;
            }
            let (pred_y, pred_u, pred_v) = predict_mb_4mv(mem, reference, texture, &mvs4, mbx, mby);
            decode_inter_residual_and_reconstruct(
                mem, r, recon, texture, qp, mbx, mby, &pred_y, &pred_u, &pred_v,
            )?;
            stats.inter_mbs += 1;
            mv_pred.commit(mbx, MotionVector::median3(mvs4[0], mvs4[1], mvs4[2]));
        }
        _ => return Err(CodecError::InvalidStream("illegal MB type in P-VOP")),
    }
    Ok(())
}

/// Stores a pure prediction (no residue) into the reconstruction.
#[allow(clippy::too_many_arguments)]
fn store_prediction<M: MemModel, F: FrameSink>(
    mem: &mut M,
    recon: &mut F,
    texture: &TextureCoder,
    pred_y: &[u8; 256],
    pred_u: &[u8; 64],
    pred_v: &[u8; 64],
    mbx: usize,
    mby: usize,
) {
    let (ry, ru, rv) = recon.planes_mut();
    texture.charge_pred_load(mem, 384);
    for blk in 0..4 {
        let bx = (mbx * 16 + (blk % 2) * 8) as isize;
        let by = (mby * 16 + (blk / 2) * 8) as isize;
        let pred = crate::mbops::pred_subblock(pred_y, blk);
        write_block_u8(mem, ry, bx, by, &pred);
    }
    let cx = (mbx * 8) as isize;
    let cy = (mby * 8) as isize;
    write_block_u8(mem, ru, cx, cy, pred_u);
    write_block_u8(mem, rv, cx, cy, pred_v);
}

/// Decodes one macroblock of a B-VOP.
#[allow(clippy::too_many_arguments)]
fn decode_b_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    fwd: &TracedFrame,
    bwd: &TracedFrame,
    recon: &mut F,
    texture: &mut TextureCoder,
    qp: u8,
    mbx: usize,
    mby: usize,
    fwd_pred: &mut MvPredictor,
    bwd_pred: &mut MvPredictor,
    stats: &mut VopStats,
) -> Result<(), CodecError> {
    let kind = MacroblockKind::from_code(get_ue(r)?)
        .ok_or(CodecError::InvalidStream("bad macroblock type"))?;
    if !matches!(
        kind,
        MacroblockKind::Forward | MacroblockKind::Backward | MacroblockKind::Bidirectional
    ) {
        return Err(CodecError::InvalidStream("illegal MB type in B-VOP"));
    }
    let mut mvf = MotionVector::ZERO;
    let mut mvb = MotionVector::ZERO;
    if kind != MacroblockKind::Backward {
        let p = fwd_pred.predict(mbx);
        let dx = get_se(r)?;
        let dy = get_se(r)?;
        mvf = checked_mv(p, dx, dy)?;
    }
    if kind != MacroblockKind::Forward {
        let p = bwd_pred.predict(mbx);
        let dx = get_se(r)?;
        let dy = get_se(r)?;
        mvb = checked_mv(p, dx, dy)?;
    }
    fwd_pred.commit(mbx, mvf);
    bwd_pred.commit(mbx, mvb);

    let (pred_y, pred_u, pred_v) = match kind {
        MacroblockKind::Forward => predict_mb(mem, fwd, texture, mvf, mbx, mby),
        MacroblockKind::Backward => predict_mb(mem, bwd, texture, mvb, mbx, mby),
        _ => {
            let (fy, fu, fv) = predict_mb(mem, fwd, texture, mvf, mbx, mby);
            let (by_, bu, bv) = predict_mb(mem, bwd, texture, mvb, mbx, mby);
            let mut y = [0u8; 256];
            let mut u = [0u8; 64];
            let mut v = [0u8; 64];
            average_predictions(&fy, &by_, &mut y);
            average_predictions(&fu, &bu, &mut u);
            average_predictions(&fv, &bv, &mut v);
            (y, u, v)
        }
    };
    decode_inter_residual_and_reconstruct(
        mem, r, recon, texture, qp, mbx, mby, &pred_y, &pred_u, &pred_v,
    )?;
    stats.inter_mbs += 1;
    Ok(())
}
