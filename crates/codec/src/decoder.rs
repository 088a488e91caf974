//! The video-object decoder
//! (`DecodeVopCombMotionShapeTexture` in MoMuSys terms — the function
//! the paper instruments for its burstiness study).

use crate::encoder::{
    fill_bbox_ring, fill_grey_mb, predict_mb_4mv, reconstruct_inter_mb, Scheduling, SliceScratch,
    VopStats, RESYNC_MARKER, SLICE_CHARGE_SPAN,
};
use crate::error::CodecError;
use crate::header::{VolHeader, VopHeader};
use crate::mbops::{
    chroma_mv, write_block, write_block_u8, IntraPredState, MvPredictor, StreamCharge,
};
use crate::mc::{average_predictions, motion_compensate_block};
use crate::plane::{FrameSink, FrameViewMut, TracedFrame, TracedPlane};
use crate::shape::{classify_bab, decode_alpha_plane, BabClass};
use crate::slices::partition_rows;
use crate::texture::TextureCoder;
use crate::types::{MacroblockKind, MotionVector, VopKind};
use crate::vlc::{get_se, get_ue};
use m4ps_bitstream::{BitReader, BitstreamError, StartCode};
use m4ps_memsim::{AddressSpace, MemModel, ParallelModel};
use m4ps_obs::{span, Phase};
use m4ps_pool::{Scope, WorkerPool};
use std::ops::Range;
use std::sync::{Arc, Mutex};

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
    mb_cols: usize,
    mb_rows: usize,
    anchors: [TracedFrame; 2],
    latest: usize,
    anchor_count: usize,
    b_recon: TracedFrame,
    alpha: Option<TracedPlane>,
    texture: TextureCoder,
    stream_base: u64,
    stream_bits: u64,
    keep_output: bool,
    /// Bounding box of the previous shaped VOP (cleared before each new
    /// alpha decode) and of the latest one (for the compositor).
    prev_bbox: Option<(usize, usize, usize, usize)>,
    /// Accumulated counter deltas over the VOP-decode windows — the
    /// paper's `DecodeVopCombMotionShapeTexture()` instrumentation.
    vop_window: m4ps_memsim::Counters,
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
            mb_cols: vol.width / 16,
            mb_rows: vol.height / 16,
            anchors,
            latest: 0,
            anchor_count: 0,
            b_recon,
            alpha,
            texture,
            stream_base,
            stream_bits: 0,
            keep_output: false,
            prev_bbox: None,
            vop_window: m4ps_memsim::Counters::new(),
            pool: None,
            threads_hint: 0,
            sched: Scheduling::from_env(),
            slice_scratch: Vec::new(),
            parallel_fallbacks: 0,
            vol,
        })
    }

    /// Shares a persistent worker pool with this decoder and enables
    /// slice-parallel decode for multi-slice VOPs. Reconstruction and
    /// merged counters are bit-identical at any thread count: the slice
    /// partition, per-slice forks and charge windows depend only on the
    /// bitstream's slice count, never on which thread runs a slice.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.threads_hint = pool.threads();
        self.pool = Some(pool);
    }

    /// Enables slice-parallel decode on a lazily created `threads`-wide
    /// pool (0 restores the sequential path). Purely a scheduling knob:
    /// output is bit-identical across thread counts.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.min(256);
        self.threads_hint = threads;
        match (&self.pool, threads) {
            (Some(_), 0) => self.pool = None,
            (Some(p), t) if p.threads() != t => self.pool = None,
            _ => {}
        }
    }

    /// Selects how a VOP's slice work is decomposed onto the pool (see
    /// [`Scheduling`]). Output is bit-identical across modes.
    pub fn set_scheduling(&mut self, sched: Scheduling) {
        self.sched = sched;
    }

    /// The worker thread count slices are decoded on (0 = sequential).
    pub fn threads(&self) -> usize {
        match (&self.pool, self.threads_hint) {
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
        self.parallel_fallbacks
    }

    /// The pool to decode this VOP's slices on, creating the lazy pool
    /// on first use. `None` = sequential decode.
    fn parallel_pool(&mut self) -> Option<Arc<WorkerPool>> {
        if self.pool.is_none() && self.threads_hint > 0 {
            self.pool = Some(Arc::new(WorkerPool::new(self.threads_hint)));
        }
        self.pool.clone()
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

        let mut charge = StreamCharge::reader(self.stream_base + self.stream_bits / 8);

        // Shape first (DecodeVopCombMotionShapeTexture order).
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

        // Pick references and the reconstruction target.
        let ext_is_ref = ext.is_some() && header.kind == VopKind::P;
        let into_anchor = header.kind.is_anchor() && !ext_is_ref;
        let new_idx = if self.anchor_count == 0 {
            0
        } else {
            1 - self.latest
        };

        let pool = self.parallel_pool();
        let sched = self.sched;
        let stats = if header.kind == VopKind::B {
            let fwd = &self.anchors[1 - self.latest];
            let bwd = &self.anchors[self.latest];
            decode_vop_dispatch(
                mem,
                r,
                header,
                self.alpha.as_ref(),
                Some(fwd),
                Some(bwd),
                &mut self.b_recon,
                &mut self.texture,
                &mut self.slice_scratch,
                &mut self.parallel_fallbacks,
                &mut charge,
                bit_start,
                self.stream_base,
                self.mb_cols,
                self.mb_rows,
                pool.as_deref(),
                sched,
            )?
        } else if ext_is_ref {
            decode_vop_dispatch(
                mem,
                r,
                header,
                self.alpha.as_ref(),
                ext,
                None,
                &mut self.b_recon,
                &mut self.texture,
                &mut self.slice_scratch,
                &mut self.parallel_fallbacks,
                &mut charge,
                bit_start,
                self.stream_base,
                self.mb_cols,
                self.mb_rows,
                pool.as_deref(),
                sched,
            )?
        } else {
            // Anchor decode: target is the non-latest slot; a P-VOP
            // references the latest slot.
            let is_p = header.kind == VopKind::P;
            let (left, right) = self.anchors.split_at_mut(1);
            let (recon, fwd): (&mut TracedFrame, Option<&TracedFrame>) = if new_idx == 0 {
                (&mut left[0], is_p.then_some(&right[0] as &TracedFrame))
            } else {
                (&mut right[0], is_p.then_some(&left[0] as &TracedFrame))
            };
            decode_vop_dispatch(
                mem,
                r,
                header,
                self.alpha.as_ref(),
                fwd,
                None,
                recon,
                &mut self.texture,
                &mut self.slice_scratch,
                &mut self.parallel_fallbacks,
                &mut charge,
                bit_start,
                self.stream_base,
                self.mb_cols,
                self.mb_rows,
                pool.as_deref(),
                sched,
            )?
        };

        if into_anchor {
            if !self.vol.binary_shape {
                let recon = if new_idx == 0 {
                    &mut self.anchors[0]
                } else {
                    &mut self.anchors[1]
                };
                recon.pad_borders(mem);
            }
            self.latest = new_idx;
            self.anchor_count = (self.anchor_count + 1).min(2);
        }

        Ok((stats, ext_is_ref))
    }
}

/// Outcome of a parallel decode attempt.
enum ParallelOutcome {
    /// The VOP is not eligible (single slice, or a geometry error the
    /// sequential path will report) — decode sequentially, this was
    /// not a fallback.
    NotSliced,
    /// The attempt was abandoned (pre-scan miss, slice task error, or
    /// slice boundary mismatch). The parent model and reader are
    /// untouched; re-decode sequentially and count a fallback.
    Fallback,
    /// Parallel decode succeeded; the reader sits after the last
    /// macroblock, exactly where the sequential decoder would leave it.
    Done(VopStats),
}

/// Routes one VOP's macroblock layer to the slice-parallel path when a
/// pool is attached and the VOP is multi-slice, falling back to the
/// sequential decoder otherwise — or whenever the parallel attempt
/// aborts. The fallback re-decode starts from a saved reader clone and
/// overwrites every in-bbox macroblock, so its public result (including
/// concealment) is exactly the sequential decoder's on every input.
#[allow(clippy::too_many_arguments)]
fn decode_vop_dispatch<M: ParallelModel>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    header: &VopHeader,
    alpha: Option<&TracedPlane>,
    fwd: Option<&TracedFrame>,
    bwd: Option<&TracedFrame>,
    recon: &mut TracedFrame,
    texture: &mut TextureCoder,
    scratch: &mut Vec<SliceScratch>,
    fallbacks: &mut u64,
    charge: &mut StreamCharge,
    bit_start: u64,
    stream_base: u64,
    mb_cols: usize,
    mb_rows: usize,
    pool: Option<&WorkerPool>,
    sched: Scheduling,
) -> Result<VopStats, CodecError> {
    if let Some(pool) = pool {
        let saved = r.clone();
        match decode_vop_parallel(
            mem,
            r,
            header,
            alpha,
            fwd,
            bwd,
            recon,
            texture,
            scratch,
            charge,
            bit_start,
            stream_base,
            mb_cols,
            mb_rows,
            pool,
            sched,
        ) {
            ParallelOutcome::Done(stats) => return Ok(stats),
            ParallelOutcome::Fallback => {
                *fallbacks += 1;
                *r = saved;
            }
            ParallelOutcome::NotSliced => *r = saved,
        }
    }
    decode_vop_body(
        mem, r, header, alpha, fwd, bwd, recon, texture, charge, bit_start, mb_cols, mb_rows,
    )
}

/// Decodes a multi-slice VOP's macroblock layer on the pool: a cheap
/// untraced pre-scan locates every slice header (byte-aligned resync
/// marker carrying the slice's first macroblock index), then each slice
/// decodes as an independent task chain — cloned reader positioned at
/// its slice start, forked memory model, recycled [`SliceScratch`],
/// disjoint reconstruction row band, and a per-slice-index charge
/// window at `stream_base + (s+1) * SLICE_CHARGE_SPAN` — the exact
/// construction the parallel encoder uses, so reconstruction and
/// merged counters are bit-identical at any thread count.
///
/// The parallel path performs **no concealment**: any anomaly — a
/// slice header the pre-scan cannot locate, a slice task error (or
/// panic, caught at the task boundary), or a slice whose aligned end
/// does not meet the next slice's start — abandons the whole attempt
/// without absorbing any fork, and the caller re-decodes the VOP
/// sequentially. Each of those triggers is a pure function of the
/// bitstream, so the decision is identical at every thread count.
#[allow(clippy::too_many_arguments)]
fn decode_vop_parallel<M: ParallelModel>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    header: &VopHeader,
    alpha: Option<&TracedPlane>,
    fwd: Option<&TracedFrame>,
    bwd: Option<&TracedFrame>,
    recon: &mut TracedFrame,
    texture: &TextureCoder,
    scratch: &mut Vec<SliceScratch>,
    charge: &mut StreamCharge,
    bit_start: u64,
    stream_base: u64,
    mb_cols: usize,
    mb_rows: usize,
    pool: &WorkerPool,
    sched: Scheduling,
) -> ParallelOutcome {
    let (mbx_range, mby_range) = match header.bbox {
        Some((x0, y0, bw, bh)) => {
            if x0 + bw > mb_cols * 16 || y0 + bh > mb_rows * 16 {
                return ParallelOutcome::NotSliced;
            }
            (x0 / 16..(x0 + bw) / 16, y0 / 16..(y0 + bh) / 16)
        }
        None => (0..mb_cols, 0..mb_rows),
    };
    let slice_rows = partition_rows(mby_range.clone(), header.slices);
    if slice_rows.len() < 2 {
        return ParallelOutcome::NotSliced;
    }

    // Commit: consume the header segment's stuffing (slice 0 starts
    // byte-aligned) and charge it in the parent window — the decode
    // mirror of the encoder charging its aligned header segment.
    r.skip_stuffing();
    span!(
        mem,
        Phase::Parse,
        charge.charge_to(mem, r.bit_pos() - bit_start)
    );

    let Some(starts) = prescan_slice_starts(r, &slice_rows, mbx_range.len(), mby_range.start)
    else {
        return ParallelOutcome::Fallback;
    };

    while scratch.len() < slice_rows.len() {
        scratch.push(SliceScratch::new(texture, mb_cols));
    }

    let ctx = DecodeCtx {
        hdr: header,
        alpha,
        fwd,
        bwd,
        mbx_range: mbx_range.clone(),
        n_slices: slice_rows.len(),
    };
    let grain = sched.grain();
    let views = recon.split_mb_rows_mut(&slice_rows);
    let chains: Vec<DecodeChain<'_, M>> = slice_rows
        .iter()
        .cloned()
        .zip(views)
        .zip(scratch.iter_mut())
        .enumerate()
        .map(|(s, ((rows, view), sc))| {
            let first_mb = (rows.start - mby_range.start) * ctx.mbx_range.len();
            let mut sr = r.clone();
            sr.seek_to(starts[s]);
            DecodeChain {
                smem: mem.fork(),
                r: sr,
                view,
                scratch: sc,
                charge: StreamCharge::reader(stream_base + (s as u64 + 1) * SLICE_CHARGE_SPAN),
                stats: VopStats::default(),
                slice_index: s,
                slice_start: starts[s],
                next_row: rows.start,
                first_mb,
                mb_counter: first_mb,
                rows,
                grain,
            }
        })
        .collect();

    let slots = run_decode_chains(pool, &ctx, chains);

    let mut outs = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot
            .into_inner()
            .expect("decode slot lock")
            .expect("scope waits for every slice chain")
        {
            Ok(out) => outs.push(out),
            // A corrupt slice surfaces as a clean per-slice error; the
            // other slices completed independently. Drop every fork
            // unabsorbed and let the sequential re-decode conceal.
            Err(_) => return ParallelOutcome::Fallback,
        }
    }
    // Every slice must end, after consuming its alignment stuffing,
    // exactly at the next slice's header. By induction this proves each
    // task consumed precisely the bits the sequential decoder would.
    for s in 0..outs.len() - 1 {
        if outs[s].2 != starts[s + 1] {
            return ParallelOutcome::Fallback;
        }
    }

    let end_pos = outs.last().expect("at least two slices").1;
    let mut stats = VopStats::default();
    for (sstats, _end, _aligned, smem) in outs {
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

    if let Some(bbox) = header.bbox {
        fill_bbox_ring(mem, recon, bbox, mb_cols, mb_rows);
    }
    ParallelOutcome::Done(stats)
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
fn prescan_slice_starts(
    r: &BitReader<'_>,
    slice_rows: &[Range<usize>],
    mbx_len: usize,
    mby_start: usize,
) -> Option<Vec<u64>> {
    let mut starts = Vec::with_capacity(slice_rows.len());
    starts.push(r.bit_pos());
    let mut probe = r.clone();
    for rows in &slice_rows[1..] {
        let expected = (rows.start - mby_start) * mbx_len;
        loop {
            if !probe.scan_aligned_u16(RESYNC_MARKER) {
                return None;
            }
            let mut fields = probe.clone();
            let matches = (|| -> Result<bool, CodecError> {
                let idx = get_ue(&mut fields)? as usize;
                let _qp = fields.get_bits(5)?;
                Ok(idx == expected)
            })()
            .unwrap_or(false);
            if matches {
                starts.push(probe.bit_pos() - 16);
                break;
            }
            // A smaller index (in-slice marker) or a payload alias:
            // keep scanning forward.
        }
    }
    Some(starts)
}

/// Read-shared context for one VOP's decode slice tasks.
struct DecodeCtx<'a> {
    hdr: &'a VopHeader,
    alpha: Option<&'a TracedPlane>,
    fwd: Option<&'a TracedFrame>,
    bwd: Option<&'a TracedFrame>,
    mbx_range: Range<usize>,
    n_slices: usize,
}

/// Everything a decode slice's row chain carries from one task to the
/// next: the forked counter stream, the slice's reader clone and charge
/// window, its reconstruction band and recycled scratch, and the row
/// cursor. Moving the whole state along the chain pins determinism —
/// each fork sees exactly the access sequence the coarse slice job
/// produces, just cut into one task per `grain` rows.
struct DecodeChain<'a, M> {
    smem: M,
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
    rows: Range<usize>,
    next_row: usize,
    first_mb: usize,
    mb_counter: usize,
    grain: usize,
}

/// A finished decode slice: stats, reader end position (after the last
/// macroblock), aligned end position (after stuffing — must meet the
/// next slice's start), and the forked model to absorb.
type DecodeSliceOut<M> = (VopStats, u64, u64, M);

/// One slice's result slot: filled exactly once by its chain's final
/// task, drained by the coordinator in slice order.
type DecodeSlot<M> = Mutex<Option<Result<DecodeSliceOut<M>, CodecError>>>;

/// Spawns every chain's first task into one pool scope and returns the
/// per-slice result slots (in slice order) once all chains finished.
fn run_decode_chains<'a, M: ParallelModel + 'a>(
    pool: &WorkerPool,
    ctx: &DecodeCtx<'a>,
    mut chains: Vec<DecodeChain<'a, M>>,
) -> Vec<DecodeSlot<M>> {
    let slots: Vec<DecodeSlot<M>> = chains.iter().map(|_| Mutex::new(None)).collect();
    let session = m4ps_obs::current();
    pool.scope(session.as_ref(), |scope| {
        for (chain, slot) in chains.drain(..).zip(slots.iter()) {
            scope.spawn(move |s| decode_chain_step(chain, ctx, slot, s));
        }
    });
    slots
}

/// One task of a decode slice's row chain: validates the slice header
/// on the first task, decodes up to `grain` macroblock rows, then
/// either spawns the continuation or finalizes the slice into its
/// result slot. A panic anywhere in the slice body is caught at this
/// task boundary and surfaces as a clean per-slice error — the pool is
/// never poisoned and the other slices still decode.
fn decode_chain_step<'s, M: ParallelModel + 's>(
    mut st: DecodeChain<'s, M>,
    ctx: &'s DecodeCtx<'s>,
    slot: &'s DecodeSlot<M>,
    scope: &Scope<'s>,
) {
    // A *domain* span: this task charges the forked stream `st.smem`,
    // not the caller's model (the coordinator accounts for the fork via
    // `absorbed`). Spans are per task, so each worker's span stack
    // stays balanced; the per-pair deltas sum to the fork total.
    let obs_on = m4ps_obs::enabled();
    if obs_on {
        m4ps_obs::enter_domain(Phase::DecodeSlice, *st.smem.counters());
    }
    let body = |st: &mut DecodeChain<'s, M>| -> Result<(), CodecError> {
        if st.next_row == st.rows.start {
            if st.slice_index > 0 {
                // Slice header: the resync word, the index of the
                // slice's first macroblock, and the quantizer (whose
                // value the sequential decoder also ignores).
                let m = st.r.get_bits(16)?;
                let idx = get_ue(&mut st.r)? as usize;
                let _qp = st.r.get_bits(5)?;
                if m != u32::from(RESYNC_MARKER) || idx != st.first_mb {
                    return Err(CodecError::InvalidStream("slice header mismatch"));
                }
            }
            // Recycled predictors start from reset — the same state a
            // fresh `MvPredictor::new` carries.
            st.scratch.fwd_pred.reset();
            st.scratch.bwd_pred.reset();
        }
        let stop = st.next_row.saturating_add(st.grain).min(st.rows.end);
        while st.next_row < stop {
            decode_slice_row(st, ctx)?;
            st.next_row += 1;
        }
        Ok(())
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut st)))
        .unwrap_or(Err(CodecError::InvalidStream(
            "panic during parallel slice decode",
        )));
    match result {
        Err(e) => {
            if obs_on {
                m4ps_obs::exit_domain(Phase::DecodeSlice, *st.smem.counters());
            }
            *slot.lock().expect("decode slot lock") = Some(Err(e));
        }
        Ok(()) if st.next_row < st.rows.end => {
            if obs_on {
                m4ps_obs::exit_domain(Phase::DecodeSlice, *st.smem.counters());
            }
            scope.spawn(move |s| decode_chain_step(st, ctx, slot, s));
        }
        Ok(()) => {
            let end_pos = st.r.bit_pos();
            st.r.skip_stuffing();
            let aligned = st.r.bit_pos();
            // Charge the slice's trailing stuffing — sequentially those
            // bytes are swept up by the successor slice's first
            // macroblock charge. The LAST slice's stuffing is the one
            // tail the sequential decoder never touches (it stops right
            // after the final macroblock), so stop there too.
            let charge_end = if st.slice_index + 1 == ctx.n_slices {
                end_pos
            } else {
                aligned
            };
            st.charge
                .charge_to(&mut st.smem, charge_end - st.slice_start);
            if obs_on {
                m4ps_obs::exit_domain(Phase::DecodeSlice, *st.smem.counters());
            }
            *slot.lock().expect("decode slot lock") =
                Some(Ok((st.stats, end_pos, aligned, st.smem)));
        }
    }
}

/// Decodes one macroblock row of a slice on the clean path only: any
/// marker mismatch or macroblock error aborts the slice (no
/// concealment — the coordinator falls back to the sequential decoder,
/// which owns the error-resilience state machine).
fn decode_slice_row<M: ParallelModel>(
    st: &mut DecodeChain<'_, M>,
    ctx: &DecodeCtx<'_>,
) -> Result<(), CodecError> {
    let header = ctx.hdr;
    let qp = header.qp;
    let mby = st.next_row;
    let mem = &mut st.smem;
    let recon = &mut st.view;
    st.scratch.fwd_pred.start_row();
    st.scratch.bwd_pred.start_row();
    let mut ips = IntraPredState::reset();
    for mbx in ctx.mbx_range.clone() {
        if let Some(interval) = header.resync_interval {
            if st.mb_counter > st.first_mb && st.mb_counter.is_multiple_of(interval) {
                // Clean path: the expected marker, or abort.
                st.r.skip_stuffing();
                let m = st.r.get_bits(16)?;
                let idx = get_ue(&mut st.r)? as usize;
                let _qp = st.r.get_bits(5)?;
                if m != u32::from(RESYNC_MARKER) || idx != st.mb_counter {
                    return Err(CodecError::InvalidStream("resync marker mismatch"));
                }
                st.scratch.fwd_pred.reset();
                st.scratch.bwd_pred.reset();
                ips = IntraPredState::reset();
            }
        }
        st.mb_counter += 1;

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
            st.scratch.fwd_pred.commit(mbx, MotionVector::ZERO);
            st.scratch.bwd_pred.commit(mbx, MotionVector::ZERO);
            ips = IntraPredState::reset();
            continue;
        }
        st.scratch.texture.charge_mb_overhead(mem);

        match header.kind {
            VopKind::I => {
                decode_intra_mb(
                    mem,
                    &mut st.r,
                    recon,
                    &mut st.scratch.texture,
                    qp,
                    mbx,
                    mby,
                    &mut ips,
                )?;
                st.stats.intra_mbs += 1;
                st.scratch.fwd_pred.commit(mbx, MotionVector::ZERO);
            }
            VopKind::P => {
                let reference = ctx
                    .fwd
                    .ok_or(CodecError::InvalidStream("P-VOP without reference"))?;
                decode_p_mb(
                    mem,
                    &mut st.r,
                    reference,
                    recon,
                    &mut st.scratch.texture,
                    qp,
                    mbx,
                    mby,
                    &mut ips,
                    &mut st.scratch.fwd_pred,
                    &mut st.stats,
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
                    &mut st.r,
                    f,
                    b,
                    recon,
                    &mut st.scratch.texture,
                    qp,
                    mbx,
                    mby,
                    &mut st.scratch.fwd_pred,
                    &mut st.scratch.bwd_pred,
                    &mut st.stats,
                )?;
                ips = IntraPredState::reset();
            }
        }
        span!(
            mem,
            Phase::Parse,
            st.charge.charge_to(mem, st.r.bit_pos() - st.slice_start)
        );
    }
    Ok(())
}

/// Decodes the macroblock layer of one VOP (after shape).
#[allow(clippy::too_many_arguments)]
fn decode_vop_body<M: MemModel>(
    mem: &mut M,
    r: &mut BitReader<'_>,
    header: &VopHeader,
    alpha: Option<&TracedPlane>,
    fwd: Option<&TracedFrame>,
    bwd: Option<&TracedFrame>,
    recon: &mut TracedFrame,
    texture: &mut TextureCoder,
    charge: &mut StreamCharge,
    bit_start: u64,
    mb_cols: usize,
    mb_rows: usize,
) -> Result<VopStats, CodecError> {
    let mut stats = VopStats::default();
    let qp = header.qp;

    let (mbx_range, mby_range) = match header.bbox {
        Some((x0, y0, bw, bh)) => {
            if x0 + bw > mb_cols * 16 || y0 + bh > mb_rows * 16 {
                return Err(CodecError::InvalidStream("bounding box out of frame"));
            }
            (x0 / 16..(x0 + bw) / 16, y0 / 16..(y0 + bh) / 16)
        }
        None => (0..mb_cols, 0..mb_rows),
    };

    let slice_rows = partition_rows(mby_range.clone(), header.slices);
    let multi = slice_rows.len() > 1;
    if multi {
        // The sliced layout byte-aligns the header segment; consume the
        // stuffing so slice 0 starts on its byte boundary.
        r.skip_stuffing();
    }

    let mut fwd_pred = MvPredictor::new(mb_cols);
    let mut bwd_pred = MvPredictor::new(mb_cols);
    let total_mbs = mbx_range.len() * mby_range.len();
    // `Some(target)` while concealing up to (but excluding) macroblock
    // `target`; `usize::MAX` conceals to the end of the VOP.
    let mut conceal_until: Option<usize> = None;

    for (si, srows) in slice_rows.into_iter().enumerate() {
        let slice_first_mb = (srows.start - mby_range.start) * mbx_range.len();
        let mut mb_counter = slice_first_mb;
        if si > 0 {
            match conceal_until {
                None => {
                    // Slice header: stuffing, the resync word, the
                    // slice's first macroblock index, the quantizer.
                    let ok = (|| -> Result<bool, CodecError> {
                        r.skip_stuffing();
                        let m = r.get_bits(16)?;
                        let idx = get_ue(r)? as usize;
                        let _qp = r.get_bits(5)?;
                        Ok(m == u32::from(crate::encoder::RESYNC_MARKER) && idx == slice_first_mb)
                    })()
                    .unwrap_or(false);
                    if !ok {
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
        fwd_pred.reset();
        bwd_pred.reset();

        for mby in srows {
            fwd_pred.start_row();
            bwd_pred.start_row();
            let mut ips = IntraPredState::reset();
            for mbx in mbx_range.clone() {
                // Resynchronization-marker boundary handling.
                if let Some(interval) = header.resync_interval {
                    if mb_counter > slice_first_mb && mb_counter % interval == 0 {
                        match conceal_until {
                            None => {
                                // Clean path: consume the expected marker.
                                let ok = (|| -> Result<bool, CodecError> {
                                    r.skip_stuffing();
                                    let m = r.get_bits(16)?;
                                    let idx = get_ue(r)? as usize;
                                    let _qp = r.get_bits(5)?;
                                    Ok(m == u32::from(crate::encoder::RESYNC_MARKER)
                                        && idx == mb_counter)
                                })()
                                .unwrap_or(false);
                                if ok {
                                    fwd_pred.reset();
                                    bwd_pred.reset();
                                    ips = IntraPredState::reset();
                                } else {
                                    conceal_until =
                                        Some(scan_to_marker(r, mb_counter, total_mbs, interval));
                                }
                            }
                            Some(target) if mb_counter >= target => {
                                // Resumption point: the scan already consumed
                                // the marker header.
                                conceal_until = None;
                                fwd_pred.reset();
                                bwd_pred.reset();
                                ips = IntraPredState::reset();
                            }
                            Some(_) => {}
                        }
                    }
                }
                let counter = mb_counter;
                mb_counter += 1;

                let transparent = match alpha {
                    Some(a) => span!(
                        mem,
                        Phase::Shape,
                        classify_bab(mem, a, mbx, mby) == BabClass::Transparent
                    ),
                    None => false,
                };
                if transparent {
                    stats.transparent_mbs += 1;
                    fill_grey_mb(mem, recon, mbx, mby);
                    fwd_pred.commit(mbx, MotionVector::ZERO);
                    bwd_pred.commit(mbx, MotionVector::ZERO);
                    ips = IntraPredState::reset();
                    continue;
                }
                texture.charge_mb_overhead(mem);

                if conceal_until.is_some() {
                    conceal_mb(mem, fwd, recon, texture, mbx, mby);
                    stats.concealed_mbs += 1;
                    fwd_pred.commit(mbx, MotionVector::ZERO);
                    bwd_pred.commit(mbx, MotionVector::ZERO);
                    ips = IntraPredState::reset();
                    continue;
                }

                let result = (|| -> Result<(), CodecError> {
                    match header.kind {
                        VopKind::I => {
                            decode_intra_mb(mem, r, recon, texture, qp, mbx, mby, &mut ips)?;
                            stats.intra_mbs += 1;
                            fwd_pred.commit(mbx, MotionVector::ZERO);
                        }
                        VopKind::P => {
                            let reference =
                                fwd.ok_or(CodecError::InvalidStream("P-VOP without reference"))?;
                            decode_p_mb(
                                mem,
                                r,
                                reference,
                                recon,
                                texture,
                                qp,
                                mbx,
                                mby,
                                &mut ips,
                                &mut fwd_pred,
                                &mut stats,
                            )?;
                        }
                        VopKind::B => {
                            let f =
                                fwd.ok_or(CodecError::InvalidStream("B-VOP without fwd ref"))?;
                            let b =
                                bwd.ok_or(CodecError::InvalidStream("B-VOP without bwd ref"))?;
                            decode_b_mb(
                                mem,
                                r,
                                f,
                                b,
                                recon,
                                texture,
                                qp,
                                mbx,
                                mby,
                                &mut fwd_pred,
                                &mut bwd_pred,
                                &mut stats,
                            )?;
                            ips = IntraPredState::reset();
                        }
                    }
                    Ok(())
                })();
                match result {
                    Ok(()) => {}
                    Err(e) => {
                        let Some(interval) = header.resync_interval else {
                            return Err(e);
                        };
                        // Error resilience: conceal this macroblock and
                        // everything up to the next valid marker.
                        conceal_until = Some(scan_to_marker(r, counter, total_mbs, interval));
                        conceal_mb(mem, fwd, recon, texture, mbx, mby);
                        stats.concealed_mbs += 1;
                        fwd_pred.commit(mbx, MotionVector::ZERO);
                        bwd_pred.commit(mbx, MotionVector::ZERO);
                        ips = IntraPredState::reset();
                    }
                }
                span!(
                    mem,
                    Phase::Parse,
                    charge.charge_to(mem, r.bit_pos().max(bit_start) - bit_start)
                );
            }
        }
    }

    if let Some(bbox) = header.bbox {
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
        if !r.scan_aligned_u16(crate::encoder::RESYNC_MARKER) {
            return usize::MAX;
        }
        let mut probe = r.clone();
        let parsed = (|| -> Result<usize, CodecError> {
            let idx = get_ue(&mut probe)? as usize;
            let _qp = probe.get_bits(5)?;
            Ok(idx)
        })();
        if let Ok(idx) = parsed {
            if idx > after && idx < total_mbs && idx % interval == 0 {
                *r = probe;
                return idx;
            }
        }
        // False positive inside payload: keep scanning after the match.
    }
}

/// Conceals one macroblock: zero-motion copy from the forward reference
/// when one exists, mid-grey otherwise.
fn conceal_mb<M: MemModel, F: FrameSink>(
    mem: &mut M,
    fwd: Option<&TracedFrame>,
    recon: &mut F,
    texture: &TextureCoder,
    mbx: usize,
    mby: usize,
) {
    match fwd {
        Some(reference) => {
            let (py, pu, pv) = predict_mb(mem, reference, texture, MotionVector::ZERO, mbx, mby);
            store_prediction(mem, recon, texture, &py, &pu, &pv, mbx, mby);
        }
        None => fill_grey_mb(mem, recon, mbx, mby),
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

/// Builds the three prediction buffers for an inter MB.
fn predict_mb<M: MemModel>(
    mem: &mut M,
    reference: &TracedFrame,
    texture: &TextureCoder,
    mv: MotionVector,
    mbx: usize,
    mby: usize,
) -> ([u8; 256], [u8; 64], [u8; 64]) {
    span!(mem, Phase::McPredict, {
        let mut pred_y = [0u8; 256];
        motion_compensate_block(
            mem,
            &reference.y,
            mv,
            (mbx * 16) as isize,
            (mby * 16) as isize,
            16,
            16,
            &mut pred_y,
        );
        let cmv = chroma_mv(mv);
        let mut pred_u = [0u8; 64];
        let mut pred_v = [0u8; 64];
        motion_compensate_block(
            mem,
            &reference.u,
            cmv,
            (mbx * 8) as isize,
            (mby * 8) as isize,
            8,
            8,
            &mut pred_u,
        );
        motion_compensate_block(
            mem,
            &reference.v,
            cmv,
            (mbx * 8) as isize,
            (mby * 8) as isize,
            8,
            8,
            &mut pred_v,
        );
        texture.charge_pred_store(mem, 384);
        (pred_y, pred_u, pred_v)
    })
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
