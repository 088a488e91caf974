//! Line planning for the two-pass block sweep of
//! [`Hierarchy::access_block_sweep`](crate::Hierarchy) (DESIGN.md §11).
//!
//! A motion search re-reads the same few lines hundreds of times: ±8
//! full search charges 289 candidates × up to 16 rows × 2 spans but
//! touches only ~100 distinct L1 lines. [`SweepLines`] names each line
//! once per row that reads it and orders them by first or by last
//! touch, without walking the rows. Rows of the reference window whose
//! first byte sits at the same offset within a line ("phase") split
//! into identical line columns, so each (phase, column) slot keeps one
//! `u64` mask of the window rows already seen, and a candidate — a
//! contiguous run of rows — updates each slot it covers with one mask
//! operation. At a 752-byte stride and 32-byte lines there are two
//! phases.

use crate::model::{RectSpan, SweepCandidate, SweepWindow};

/// Most rows a planned window may span: one `u64` row mask per slot.
const MAX_ROWS: usize = 64;
/// Most distinct lines a planned sweep may read.
pub(crate) const MAX_LINES: usize = 512;
/// Most (phase, line column) slots of the reference window.
const MAX_SLOTS: usize = 256;

/// The L1 lines of one sweep, one per (row, column) cell, named by
/// sortable touch keys.
///
/// A key packs, from the most significant field down, the candidate
/// index, the row within the candidate, the side (0 = block, 1 =
/// reference), the block or window row and the line column within that
/// row. Every row of the stream is charged block before reference and
/// left to right, so ascending keys are ascending stream order, and the
/// row and column fields name the line (see [`SweepLines::line_addr`]).
pub(crate) struct SweepLines {
    line_shift: u32,
    /// Line number of the first byte of each block row.
    block_line: [u64; MAX_ROWS],
    /// Line number of the last byte of each block row.
    block_last: [u64; MAX_ROWS],
    /// Line number of the first byte of each reference window row.
    window_line: [u64; MAX_ROWS],
    /// Offset within its line of each phase's first window byte.
    phase: [u64; MAX_ROWS],
    /// Window rows (bit `y` = row `top + y`) starting at each phase.
    phase_rows: [u64; MAX_ROWS],
    phases: usize,
    /// Line columns per phase.
    cols: usize,
    /// The window's first row, as a displacement.
    top: i32,
    dx_min: i8,
    ref_row_bytes: u64,
}

impl SweepLines {
    /// Plans the lines of a sweep whose block and window (the
    /// candidates of `window`) are at most 64 rows each and whose
    /// addresses never saturate. `None` when either fails or the fixed
    /// scratch is too small; the caller then charges row by row.
    ///
    /// Each (row, column) cell is named once, but two cells may name one
    /// line: rows closer than a line, or a block overlapping the window.
    /// Such a line is probed once per cell in each pass; every probe
    /// after its first is a hit on a line the sweep already touched,
    /// which moves no line the sweep has not touched, so the passes stay
    /// exact, and the per-set bound only over-counts it.
    pub(crate) fn new(
        block: RectSpan,
        reference: RectSpan,
        window: &SweepWindow,
        line_shift: u32,
    ) -> Option<SweepLines> {
        let line = 1u64 << line_shift;
        let height = usize::try_from(window.bottom - window.top).ok()?;
        let block_rows = usize::from(window.max_rows);
        if height > MAX_ROWS || block_rows > MAX_ROWS {
            return None;
        }
        let (block_bytes, ref_bytes) = (block.row_bytes.max(1), reference.row_bytes.max(1));
        let wide = |x: u64| i128::from(x);
        let width = i128::from(window.dx_max) - i128::from(window.dx_min) + wide(ref_bytes);
        let first = wide(reference.addr)
            + i128::from(window.dx_min)
            + i128::from(window.top) * wide(reference.stride);
        let last = first + (height as i128 - 1) * wide(reference.stride) + width - 1;
        let block_end =
            wide(block.addr) + (block_rows as i128 - 1) * wide(block.stride) + wide(block_bytes)
                - 1;
        let top_addr = wide(u64::MAX);
        if first < 0 || last > top_addr || block_end > top_addr {
            return None;
        }
        let line_cols = |bytes: i128| (wide(line) - 1 + bytes - 1) / wide(line) + 1;
        let cols = line_cols(width);
        if cols > MAX_SLOTS as i128 || line_cols(wide(block_bytes)) > 256 {
            return None;
        }
        let first = first as u64;
        let cols = cols as usize;
        let mut plan = SweepLines {
            line_shift,
            block_line: [0; MAX_ROWS],
            block_last: [0; MAX_ROWS],
            window_line: [0; MAX_ROWS],
            phase: [0; MAX_ROWS],
            phase_rows: [0; MAX_ROWS],
            phases: 0,
            cols,
            top: window.top,
            dx_min: window.dx_min,
            ref_row_bytes: ref_bytes,
        };
        for r in 0..block_rows {
            let a = block.addr + r as u64 * block.stride;
            plan.block_line[r] = a >> line_shift;
            plan.block_last[r] = (a + block_bytes - 1) >> line_shift;
        }
        for y in 0..height {
            let a = first + y as u64 * reference.stride;
            plan.window_line[y] = a >> line_shift;
            let phase = a & (line - 1);
            let p = match plan.phase[..plan.phases].iter().position(|&q| q == phase) {
                Some(p) => p,
                None => {
                    if (plan.phases + 1) * cols > MAX_SLOTS {
                        return None;
                    }
                    plan.phase[plan.phases] = phase;
                    plan.phases += 1;
                    plan.phases - 1
                }
            };
            plan.phase_rows[p] |= 1 << y;
        }
        Some(plan)
    }

    /// Writes one key per distinct line of the sweep into `keys`, at
    /// the line's first touch (`last == false`) or its last touch
    /// (`last == true`), sorted into stream order. Returns the number of
    /// lines, or `None` when there are more than [`MAX_LINES`] or more
    /// than `u32::MAX` candidates.
    pub(crate) fn touch_order(
        &self,
        cands: &[SweepCandidate],
        last: bool,
        keys: &mut [u64; MAX_LINES],
    ) -> Option<usize> {
        u32::try_from(cands.len()).ok()?;
        let mut seen = [0u64; MAX_SLOTS];
        let mut block_rows = 0u8;
        let mut n = 0;
        let mut push = |key: u64| {
            *keys.get_mut(n)? = key;
            n += 1;
            Some(())
        };
        let ls = self.line_shift;
        let phases = self.phase[..self.phases].iter().zip(&self.phase_rows);
        for j in 0..cands.len() {
            // Scanning backwards, a line's first sighting is its last touch.
            let i = if last { cands.len() - 1 - j } else { j };
            let c = cands[i];
            if c.rows == 0 {
                continue;
            }
            let cand = (i as u64) << 32;
            for r in block_rows..c.rows {
                let r = usize::from(r);
                for col in 0..=self.block_last[r] - self.block_line[r] {
                    push(cand | (r as u64) << 24 | (r as u64) << 8 | col)?;
                }
            }
            block_rows = block_rows.max(c.rows);
            let y0 = (i32::from(c.dy) - self.top) as u32;
            let rows = (u64::MAX >> (64 - u32::from(c.rows))) << y0;
            let x0 = (i16::from(c.dx) - i16::from(self.dx_min)) as u64;
            for (p, (&phase, &phase_rows)) in phases.clone().enumerate() {
                let in_phase = rows & phase_rows;
                let lo = (phase + x0) >> ls;
                let end = ((phase + x0 + self.ref_row_bytes - 1) >> ls) + 1;
                for col in lo..end {
                    let slot = &mut seen[p * self.cols + col as usize];
                    let mut fresh = in_phase & !*slot;
                    if fresh == 0 {
                        continue;
                    }
                    *slot |= fresh;
                    while fresh != 0 {
                        let y = u64::from(fresh.trailing_zeros());
                        fresh &= fresh - 1;
                        let r = y - u64::from(y0);
                        push(cand | r << 24 | 1 << 23 | y << 8 | col)?;
                    }
                }
            }
        }
        // Keys come out grouped by candidate in scan order, so only a
        // candidate's own few keys can be out of order: an insertion
        // sort is linear here.
        let keys = &mut keys[..n];
        if last {
            keys.reverse();
        }
        for i in 1..keys.len() {
            let key = keys[i];
            let mut j = i;
            while j > 0 && keys[j - 1] > key {
                keys[j] = keys[j - 1];
                j -= 1;
            }
            keys[j] = key;
        }
        Some(n)
    }

    /// Address of the line a touch key names.
    pub(crate) fn line_addr(&self, key: u64) -> u64 {
        let row = ((key >> 8) & 0x7fff) as usize;
        let first = if key & (1 << 23) == 0 {
            self.block_line[row]
        } else {
            self.window_line[row]
        };
        (first + (key & 0xff)) << self.line_shift
    }
}
