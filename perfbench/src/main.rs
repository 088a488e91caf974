//! The m4ps benchmark: closed-loop workloads driven through the
//! workspace's public crate APIs, timed from outside.
//!
//! ```text
//! m4ps-perfbench --workload paper_encode|serve_mix \
//!     --seed N --seconds S --trace 0|1 [--revision REV] [--write-reference]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! workload through a counting memory model and `NullModel` to split
//! the time by layer. Every run checks its outputs. The last line of
//! standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); the lines before it are a readable report with
//! each metric's unit and sample count. `perfbench/README.md` describes
//! the workloads and metrics; `perfbench/run.py` builds and runs this
//! binary with a pinned environment.

mod check;
mod counting;
mod hostspeed;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

/// Environment variables the studies, pools and decoders read. A stray
/// one changes the program being measured, so the benchmark refuses to
/// run while any is set (`run.py` clears them).
const PINNED_ENV: [&str; 6] = [
    "M4PS_THREADS",
    "M4PS_DECODE_THREADS",
    "M4PS_SCHED",
    "M4PS_KERNELS",
    "M4PS_TRACE",
    "M4PS_OBS_DUMP",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperEncode,
    ServeMix,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper_encode" => Some(Kind::PaperEncode),
            "serve_mix" => Some(Kind::ServeMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperEncode => "paper_encode",
            Kind::ServeMix => "serve_mix",
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub revision: String,
    /// Store this run's output fingerprint as the reference (only with
    /// the reference seed).
    pub write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut revision = "unknown".to_string();
    let mut write_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value}: must be in (0, 120]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            "--revision" => revision = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        revision,
        write_reference,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
    /// How it was measured, for the readable report.
    pub note: String,
}

impl Metric {
    fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: note.into(),
        }
    }
}

/// Everything a run reports: operations, failures and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Metrics for the readable report only.
    pub info: Vec<Metric>,
}

impl Report {
    /// Records one attempted operation; it failed if it has violations.
    pub fn op(&mut self, violations: Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            self.errors.extend(violations);
        }
    }

    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.metrics
            .push(Metric::new(name, value, unit, samples, note));
    }

    /// Like [`Report::metric`], for the readable report only.
    pub fn info(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.info
            .push(Metric::new(name, value, unit, samples, note));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// One JSON line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A finite number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (which fail the run) print as 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("m4ps-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stray: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !stray.is_empty() {
        eprintln!(
            "m4ps-perfbench: refusing to run with {} set; they change the program being measured",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# meta workload={} trace={} seed={} reference_seed={} kernel_tier={} nproc={} revision={}",
        args.kind.name(),
        u8::from(args.trace),
        args.seed,
        check::REFERENCE_SEED,
        m4ps_dsp::active_tier().name(),
        nproc,
        args.revision
    );
    let report = if args.trace {
        traced::run(&args)
    } else {
        workloads::run(&args)
    };
    for e in &report.errors {
        println!("# FAILED {e}");
    }
    println!(
        "# {:<26} {:>14} {:<6} {:>7}  how",
        "metric", "value", "unit", "samples"
    );
    for m in report.metrics.iter().chain(&report.info) {
        println!(
            "# {:<26} {:>14.6} {:<6} {:>7}  {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    println!(
        "# error_rate {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
