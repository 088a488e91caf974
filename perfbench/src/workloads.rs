//! The workloads and their untraced (end-to-end) runs.
//!
//! Each run repeats the workload's unit of work until `--seconds` have
//! passed, each repetition on a fresh set-up of its inputs from the
//! seed, checking every repetition's outputs. The median set-up time is
//! reported as `setup_s`. A host-speed probe runs after each
//! repetition, and every time metric is reported at the probe's nominal
//! host speed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use m4ps_codec::{CodecError, EncoderConfig};
use m4ps_core::{encode_study, RunResult, StudyConfig, Workload};
use m4ps_memsim::{AddressSpace, Hierarchy, MachineSpec, NullModel};
use m4ps_obs::{Dump, EventKind};
use m4ps_pool::WorkerPool;
use m4ps_serve::{
    Service, ServiceConfig, ServiceReport, Session, SessionMode, SessionSpec, SessionStatus,
};
use m4ps_vidgen::{Resolution, Scene, SceneSpec};

use crate::check;
use crate::hostspeed::{HostProbe, NOMINAL_UNIT_S};
use crate::stats::{self, Fnv};
use crate::{Args, Kind, Report};

/// Frames per paper_encode study pass: one I-B-B-P group.
pub const ENCODE_FRAMES: usize = 4;
/// Sessions per serve_mix batch (half encode, half decode replays).
pub const SERVE_SESSIONS: usize = 8;
/// Frames per serve_mix session.
pub const SERVE_FRAMES: usize = 12;
/// Set-up runs at least this often; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Untimed repetitions run for at least this long first: a fresh
/// process's first serve batches run at half speed.
const WARM_UP: Duration = Duration::from_secs(2);

pub fn encode_workload(seed: u64) -> Workload {
    Workload {
        seed: stats::mix(seed),
        ..Workload::single(Resolution::PAL, ENCODE_FRAMES)
    }
}

/// Digest of the frames and alpha planes `w` makes from its seed.
pub fn input_digest(w: &Workload) -> u64 {
    let scene = Scene::new(SceneSpec {
        resolution: w.resolution,
        objects: w.objects.max(1),
        seed: w.seed,
    });
    let mut h = Fnv::new();
    for t in 0..w.frames {
        let f = scene.frame(t);
        for plane in [&f.y, &f.u, &f.v] {
            h.bytes(plane);
        }
        for vo in 0..w.objects {
            h.bytes(&scene.alpha(t, vo).data);
        }
    }
    h.finish()
}

/// serve_mix sessions for `seed`: QCIF, two slices each, odd ones
/// replaying streams pre-encoded here.
pub fn serve_specs(seed: u64) -> Result<Vec<SessionSpec>, CodecError> {
    (0..SERVE_SESSIONS)
        .map(|i| {
            let spec = SessionSpec {
                width: 176,
                height: 144,
                frames: SERVE_FRAMES,
                objects: 0,
                layers: 1,
                seed: stats::mix(seed.wrapping_mul(64).wrapping_add(i as u64)),
                weight: 1,
                encoder: EncoderConfig::fast_test().with_slices(2),
                mode: SessionMode::Encode,
            };
            if i % 2 == 1 {
                spec.into_decode()
            } else {
                Ok(spec)
            }
        })
        .collect()
}

/// A service with one worker per core, admission off, and the
/// service's default flight-recorder capacity, which holds a batch's
/// events. Each batch gets a fresh service, as a `m4ps-loadgen` run
/// does: the recorder keeps the rings of finished driver threads, so a
/// long-lived service's memory would grow with the batches run.
pub fn serve_service() -> Service {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Service::new(ServiceConfig {
        threads,
        ..ServiceConfig::default()
    })
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Repeats `rep` until `seconds` have passed (at least once).
pub fn repeat_for(seconds: Duration, mut rep: impl FnMut()) {
    let start = Instant::now();
    loop {
        rep();
        if start.elapsed() >= seconds {
            break;
        }
    }
}

/// What [`measure`] leaves: the last set-up, the timed set-ups' times
/// and the host probe run between repetitions.
struct Measured<T> {
    inputs: T,
    setup_times: Vec<f64>,
    probe: HostProbe,
}

/// Runs warm-up repetitions for [`WARM_UP`] (at least one), whose
/// outputs are checked but not timed, then repeats `rep` until
/// `seconds` have passed (at least once), each time on a fresh `setup`
/// whose time is recorded, so set-up is sampled across the whole run as
/// the host's speed drifts. At least [`SETUP_REPS`] set-ups are timed.
/// The host probe runs after each timed repetition. `rep` is told
/// whether it is timed and returns one list of violations per operation
/// it attempted. `None` if a set-up failed.
fn measure<T, E>(
    seconds: Duration,
    mut setup: impl FnMut() -> Result<T, E>,
    mut rep: impl FnMut(&T, bool) -> Vec<Vec<String>>,
    report: &mut Report,
) -> Option<Measured<T>>
where
    E: std::fmt::Debug,
{
    let mut probe = HostProbe::new();
    let mut times = Vec::new();
    let warm_up = Instant::now();
    let mut start = None;
    loop {
        let (inputs, t) = timed(&mut setup);
        let inputs = match inputs {
            Ok(i) => i,
            Err(e) => {
                report.op(vec![format!("set-up failed: {e:?}")]);
                return None;
            }
        };
        let Some(start) = start else {
            for violations in rep(&inputs, false) {
                report.op(violations);
            }
            if warm_up.elapsed() >= WARM_UP {
                start = Some(Instant::now());
            }
            continue;
        };
        times.push(t);
        if times.len() == 1 || start.elapsed() < seconds {
            let (checked, secs) = timed(|| rep(&inputs, true));
            for violations in checked {
                report.op(violations);
            }
            probe.after(secs);
        }
        if start.elapsed() >= seconds && times.len() >= SETUP_REPS {
            return Some(Measured {
                inputs,
                setup_times: times,
                probe,
            });
        }
    }
}

pub fn run(args: &Args) -> Report {
    match args.kind {
        Kind::PaperEncode => paper(args),
        Kind::ServeMix => serve(args),
    }
}

/// One study pass per machine, as the paper's tables run them.
pub fn study_passes(w: &Workload) -> Vec<(f64, Result<RunResult, CodecError>)> {
    let cfg = StudyConfig::paper();
    MachineSpec::study_machines()
        .iter()
        .map(|m| {
            let (r, secs) = timed(|| encode_study(m, w, &cfg));
            (secs, r)
        })
        .collect()
}

/// Inputs of paper_encode: the workload and its input digest.
pub fn paper_inputs(seed: u64) -> (Workload, u64) {
    let w = encode_workload(seed);
    let digest = input_digest(&w);
    (w, digest)
}

/// Checks one set of study passes; returns the runs that completed and
/// the violations.
pub fn check_passes(
    w: &Workload,
    passes: Vec<(f64, Result<RunResult, CodecError>)>,
) -> (Vec<RunResult>, Vec<String>) {
    let mut errors = Vec::new();
    let mut runs = Vec::new();
    for (_, r) in passes {
        match r {
            Ok(run) => runs.push(run),
            Err(e) => errors.push(format!("study pass failed: {e:?}")),
        }
    }
    errors.extend(check::same_architectural_work(&runs));
    let vops = (w.frames * w.objects.max(1)) as u64;
    for r in &runs {
        let label = r.machine.column_label();
        if r.session.vops != vops {
            errors.push(format!(
                "{label}: {} VOPs coded, expected {vops}",
                r.session.vops
            ));
        }
        if r.session.bytes == 0 {
            errors.push(format!("{label}: empty bitstream"));
        }
    }
    (runs, errors)
}

fn paper(args: &Args) -> Report {
    let mut report = Report::default();
    let (w, digest) = paper_inputs(args.seed);
    println!(
        "# inputs {}x{} frames={} objects={} input_fnv={digest:016x}",
        w.resolution.width, w.resolution.height, w.frames, w.objects
    );

    let mut rep_secs = Vec::new();
    let mut pass_ms_per_frame = Vec::new();
    let mut first: Option<check::Fingerprint> = None;
    let machines = MachineSpec::study_machines().len();
    let measured = measure(
        args.seconds,
        || Ok::<_, CodecError>(paper_inputs(args.seed)),
        |(w, _), timed_rep| {
            let passes = study_passes(w);
            let secs: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
            let (runs, mut errors) = check_passes(w, passes);
            let fp = check::study_fingerprint(&runs);
            match &first {
                None => first = Some(fp),
                Some(f) if *f != fp => errors.push("outputs changed between repetitions".into()),
                Some(_) => {}
            }
            if timed_rep {
                for s in &secs {
                    pass_ms_per_frame.push(s * 1e3 / w.frames as f64);
                }
                rep_secs.push(secs.iter().sum::<f64>());
            }
            vec![errors]
        },
        &mut report,
    );
    let Some(Measured {
        setup_times, probe, ..
    }) = measured
    else {
        return report;
    };
    let fp = first.expect("at least one repetition");
    reference_check(
        &mut report,
        args.kind,
        args.seed,
        fp,
        || {
            let (w, _) = paper_inputs(check::REFERENCE_SEED);
            let (runs, errors) = check_passes(&w, study_passes(&w));
            if errors.is_empty() {
                Ok(check::study_fingerprint(&runs))
            } else {
                Err(errors.join("; "))
            }
        },
        args.write_reference,
    );

    let frames_per_rep = (w.frames * machines) as f64;
    let fps: Vec<f64> = rep_secs.iter().map(|s| frames_per_rep / s).collect();
    println!("# repetitions frames_per_s: {}", samples_line(&fps));
    let reps = rep_secs.len();
    let secs: f64 = rep_secs.iter().sum();
    let host = Nominal::new(&mut report, &probe);
    setup_metric(
        &mut report,
        &host,
        &setup_times,
        "inputs from the seed and their digest",
    );
    host.put(
        &mut report,
        "frames_per_s",
        frames_per_rep * reps as f64 / secs,
        "1/s",
        reps,
        format!(
            "frames over study time, {reps} repetitions of {machines} machine passes x {} frames",
            w.frames
        ),
    );
    host.put(
        &mut report,
        "sessions_per_s",
        (machines * reps) as f64 / secs,
        "1/s",
        reps,
        "study passes (one machine's table column each) over study time; frames_per_s / frames",
    );
    host.put(
        &mut report,
        "frame_p50_ms",
        stats::median(&pass_ms_per_frame),
        "ms",
        pass_ms_per_frame.len(),
        "median per-frame host time of a study pass",
    );
    tail_info(
        &mut report,
        &pass_ms_per_frame,
        "per-frame host time of a study pass",
    );
    rss_metric(&mut report, &probe);
    report
}

/// Reports host time at the nominal host speed of [`HostProbe`]:
/// durations divided by the probe's slowdown, rates (unit `1/s`)
/// multiplied by it. Each host-time value goes on the readable report
/// as `<name>.host`.
struct Nominal {
    slowdown: f64,
}

impl Nominal {
    fn new(report: &mut Report, probe: &HostProbe) -> Self {
        let slowdown = probe.slowdown();
        report.info(
            "host.slowdown",
            slowdown,
            "ratio",
            probe.units() as usize,
            format!(
                "host probe's mean unit time over its nominal {:.1} ms",
                NOMINAL_UNIT_S * 1e3
            ),
        );
        Nominal { slowdown }
    }

    fn put(
        &self,
        report: &mut Report,
        name: &str,
        host: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        let nominal = if unit == "1/s" {
            host * self.slowdown
        } else {
            host / self.slowdown
        };
        let note = note.into();
        report.metric(
            name,
            nominal,
            unit,
            samples,
            format!("{note}; at nominal host speed"),
        );
        report.info(
            format!("{name}.host"),
            host,
            unit,
            samples,
            format!("{note}; host time"),
        );
    }
}

fn setup_metric(report: &mut Report, host: &Nominal, times: &[f64], what: &str) {
    println!("# repetitions setup_s: {}", samples_line(times));
    host.put(
        report,
        "setup_s",
        stats::median(times),
        "s",
        times.len(),
        format!("median set-up, a fresh one for each repetition: {what}"),
    );
}

/// Compares a run's outputs with the stored reference: directly when
/// the run used the reference seed, otherwise by computing the
/// reference seed's outputs once more after the timed part.
fn reference_check(
    report: &mut Report,
    kind: Kind,
    seed: u64,
    fingerprint: check::Fingerprint,
    reference_outputs: impl FnOnce() -> Result<check::Fingerprint, String>,
    write: bool,
) {
    let fp = if seed == check::REFERENCE_SEED {
        Ok(fingerprint)
    } else {
        reference_outputs()
    };
    let violations = match fp {
        Err(e) => vec![format!("reference-seed run failed: {e}")],
        Ok(fp) if write => {
            if seed != check::REFERENCE_SEED {
                vec![format!(
                    "--write-reference needs --seed {}",
                    check::REFERENCE_SEED
                )]
            } else {
                match check::write_reference(kind, fp) {
                    Ok(()) => Vec::new(),
                    Err(e) => vec![format!("writing reference.json: {e}")],
                }
            }
        }
        Ok(fp) => check::against_reference(kind, &fp),
    };
    report.op(violations);
}

/// Per-repetition values in run order, for spotting drift within a run.
fn samples_line(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The program's memory high-water mark: this process's `VmHWM` less
/// the host probe's table, which stays resident from before the first
/// repetition to the end, so every peak includes it.
fn rss_metric(report: &mut Report, probe: &HostProbe) {
    match stats::peak_rss_mb() {
        Some(mb) => report.metric(
            "peak_rss_mb",
            mb - probe.resident_mb(),
            "MB",
            1,
            format!(
                "VmHWM of this process less the host probe's {} MiB table",
                probe.resident_mb()
            ),
        ),
        None => report.op(vec!["peak RSS unavailable (/proc/self/status)".into()]),
    }
}

/// One serve_mix batch on `service` with an O2 hierarchy per session.
pub fn serve_batch(service: &Service, specs: &[SessionSpec]) -> ServiceReport {
    service.run_batch(
        specs.to_vec(),
        |_, _| Hierarchy::new(MachineSpec::o2()),
        |space: &AddressSpace, mem: &mut Hierarchy| mem.attach_regions(space.regions()),
    )
}

/// Any-seed service invariants; returns one violation list per session
/// plus batch-level ones.
pub fn check_batch(report: &ServiceReport) -> Vec<Vec<String>> {
    let mut per_session = Vec::new();
    for o in &report.outcomes {
        let mut v = Vec::new();
        match &o.status {
            SessionStatus::Completed { stats, .. } => {
                if stats.totals.concealed_mbs != 0 {
                    v.push(format!(
                        "session {}: {} concealed macroblocks",
                        o.id, stats.totals.concealed_mbs
                    ));
                }
                if stats.vops == 0 || stats.bytes == 0 {
                    v.push(format!("session {}: no output", o.id));
                }
            }
            other => v.push(format!("session {}: {other:?}", o.id)),
        }
        per_session.push(v);
    }
    if report.completed != report.outcomes.len() as u64 {
        per_session.push(vec![format!(
            "completed {} of {} submitted sessions",
            report.completed,
            report.outcomes.len()
        )]);
    }
    per_session
}

/// Steps each decode session of `specs` alone through `serve::Session`
/// (the service does not expose its sessions' decoders) and reports any
/// slice-parallel decoder that fell back to the sequential path.
pub fn decode_fallbacks(specs: &[SessionSpec], pool: &Arc<WorkerPool>) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if spec.mode == SessionMode::Encode {
            continue;
        }
        let stepped = Session::new(
            spec.clone(),
            NullModel::new(),
            pool.clone(),
            None,
            |_, _| {},
        )
        .and_then(|mut s| {
            while !s.is_done() {
                s.step()?;
            }
            Ok(s.parallel_fallbacks())
        });
        match stepped {
            Ok(0) => {}
            Ok(n) => violations.push(format!("session {i}: decoder fell back {n} times")),
            Err(e) => violations.push(format!("session {i}: solo decode failed: {e:?}")),
        }
    }
    violations
}

/// What a fresh service's flight recorder kept of its one batch.
pub struct BatchEvents {
    /// The whole recorder after the batch.
    pub dump: Dump,
    /// Recorder time at the batch's start and end.
    pub from: u64,
    pub to: u64,
}

impl BatchEvents {
    /// Ready-to-done latencies (ns) of the batch's `frame.end` events.
    pub fn frame_latencies_ns(&self) -> Vec<f64> {
        self.dump
            .events
            .iter()
            .filter(|e| e.ev.kind == EventKind::FrameEnd)
            .map(|e| e.ev.b as f64)
            .collect()
    }

    /// The recorder kept every event and one `frame.end` per frame.
    pub fn check(&self, frames: u64) -> Vec<String> {
        let mut v = Vec::new();
        if self.dump.events_dropped != 0 {
            v.push(format!(
                "flight recorder dropped {} events",
                self.dump.events_dropped
            ));
        }
        let ends = self.frame_latencies_ns().len() as u64;
        if ends != frames {
            v.push(format!("{ends} frame.end events for {frames} frames"));
        }
        v
    }
}

/// Runs one batch on `service`, which has run none before, and
/// snapshots the service's recorder after it.
pub fn recorded_batch(
    service: &Service,
    batch: impl FnOnce() -> ServiceReport,
) -> (ServiceReport, BatchEvents) {
    let rec = service.recorder();
    let from = rec.now_ns();
    let report = batch();
    let to = rec.now_ns();
    let events = BatchEvents {
        dump: rec.snapshot(),
        from,
        to,
    };
    (report, events)
}

fn serve(args: &Args) -> Report {
    let mut report = Report::default();
    let mut batch_fps = Vec::new();
    let mut batch_secs = 0.0;
    let mut frames = 0u64;
    let mut completed = 0u64;
    let mut latencies_ms = Vec::new();
    let mut first: Option<check::Fingerprint> = None;
    let measured = measure(
        args.seconds,
        || serve_specs(args.seed).map(|specs| (serve_service(), specs)),
        |(service, specs), timed_rep| {
            let (r, events) = recorded_batch(service, || serve_batch(service, specs));
            let fp = check::serve_fingerprint(&r);
            let mut violations = check_batch(&r);
            violations.push(events.check(r.frames));
            match &first {
                None => first = Some(fp),
                Some(f) if *f != fp => {
                    violations.push(vec!["outputs changed between batches".into()])
                }
                Some(_) => {}
            }
            if timed_rep {
                latencies_ms.extend(events.frame_latencies_ns().into_iter().map(|ns| ns / 1e6));
                frames += r.frames;
                completed += r.completed;
                let wall = r.wall.as_secs_f64();
                batch_secs += wall;
                batch_fps.push(r.frames as f64 / wall);
            }
            violations
        },
        &mut report,
    );
    let Some(Measured {
        inputs: (service, specs),
        setup_times,
        probe,
    }) = measured
    else {
        return report;
    };
    println!(
        "# inputs {} sessions x {} frames 176x144 slices=2, threads={} recorder_capacity={}",
        specs.len(),
        SERVE_FRAMES,
        service.pool().threads(),
        service.recorder().capacity()
    );
    report.op(decode_fallbacks(&specs, service.pool()));
    let fp = first.expect("at least one batch");
    reference_check(
        &mut report,
        Kind::ServeMix,
        args.seed,
        fp,
        || {
            let specs = serve_specs(check::REFERENCE_SEED).map_err(|e| format!("{e:?}"))?;
            Ok(check::serve_fingerprint(&serve_batch(&service, &specs)))
        },
        args.write_reference,
    );

    println!("# repetitions frames_per_s: {}", samples_line(&batch_fps));
    let batches = batch_fps.len();
    let host = Nominal::new(&mut report, &probe);
    setup_metric(
        &mut report,
        &host,
        &setup_times,
        "session specs, decode-stream pre-encoding, service and pool",
    );
    host.put(
        &mut report,
        "frames_per_s",
        frames as f64 / batch_secs,
        "1/s",
        batches,
        format!(
            "frames over batch wall time, {batches} batches of {} sessions",
            specs.len()
        ),
    );
    host.put(
        &mut report,
        "sessions_per_s",
        completed as f64 / batch_secs,
        "1/s",
        batches,
        "completed sessions over batch wall time",
    );
    host.put(
        &mut report,
        "frame_p50_ms",
        stats::median(&latencies_ms),
        "ms",
        latencies_ms.len(),
        "ready->done frame latency from each batch's frame.end events",
    );
    tail_info(&mut report, &latencies_ms, "ready->done frame latency");
    rss_metric(&mut report, &probe);
    report
}

/// The highest percentile with ten samples above it, for the report
/// only: across runs it spreads wider than any bound a gate may use.
/// Nothing when that is the median.
fn tail_info(report: &mut Report, samples_ms: &[f64], what: &str) {
    let p = stats::tail_percentile(samples_ms.len());
    if p <= 50.0 {
        return;
    }
    report.info(
        format!("frame_p{p}_ms"),
        stats::percentile(samples_ms, p),
        "ms",
        samples_ms.len(),
        format!("{what} (report only)"),
    );
}
