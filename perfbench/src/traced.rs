//! The traced run: per-layer attribution from a paired replay.
//!
//! Each repetition runs the workload three ways through the public
//! API: untraced (the end-to-end path), through [`Counting`] around the
//! real `Hierarchy`, and on `NullModel`. Spans around the calls into
//! each layer (`Scene::frame`/`alpha`, `encode_frame`/`finish`,
//! `Service::run_batch`) give wall
//! time; `memsim.self_s` is the paired difference between the counting
//! and `NullModel` codec spans, `codec.self_s` the `NullModel` side.
//! The counting replay must reproduce the untraced run's counters
//! exactly, or the run fails.

use std::sync::Arc;
use std::time::Instant;

use m4ps_codec::{CodecError, FrameView, SceneEncoder, SessionStats};
use m4ps_core::{RunResult, StudyConfig, Workload};
use m4ps_memsim::{
    AddressSpace, Counters, Hierarchy, MachineSpec, MemModel, NullModel, ParallelModel,
};
use m4ps_obs::{EventKind, Phase};
use m4ps_serve::{ServiceReport, SessionMode, SessionSpec, SessionStatus};
use m4ps_vidgen::{Scene, SceneSpec};

use crate::counting::{Counting, Tally};
use crate::stats;
use crate::workloads;
use crate::{Args, Kind, Report};

/// Wall time inside the spans of one replay.
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    vidgen: f64,
    codec: f64,
    wall: f64,
}

/// What a replay produced, for comparison with the untraced run.
struct Replay<M> {
    spans: Spans,
    mem: M,
    stats: SessionStats,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `encode_study`'s work, step by step, with spans: the same scene,
/// encoder, pool and region attachment, so a `Hierarchy` underneath
/// charges exactly what the study charged.
fn replay_encode<M: ParallelModel>(
    w: &Workload,
    cfg: &StudyConfig,
    mut mem: M,
    attach: impl FnOnce(&AddressSpace, &mut M),
) -> Result<Replay<M>, CodecError> {
    let start = Instant::now();
    let mut spans = Spans::default();
    let mut space = AddressSpace::new();
    let t = Instant::now();
    let scene = Scene::new(SceneSpec {
        resolution: w.resolution,
        objects: w.objects.max(1),
        seed: w.seed,
    });
    spans.vidgen += secs(t);
    let t = Instant::now();
    let mut enc = SceneEncoder::new(
        &mut space,
        w.resolution.width,
        w.resolution.height,
        w.objects,
        w.layers,
        cfg.encoder,
    )?;
    enc.set_pool(Arc::new(m4ps_pool::WorkerPool::from_env()));
    spans.codec += secs(t);
    attach(&space, &mut mem);
    for f in 0..w.frames {
        let t = Instant::now();
        let frame = scene.frame(f);
        let masks: Vec<Vec<u8>> = (0..w.objects).map(|vo| scene.alpha(f, vo).data).collect();
        spans.vidgen += secs(t);
        let t = Instant::now();
        let masks: Vec<&[u8]> = masks.iter().map(Vec::as_slice).collect();
        let view = FrameView {
            width: frame.resolution.width,
            height: frame.resolution.height,
            y: &frame.y,
            u: &frame.u,
            v: &frame.v,
        };
        enc.encode_frame(&mut mem, &view, &masks)?;
        spans.codec += secs(t);
    }
    let t = Instant::now();
    enc.finish(&mut mem)?;
    spans.codec += secs(t);
    spans.wall = secs(start);
    Ok(Replay {
        spans,
        mem,
        stats: enc.stats(),
    })
}

/// Per-repetition layer figures; the report takes medians of the times
/// and the first repetition's counts (counts repeat exactly).
#[derive(Debug, Default, Clone)]
struct Layers {
    untraced_wall: f64,
    traced_wall: f64,
    memsim_self: f64,
    codec_self: f64,
    vidgen_self: f64,
    calls: u64,
    forks: u64,
    counters: Counters,
    sim_cycles: f64,
    profile_refs: [u64; PHASES.len()],
    vop_wall: f64,
    candidates: u64,
    vops: u64,
    bytes: u64,
    pool: PoolFigures,
    serve: [u64; 4],
}

#[derive(Debug, Default, Clone, Copy)]
struct PoolFigures {
    queue_wait_p50_us: f64,
    queue_wait_p99_us: f64,
    steals: u64,
    busy_share: f64,
    events: u64,
    events_dropped: u64,
}

/// Fine encoder phases whose exact memory references the traced run
/// reports (the profiler keeps wall time for coarse phases only).
const PHASES: [(Phase, &str); 6] = [
    (Phase::MeSearch, "codec.me_search_refs"),
    (Phase::MeHalfPel, "codec.me_halfpel_refs"),
    (Phase::McPredict, "codec.mc_predict_refs"),
    (Phase::DctQuant, "codec.texture_dctq_refs"),
    (Phase::Vlc, "codec.texture_vlc_refs"),
    (Phase::Recon, "codec.texture_recon_refs"),
];

impl Layers {
    fn add_counters(&mut self, machine: &MachineSpec, c: &Counters) {
        self.counters.merge(c);
        self.sim_cycles += machine.timing.breakdown(c).total();
    }

    fn add_study(&mut self, run: &RunResult) {
        for (i, (phase, _)) in PHASES.iter().enumerate() {
            self.profile_refs[i] += run.profile.get(*phase).counters.memory_refs();
        }
        self.vop_wall += run.profile.get(Phase::VopEncode).wall_ns as f64 / 1e9;
        self.candidates += run.session.totals.candidates;
        self.vops += run.session.vops;
        self.bytes += run.session.bytes;
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut reps: Vec<Layers> = Vec::new();
    match args.kind {
        Kind::PaperEncode => {
            let (w, _) = workloads::paper_inputs(args.seed);
            workloads::repeat_for(args.seconds, || {
                let (layers, errors) = paper_rep(&w);
                report.op(errors);
                reps.push(layers);
            });
        }
        Kind::ServeMix => {
            let specs = match workloads::serve_specs(args.seed) {
                Ok(s) => s,
                Err(e) => {
                    report.op(vec![format!("set-up failed: {e:?}")]);
                    return report;
                }
            };
            workloads::repeat_for(args.seconds, || {
                let (layers, errors) = serve_rep(&specs);
                report.op(errors);
                reps.push(layers);
            });
            report.op(workloads::decode_fallbacks(
                &specs,
                workloads::serve_service().pool(),
            ));
        }
    }
    emit(&mut report, &reps);
    report
}

/// Replays must reproduce the untraced counters and output exactly.
fn compare(
    label: &str,
    run: &RunResult,
    replay_counters: &Counters,
    stats: &SessionStats,
) -> Vec<String> {
    let mut v = Vec::new();
    if run.metrics.counters != *replay_counters {
        v.push(format!(
            "{label}: traced replay counters {replay_counters:?} differ from the study's {:?}",
            run.metrics.counters
        ));
    }
    if (run.session.vops, run.session.bytes) != (stats.vops, stats.bytes) {
        v.push(format!(
            "{label}: traced replay coded {} VOPs / {} bytes, the study {} / {}",
            stats.vops, stats.bytes, run.session.vops, run.session.bytes
        ));
    }
    v
}

fn paper_rep(w: &Workload) -> (Layers, Vec<String>) {
    let cfg = StudyConfig::paper();
    let mut layers = Layers::default();
    let passes = workloads::study_passes(w);
    layers.untraced_wall = passes.iter().map(|(s, _)| s).sum();
    let (runs, mut errors) = workloads::check_passes(w, passes);
    for run in &runs {
        let machine = &run.machine;
        let label = machine.column_label();
        let hierarchy = Counting::new(if cfg.encoder.software_prefetch {
            Hierarchy::new(machine.clone())
        } else {
            Hierarchy::without_prefetch(machine.clone())
        });
        let attach =
            |s: &AddressSpace, m: &mut Counting<Hierarchy>| m.inner.attach_regions(s.regions());
        let counted = replay_encode(w, &cfg, hierarchy, attach);
        let null = replay_encode(w, &cfg, NullModel::new(), |_, _| {});
        let (counted, null) = match (counted, null) {
            (Ok(c), Ok(n)) => (c, n),
            (c, n) => {
                errors.push(format!(
                    "{label}: replay failed: {:?} / {:?}",
                    c.err(),
                    n.err()
                ));
                continue;
            }
        };
        let counters = *counted.mem.counters();
        errors.extend(compare(&label, run, &counters, &counted.stats));
        layers.traced_wall += counted.spans.wall;
        layers.memsim_self += counted.spans.codec - null.spans.codec;
        layers.codec_self += null.spans.codec;
        layers.vidgen_self += null.spans.vidgen;
        layers.calls += counted.mem.tally.calls;
        layers.forks += counted.mem.tally.forks;
        layers.add_counters(machine, &counters);
        layers.add_study(run);
    }
    (layers, errors)
}

/// Busy share of the pool's background workers over one batch:
/// 1 minus their parked time (recorder park/wake events) within it.
fn busy_share(batch: &workloads::BatchEvents, workers: usize) -> f64 {
    let (from, to) = (batch.from, batch.to);
    if workers == 0 || to <= from {
        return 0.0;
    }
    let dump = &batch.dump;
    let mut parked = 0u64;
    for ring in dump
        .rings
        .iter()
        .filter(|r| r.name.starts_with("m4ps-worker"))
    {
        let events = dump
            .events
            .iter()
            .filter(|e| e.tid == ring.tid)
            .filter(|e| matches!(e.ev.kind, EventKind::PoolPark | EventKind::PoolWake));
        // A worker that wakes first inside the window was parked at
        // its start.
        let mut parked_since: Option<u64> = None;
        let mut seen = false;
        for e in events {
            let ts = e.ev.ts_ns.clamp(from, to);
            match e.ev.kind {
                EventKind::PoolPark => parked_since = Some(ts),
                _ => {
                    if let Some(p) = parked_since.take() {
                        parked += ts - p;
                    } else if !seen && e.ev.ts_ns >= from {
                        parked += ts - from;
                    }
                }
            }
            seen |= e.ev.ts_ns >= from;
        }
        if let Some(p) = parked_since {
            parked += to - p;
        }
    }
    1.0 - parked as f64 / (workers as u64 * (to - from)) as f64
}

fn session_counters(report: &ServiceReport) -> Vec<Option<Counters>> {
    report
        .outcomes
        .iter()
        .map(|o| match &o.status {
            SessionStatus::Completed { counters, .. } => Some(*counters),
            _ => None,
        })
        .collect()
}

/// One traced serve_mix repetition; each batch runs on a fresh service,
/// as in the untraced run.
fn serve_rep(specs: &[SessionSpec]) -> (Layers, Vec<String>) {
    let mut layers = Layers::default();
    let mut errors = Vec::new();
    let untraced = workloads::serve_batch(&workloads::serve_service(), specs);
    layers.untraced_wall = untraced.wall.as_secs_f64();
    for v in workloads::check_batch(&untraced) {
        errors.extend(v);
    }

    let tally = Arc::new(Tally::default());
    let service = workloads::serve_service();
    let (counted, events) = workloads::recorded_batch(&service, || {
        service.run_batch(
            specs.to_vec(),
            |_, _| Counting::with_sink(Hierarchy::new(MachineSpec::o2()), tally.clone()),
            |s: &AddressSpace, m: &mut Counting<Hierarchy>| m.inner.attach_regions(s.regions()),
        )
    });
    errors.extend(events.check(counted.frames));
    let workers = service.pool().threads().saturating_sub(1);
    layers.pool = PoolFigures {
        queue_wait_p50_us: counted.queue_wait.p50() as f64 / 1e3,
        queue_wait_p99_us: counted.queue_wait.p99() as f64 / 1e3,
        steals: counted.steals,
        busy_share: busy_share(&events, workers),
        events: events.dump.events.len() as u64,
        events_dropped: events.dump.events_dropped,
    };
    layers.serve = [
        counted.frames,
        counted.rejected,
        counted.shed,
        counted.failed,
    ];
    layers.traced_wall = counted.wall.as_secs_f64();
    if session_counters(&counted) != session_counters(&untraced) {
        errors.push("traced serve counters differ from the untraced batch".into());
    }
    for v in workloads::check_batch(&counted) {
        errors.extend(v);
    }

    let null =
        workloads::serve_service().run_batch(specs.to_vec(), |_, _| NullModel::new(), |_, _| {});
    for v in workloads::check_batch(&null) {
        errors.extend(v);
    }
    layers.codec_self = null.wall.as_secs_f64();
    layers.memsim_self = layers.traced_wall - layers.codec_self;
    layers.calls = tally.calls.load(std::sync::atomic::Ordering::Relaxed);
    layers.forks = tally.forks.load(std::sync::atomic::Ordering::Relaxed);
    let o2 = MachineSpec::o2();
    for o in &counted.outcomes {
        if let SessionStatus::Completed {
            stats, counters, ..
        } = &o.status
        {
            layers.add_counters(&o2, counters);
            layers.candidates += stats.totals.candidates;
            layers.vops += stats.vops;
            layers.bytes += stats.bytes;
        }
    }
    // Frame generation happens inside each encode session's steps;
    // replay it alone to time the vidgen layer.
    let t = Instant::now();
    for spec in specs.iter().filter(|s| s.mode == SessionMode::Encode) {
        let scene = Scene::new(SceneSpec {
            resolution: m4ps_vidgen::Resolution::new(spec.width, spec.height),
            objects: spec.objects.max(1),
            seed: spec.seed,
        });
        for f in 0..spec.frames {
            std::hint::black_box(scene.frame(f));
        }
    }
    layers.vidgen_self = secs(t);
    (layers, errors)
}

fn emit(report: &mut Report, reps: &[Layers]) {
    let Some(first) = reps.first() else { return };
    let n = reps.len();
    let med = |f: &dyn Fn(&Layers) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let per_rep = "per repetition, median";
    let memsim_self = med(&|l| l.memsim_self);
    let traced_wall = med(&|l| l.traced_wall);
    report.metric(
        "memsim.self_s",
        memsim_self,
        "s",
        n,
        format!("{per_rep}: counting-Hierarchy minus NullModel codec spans"),
    );
    report.metric(
        "memsim.share",
        med(&|l| l.memsim_self / l.traced_wall),
        "ratio",
        n,
        format!("memsim.self_s / traced wall ({traced_wall:.3} s)"),
    );
    let refs = first.counters.memory_refs();
    report.metric(
        "memsim.ns_per_ref",
        memsim_self * 1e9 / refs.max(1) as f64,
        "ns",
        n,
        format!("memsim.self_s / {refs} simulated loads+stores"),
    );
    let c = &first.counters;
    let count = |report: &mut Report, name, v: u64, how: &str| {
        report.metric(name, v as f64, "count", 1, how.to_string())
    };
    count(
        report,
        "memsim.calls",
        first.calls,
        "MemModel calls seen by the counting wrapper",
    );
    count(
        report,
        "memsim.refs",
        refs,
        "simulated architectural loads + stores",
    );
    count(
        report,
        "memsim.forks",
        first.forks,
        "ParallelModel forks absorbed",
    );
    count(
        report,
        "memsim.l1_misses",
        c.l1_misses,
        "simulated, summed over machines/sessions",
    );
    count(report, "memsim.l2_misses", c.l2_misses, "simulated");
    count(report, "memsim.tlb_misses", c.tlb_misses, "simulated");
    count(report, "memsim.prefetches", c.prefetches, "simulated");
    report.metric(
        "memsim.sim_cycles",
        first.sim_cycles,
        "cycles",
        1,
        "analytic timing model over the simulated counters",
    );
    report.metric(
        "codec.self_s",
        med(&|l| l.codec_self),
        "s",
        n,
        format!("{per_rep}: NullModel codec spans"),
    );
    report.metric(
        "codec.vop_s",
        med(&|l| l.vop_wall),
        "s",
        n,
        format!("{per_rep}: study profile wall time of vop.encode"),
    );
    for (i, (_, name)) in PHASES.iter().enumerate() {
        count(
            report,
            name,
            first.profile_refs[i],
            "exact study-profile loads+stores in this phase",
        );
    }
    count(
        report,
        "codec.sad_candidates",
        first.candidates,
        "motion-search candidates evaluated",
    );
    count(report, "codec.vops", first.vops, "VOPs coded or decoded");
    count(report, "codec.bytes", first.bytes, "bitstream bytes");
    report.metric(
        "vidgen.self_s",
        med(&|l| l.vidgen_self),
        "s",
        n,
        format!("{per_rep}: Scene::new/frame/alpha spans"),
    );
    let p = |f: fn(&PoolFigures) -> f64| med(&|l: &Layers| f(&l.pool));
    report.metric(
        "pool.queue_wait_p50_us",
        p(|p| p.queue_wait_p50_us),
        "us",
        n,
        "service queue-wait histogram (log2 buckets)",
    );
    report.metric(
        "pool.queue_wait_p99_us",
        p(|p| p.queue_wait_p99_us),
        "us",
        n,
        "service queue-wait histogram (log2 buckets)",
    );
    report.metric(
        "pool.steals",
        p(|p| p.steals as f64),
        "count",
        n,
        "steals attributed to the batch's scopes",
    );
    report.metric(
        "pool.busy_share",
        p(|p| p.busy_share),
        "ratio",
        n,
        "1 - parked share of background workers (recorder park/wake)",
    );
    report.metric(
        "obs.events",
        p(|p| p.events as f64),
        "count",
        n,
        "recorder events of the traced batch",
    );
    report.metric(
        "obs.events_dropped",
        reps.iter()
            .map(|l| l.pool.events_dropped)
            .max()
            .unwrap_or(0) as f64,
        "count",
        n,
        "recorder ring overflow (must be 0)",
    );
    for (i, name) in [
        "serve.frames",
        "serve.rejected",
        "serve.shed",
        "serve.failed",
    ]
    .into_iter()
    .enumerate()
    {
        count(
            report,
            name,
            first.serve[i],
            "ServiceReport of the traced batch",
        );
    }
    report.metric(
        "trace.overhead_s",
        med(&|l| l.traced_wall - l.untraced_wall),
        "s",
        n,
        format!("{per_rep}: traced wall minus untraced wall"),
    );
}
