//! Output checks: fingerprints of what a run computed, compared with
//! the reference values stored in `reference.json` for the reference
//! seed, and the invariants that hold for any seed.

use m4ps_core::RunResult;
use m4ps_memsim::Counters;
use m4ps_serve::{ServiceReport, SessionStatus};
use m4ps_testkit::json::Json;

use crate::stats::Fnv;
use crate::Kind;

/// The seed whose outputs `reference.json` pins exactly.
pub const REFERENCE_SEED: u64 = 1;

/// What a run computed, in the form `reference.json` stores.
pub type Fingerprint = Json;

const REFERENCE: &str = include_str!("../reference.json");

pub fn counters_json(c: &Counters) -> Json {
    let n = |x: u64| Json::Num(x as f64);
    Json::obj(vec![
        ("loads", n(c.loads)),
        ("stores", n(c.stores)),
        ("prefetches", n(c.prefetches)),
        ("prefetch_l1_hits", n(c.prefetch_l1_hits)),
        ("l1_misses", n(c.l1_misses)),
        ("l1_writebacks", n(c.l1_writebacks)),
        ("l2_misses", n(c.l2_misses)),
        ("l2_writebacks", n(c.l2_writebacks)),
        ("tlb_misses", n(c.tlb_misses)),
        ("compute_ops", n(c.compute_ops)),
        ("bytes_accessed", n(c.bytes_accessed)),
    ])
}

/// Per-machine counters and codec output sizes of one set of study
/// passes.
pub fn study_fingerprint(runs: &[RunResult]) -> Json {
    let machines = runs
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("machine", Json::str(r.machine.column_label())),
                ("counters", counters_json(&r.metrics.counters)),
                ("vops", Json::Num(r.session.vops as f64)),
                ("bytes", Json::Num(r.session.bytes as f64)),
                (
                    "sad_candidates",
                    Json::Num(r.session.totals.candidates as f64),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("machines", Json::Arr(machines))])
}

/// Per-session outcome, counters and output of one service batch.
pub fn serve_fingerprint(report: &ServiceReport) -> Json {
    let sessions = report
        .outcomes
        .iter()
        .map(|o| match &o.status {
            SessionStatus::Completed {
                streams,
                stats,
                counters,
            } => Json::obj(vec![
                ("counters", counters_json(counters)),
                ("vops", Json::Num(stats.vops as f64)),
                ("bytes", Json::Num(stats.bytes as f64)),
                (
                    "streams_fnv",
                    Json::str(format!("{:016x}", streams_digest(streams))),
                ),
            ]),
            other => Json::obj(vec![("status", Json::str(format!("{other:?}")))]),
        })
        .collect();
    Json::obj(vec![("sessions", Json::Arr(sessions))])
}

fn streams_digest(streams: &[Vec<u8>]) -> u64 {
    let mut h = Fnv::new();
    for s in streams {
        h.u64(s.len() as u64);
        h.bytes(s);
    }
    h.finish()
}

/// Violations of the exact reference for `kind` by `fingerprint`.
pub fn against_reference(kind: Kind, fingerprint: &Json) -> Vec<String> {
    let reference = match Json::parse(REFERENCE) {
        Ok(r) => r,
        Err(e) => return vec![format!("reference.json does not parse: {e}")],
    };
    match reference.get(kind.name()) {
        None => vec![format!("reference.json has no entry for {}", kind.name())],
        Some(want) if want == fingerprint => Vec::new(),
        Some(want) => vec![format!(
            "{} outputs differ from the reference for seed {REFERENCE_SEED}:\nwant {}\ngot  {}",
            kind.name(),
            want.pretty().trim_end(),
            fingerprint.pretty().trim_end()
        )],
    }
}

/// Stores `fingerprint` as the reference for `kind` in the source
/// tree's `reference.json` (rebuild to embed it).
pub fn write_reference(kind: Kind, fingerprint: Json) -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");
    let mut fields = match Json::parse(&std::fs::read_to_string(path)?) {
        Ok(Json::Obj(fields)) => fields,
        _ => Vec::new(),
    };
    fields.retain(|(k, _)| k != kind.name() && k != "seed");
    fields.insert(0, ("seed".to_string(), Json::Num(REFERENCE_SEED as f64)));
    fields.push((kind.name().to_string(), fingerprint));
    fields[1..].sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(path, Json::Obj(fields).pretty())
}

/// Any-seed invariant: the three machines execute the same program, so
/// their architectural loads and stores must match.
pub fn same_architectural_work(runs: &[RunResult]) -> Vec<String> {
    let Some(first) = runs.first() else {
        return vec!["no study passes".to_string()];
    };
    runs.iter()
        .filter(|r| {
            (r.metrics.counters.loads, r.metrics.counters.stores)
                != (first.metrics.counters.loads, first.metrics.counters.stores)
        })
        .map(|r| {
            format!(
                "{}: loads/stores {}/{} differ from {}: {}/{}",
                r.machine.column_label(),
                r.metrics.counters.loads,
                r.metrics.counters.stores,
                first.machine.column_label(),
                first.metrics.counters.loads,
                first.metrics.counters.stores
            )
        })
        .collect()
}
