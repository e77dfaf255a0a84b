//! The traced run's per-layer probe and the per-layer metrics.
//!
//! A probe replays one round's work layer by layer through each
//! module's public functions, one span per call: the counting passes
//! through the public `CountingEngine`, slides and retires on the bare
//! model, the publish phases on the same model state, synchronous
//! `ModelServer` commands, `WalStore` appends and `store::recover`, and
//! batched snapshot reads. The metrics then come from those spans and
//! from the spans the traced rounds recorded around the end-to-end
//! operations.

use std::path::Path;
use std::sync::Arc;

use hypermine_core::{
    node_of, set_cover_adaptation, top_rules, AssociationModel, CountingEngine, HeadCounter,
};
use hypermine_data::{AttrId, PairBuckets, Value};
use hypermine_hypergraph::{EdgeId, NodeId};
use hypermine_serve::{store, ArcCell, ModelServer, ModelSnapshot, StreamCmd, WalRecord, WalStore};

use crate::stats::iq_mean;
use crate::trace::{self, span, span_n, Span};
use crate::workload::{Inputs, Workload};

const MIB: f64 = (1 << 20) as f64;
/// Calls per batched read span.
const READ_CALLS: u32 = 20_000;
const PREDICT_CALLS: u32 = 2_000;

/// Figures a probe reads off the program instead of a clock.
#[derive(Debug, Default, Clone)]
pub struct ProbeOut {
    pub edges: f64,
    pub tensor_mib: f64,
    pub snapshot_mib: f64,
    pub wal_bytes_per_record: f64,
    pub replayed: f64,
    pub errors: Vec<String>,
}

/// One probe pass over the round's work, in `dir` (removed here).
pub fn probe(w: &Workload, inputs: &Inputs, dir: &Path) -> ProbeOut {
    let mut out = ProbeOut::default();
    let cfg = w.config();
    let spec = w.spec();
    let db = &inputs.initial;
    let (n, k) = (db.num_attrs(), db.k());
    let attrs: Vec<AttrId> = db.attrs().collect();

    // Counting: the build's two passes, replayed through the engine.
    span("core.count_replay", || {
        let engine = span("core.engine_new", || CountingEngine::new(db));
        let mut counter = HeadCounter::new(n, k);
        for &a in &attrs {
            span("core.pass1", || engine.edge_acv_all_heads(a, &mut counter));
        }
        let mut buckets = PairBuckets::new();
        for (i, &a) in attrs.iter().enumerate() {
            for &b in &attrs[i + 1..] {
                span("core.pair_bucket", || {
                    engine.bucket_pair(a, b, &mut buckets)
                });
                span("core.pass2", || {
                    engine.hyper_acv_all_heads(&buckets, &mut counter)
                });
            }
        }
    });
    match AssociationModel::build(db, &cfg) {
        Ok(model) => {
            out.edges = model.hypergraph().num_edges() as f64;
            // The first advance after a build builds the incremental state.
            if let Some(row) = first_row(&inputs.commands) {
                let mut model = model;
                let _ = span("core.state_build", || model.advance(row));
            }
        }
        Err(e) => out.errors.push(format!("probe build: {e}")),
    }

    // Incremental: the round's commands on the bare model.
    let mut model = inputs.served.clone();
    let mut warm = true;
    for cmd in &inputs.commands {
        let outcome = match cmd {
            StreamCmd::Advance(row) => {
                let name = if warm {
                    "core.slide"
                } else {
                    "core.state_build"
                };
                warm = true;
                span(name, || model.advance(row))
            }
            StreamCmd::Retire => {
                warm = false;
                span("core.retire", || model.retire_oldest())
            }
            other => unreachable!("workloads send no {other:?}"),
        };
        if let Err(e) = outcome {
            out.errors.push(format!("probe slide: {e}"));
        }
    }
    let mut shrunk = inputs.served.clone();
    let _ = span("core.retire", || shrunk.retire_oldest());
    drop(shrunk);
    out.tensor_mib = inputs.served.incremental_stats().map_or(0.0, |s| {
        (s.triple_tensor_bytes + s.row_max_bytes + s.pair_counts_bytes + s.s2_bytes) as f64 / MIB
    });

    // Publish, phase by phase, on the state the commands left.
    let snap = span("serve.snapshot", || ModelSnapshot::build(&model, &spec));
    std::hint::black_box(span("core.export", || model.export()));
    let dominator = span("core.dominator", || {
        let filtered = spec
            .acv_keep_fraction
            .and_then(|f| model.acv_percentile_threshold(f))
            .map(|thr| model.filter_by_acv(thr));
        let graph = filtered
            .as_ref()
            .map_or(model.hypergraph(), |f| f.hypergraph());
        let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
        set_cover_adaptation(graph, &nodes, &spec.set_cover).dominator
    });
    std::hint::black_box(span("core.tables", || {
        let mut in_dom = vec![false; n];
        for v in &dominator {
            in_dom[v.index()] = true;
        }
        let ids: Vec<EdgeId> = model
            .hypergraph()
            .edges()
            .filter(|(_, e)| e.tail().iter().all(|t| in_dom[t.index()]))
            .flat_map(|(id, e)| {
                e.head()
                    .iter()
                    .filter(|h| !in_dom[h.index()])
                    .map(move |_| id)
            })
            .collect();
        model.tables().tables_for_edges(&ids)
    }));
    if spec.rule_limit > 0 {
        std::hint::black_box(span("core.rules", || {
            top_rules(
                &model,
                spec.rule_min_support,
                spec.rule_min_confidence,
                spec.rule_limit,
            )
        }));
    }
    if !span("serve.digest", || snap.verify_digest()) {
        out.errors.push("snapshot digest does not verify".into());
    }
    out.snapshot_mib = snap.memory().total_bytes() as f64 / MIB;

    // The writer's synchronous call per command: slide + publish.
    let mut server = ModelServer::new(inputs.served.clone(), spec.clone());
    for cmd in &inputs.commands {
        let outcome = span("serve.server_advance", || match cmd {
            StreamCmd::Advance(row) => server.advance(row),
            _ => server.retire_oldest(),
        });
        if let Err(e) = outcome {
            out.errors.push(format!("probe server: {e}"));
        }
    }
    drop(server);

    // The store: checkpoint, appends of the round's records, recovery.
    let _ = std::fs::remove_dir_all(dir);
    match span("store.checkpoint", || {
        WalStore::create(dir, 0, &inputs.served)
    }) {
        Ok(mut wal) => {
            for cmd in &inputs.commands {
                let record = match cmd {
                    StreamCmd::Advance(row) => WalRecord::Advance(row.clone()),
                    _ => WalRecord::Retire,
                };
                if let Err(e) = span("store.append", || wal.append(&record)) {
                    out.errors.push(format!("probe append: {e}"));
                }
            }
            drop(wal);
            out.wal_bytes_per_record = wal_bytes(dir) / inputs.commands.len() as f64;
            match span("store.recover", || store::recover(dir)) {
                Ok((_, info)) => out.replayed = info.replayed as f64,
                Err(e) => out.errors.push(format!("probe recover: {e}")),
            }
        }
        Err(e) => out.errors.push(format!("probe checkpoint: {e}")),
    }
    let _ = span("core.restore", || {
        AssociationModel::restore(inputs.served.database(), &cfg, inputs.served.epoch())
    });
    let _ = std::fs::remove_dir_all(dir);

    // Reads, batched: load + guard drop, ranked lookup, prediction.
    let cell = Arc::new(ArcCell::new(Arc::new(snap)));
    let mut reader = cell.reader();
    span_n("serve.load", READ_CALLS, || {
        for _ in 0..READ_CALLS {
            std::hint::black_box(reader.load().epoch());
        }
    });
    let snap = reader.load_owned();
    span_n("serve.ranked", READ_CALLS, || {
        for i in 0..READ_CALLS {
            let a = AttrId::new(i % n as u32);
            std::hint::black_box(snap.ranked_in_edges(a).first().copied());
        }
    });
    let targets: Vec<AttrId> = attrs
        .iter()
        .copied()
        .filter(|&a| !snap.is_leading(a))
        .collect();
    let rows: Vec<Vec<Value>> = (0..snap.database().num_obs().min(64))
        .map(|o| attrs.iter().map(|&a| snap.database().value(a, o)).collect())
        .collect();
    let mut scratch = snap.scratch();
    span_n("serve.predict", PREDICT_CALLS, || {
        for i in 0..PREDICT_CALLS as usize {
            if let Some(&t) = targets.get(i % targets.len().max(1)) {
                std::hint::black_box(snap.predict_or_majority(
                    &mut scratch,
                    &rows[i % rows.len()],
                    t,
                ));
            }
        }
    });
    out
}

fn first_row(commands: &[StreamCmd]) -> Option<&[Value]> {
    commands.iter().find_map(|c| match c {
        StreamCmd::Advance(row) => Some(row.as_slice()),
        _ => None,
    })
}

/// Bytes of the WAL segments in `dir`, headers excluded.
fn wal_bytes(dir: &Path) -> f64 {
    const HEADER: u64 = 16;
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len().saturating_sub(HEADER) as f64)
        .sum()
}

/// One per-layer metric.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The end-to-end metric it feeds; `writer` for the WAL append,
    /// which the host runs after the publish, so it delays the next
    /// command of a backlog but no reader's view of the current one.
    pub feeds: &'static str,
}

/// End-to-end figures of one half of a trace run (its traced or its
/// untraced rounds), computed as the untraced run computes them.
pub struct E2e {
    pub build_ms: f64,
    pub fresh_p50_ms: f64,
    pub recover_ms: f64,
}

/// Every per-layer metric from the recorded spans and probe figures.
pub fn metrics(
    spans: &[Span],
    probes: &[ProbeOut],
    e2e: &E2e,
    published: u64,
    overhead_pct: f64,
    w: &Workload,
) -> Vec<LayerMetric> {
    let avg = |name: &str| iq_mean(&trace::durations_ms(spans, name));
    let per_parent = |name: &str| iq_mean(&trace::sums_by_parent_ms(spans, name));
    let ns = |name: &str| iq_mean(&trace::ns_per_call(spans, name));
    let probe = |f: fn(&ProbeOut) -> f64| iq_mean(&probes.iter().map(f).collect::<Vec<_>>());

    let engine_new = avg("core.engine_new");
    let pass1 = per_parent("core.pass1");
    let bucket = per_parent("core.pair_bucket");
    let pass2 = per_parent("core.pass2");
    let snapshot = avg("serve.snapshot");
    // A rule-free publish ranks no rules: 0 ms of it.
    let rules = if w.rule_limit > 0 {
        avg("core.rules")
    } else {
        0.0
    };
    let (export, dominator, tables, digest) = (
        avg("core.export"),
        avg("core.dominator"),
        avg("core.tables"),
        avg("serve.digest"),
    );
    let server_advance = avg("serve.server_advance");
    let store_recover = avg("store.recover");
    let restore = avg("core.restore");
    let m = |name, unit, value, feeds| LayerMetric {
        name,
        unit,
        value,
        feeds,
    };
    vec![
        m(
            "market.simulate_ms",
            "ms",
            avg("market.simulate"),
            "setup_s",
        ),
        m(
            "data.discretize_ms",
            "ms",
            avg("data.discretize"),
            "setup_s",
        ),
        m(
            "store.checkpoint_ms",
            "ms",
            avg("store.checkpoint"),
            "setup_s",
        ),
        m("core.engine_new_ms", "ms", engine_new, "build_ms"),
        m("core.pass1_ms", "ms", pass1, "build_ms"),
        m("core.pair_bucket_ms", "ms", bucket, "build_ms"),
        m("core.pass2_ms", "ms", pass2, "build_ms"),
        m(
            "core.build_other_ms",
            "ms",
            e2e.build_ms - engine_new - pass1 - bucket - pass2,
            "build_ms",
        ),
        m("core.edges", "count", probe(|p| p.edges), "build_ms"),
        m("core.slide_ms", "ms", avg("core.slide"), "freshness_p50_ms"),
        m(
            "core.state_build_ms",
            "ms",
            avg("core.state_build"),
            "freshness_p90_ms",
        ),
        m(
            "core.retire_ms",
            "ms",
            avg("core.retire"),
            "freshness_p90_ms",
        ),
        m(
            "core.tensor_mib",
            "MiB",
            probe(|p| p.tensor_mib),
            "peak_rss_mib",
        ),
        m("core.restore_ms", "ms", restore, "recover_ms"),
        m("serve.snapshot_ms", "ms", snapshot, "freshness_p50_ms"),
        m("core.export_ms", "ms", export, "freshness_p50_ms"),
        m("core.dominator_ms", "ms", dominator, "freshness_p50_ms"),
        m("core.tables_ms", "ms", tables, "freshness_p50_ms"),
        m("core.rules_ms", "ms", rules, "freshness_p50_ms"),
        m("serve.digest_ms", "ms", digest, "freshness_p50_ms"),
        m(
            "serve.snapshot_other_ms",
            "ms",
            snapshot - export - dominator - tables - digest - rules,
            "freshness_p50_ms",
        ),
        m(
            "serve.snapshot_mib",
            "MiB",
            probe(|p| p.snapshot_mib),
            "peak_rss_mib",
        ),
        m(
            "serve.server_advance_ms",
            "ms",
            server_advance,
            "freshness_p50_ms",
        ),
        m(
            "serve.handoff_ms",
            "ms",
            e2e.fresh_p50_ms - server_advance,
            "freshness_p50_ms",
        ),
        m(
            "serve.published",
            "count",
            published as f64,
            "freshness_p50_ms",
        ),
        m("serve.load_ns", "ns", ns("serve.load"), "reads_per_s"),
        m("serve.ranked_ns", "ns", ns("serve.ranked"), "reads_per_s"),
        m("serve.predict_ns", "ns", ns("serve.predict"), "reads_per_s"),
        m("store.append_us", "us", avg("store.append") * 1e3, "writer"),
        m(
            "store.wal_bytes_per_record",
            "B",
            probe(|p| p.wal_bytes_per_record),
            "recover_ms",
        ),
        m("store.recover_ms", "ms", store_recover, "recover_ms"),
        m(
            "store.replay_ms",
            "ms",
            store_recover - restore,
            "recover_ms",
        ),
        m(
            "store.replayed",
            "count",
            probe(|p| p.replayed),
            "recover_ms",
        ),
        m(
            "serve.recover_other_ms",
            "ms",
            e2e.recover_ms - store_recover - snapshot,
            "recover_ms",
        ),
        m("trace.overhead_pct", "%", overhead_pct, "all"),
    ]
}

/// The per-layer summary: each layer metric beside the end-to-end
/// figure it feeds (traced rounds), with residuals marked.
pub fn summary(
    w: &Workload,
    layers: &[LayerMetric],
    e2e: &E2e,
    untraced: &E2e,
    overhead_pct: f64,
) -> String {
    let mut s = format!(
        "per-layer summary: {} (traced rounds vs untraced rounds of the same run)\n",
        w.name
    );
    s += &format!(
        "  build_ms {:.3} vs {:.3} | freshness_p50_ms {:.3} vs {:.3} | recover_ms {:.3} vs {:.3} | tracing overhead {:+.2}% of round time\n",
        e2e.build_ms,
        untraced.build_ms,
        e2e.fresh_p50_ms,
        untraced.fresh_p50_ms,
        e2e.recover_ms,
        untraced.recover_ms,
        overhead_pct
    );
    for feeds in [
        "setup_s",
        "build_ms",
        "freshness_p50_ms",
        "freshness_p90_ms",
        "reads_per_s",
        "recover_ms",
        "peak_rss_mib",
        "writer",
        "all",
    ] {
        if feeds == "writer" {
            s += "  -> writer throughput (no end-to-end metric: the host appends after it publishes)\n";
        } else {
            s += &format!("  -> {feeds}\n");
        }
        for l in layers.iter().filter(|l| l.feeds == feeds) {
            let residual = l.name.ends_with("_other_ms") || l.name == "serve.handoff_ms";
            s += &format!(
                "       {:<28} {:>14.4} {:<6}{}\n",
                l.name,
                l.value,
                l.unit,
                if residual { "  (residual)" } else { "" }
            );
        }
    }
    s
}
