//! One measured round: a read burst against a draining backlog,
//! closed-loop stream commands interleaved with cold builds, and
//! recovery from the WAL the stream left — followed by the round's
//! output checks.
//!
//! Every round starts from the same served model and replays the same
//! commands into a fresh durable host, so rounds are identical units of
//! work and the recovery of every round replays the same records.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypermine_core::AssociationModel;
use hypermine_data::{AttrId, Value};
use hypermine_serve::{
    DurabilityOptions, HostHealth, HostOptions, ModelServer, ModelSnapshot, ReaderHandle,
    ServeHost, StreamCmd,
};

use crate::checks::{self, Rng};
use crate::trace::span;
use crate::workload::{Inputs, Workload};

/// A stream command that is not readable after this long has failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(60);
/// The feeder's sleep between epoch polls.
const POLL: Duration = Duration::from_micros(50);

/// What one round measured and how its operations went.
#[derive(Debug, Default)]
pub struct RoundOut {
    pub build_ms: Vec<f64>,
    pub fresh_ms: Vec<f64>,
    pub reads_per_s: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub published: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Wall time of the whole round, checks included.
    pub wall_ms: f64,
}

impl RoundOut {
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// The epoch a command moves the model to.
fn epoch_after(epoch: u64, cmd: &StreamCmd) -> u64 {
    match cmd {
        StreamCmd::AdvanceBatch(rows) => epoch + rows.len() as u64,
        _ => epoch + 1,
    }
}

/// Waits until `reader` sees `epoch`, checking that epochs never
/// decrease on the way.
fn wait_for(
    reader: &mut ReaderHandle<ModelSnapshot>,
    epoch: u64,
    last: &mut u64,
) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let seen = reader.load().epoch();
        if seen < *last {
            return Err(format!("epoch went back from {last} to {seen}"));
        }
        *last = seen;
        if seen >= epoch {
            return Ok(());
        }
        if started.elapsed() > VISIBLE_TIMEOUT {
            return Err(format!(
                "epoch {epoch} not readable after {VISIBLE_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// Runs `throughput.rs`'s three-query round back to back until the
/// reader sees `target`; returns (queries answered, seconds).
fn read_until(
    mut reader: ReaderHandle<ModelSnapshot>,
    rows: &[Vec<Value>],
    target: u64,
) -> Result<(u64, f64), String> {
    let started = Instant::now();
    let mut scratch = reader.load().scratch();
    let n = reader.load().num_attrs();
    let mut row_idx = 0;
    let mut probe = 0usize;
    let mut queries = 0u64;
    let mut last = 0u64;
    loop {
        let snap = reader.load();
        let epoch = snap.epoch();
        if epoch < last {
            return Err(format!("reader saw epoch go back from {last} to {epoch}"));
        }
        last = epoch;
        let a = AttrId::new((probe % n) as u32);
        probe += 1;
        let leading = snap.is_leading(a);
        std::hint::black_box(snap.ranked_in_edges(a).first().copied());
        if leading {
            std::hint::black_box(snap.best_in_edge(a));
        } else {
            std::hint::black_box(snap.predict_or_majority(&mut scratch, &rows[row_idx], a));
        }
        queries += 3;
        drop(snap);
        if probe.is_multiple_of(64) {
            row_idx = (row_idx + 1) % rows.len();
        }
        if epoch >= target {
            return Ok((queries, started.elapsed().as_secs_f64()));
        }
        if started.elapsed() > VISIBLE_TIMEOUT {
            return Err(format!(
                "backlog not drained to epoch {target} after {VISIBLE_TIMEOUT:?}"
            ));
        }
    }
}

/// Copies the files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Runs one round in `dir` (created and removed here).
pub fn round(w: &Workload, inputs: &Inputs, dir: &Path, check_seed: u64) -> RoundOut {
    let started = Instant::now();
    let mut out = RoundOut::default();
    let cfg = w.config();
    let spec = w.spec();
    let mut rng = Rng::new(check_seed);

    // A fresh durable host on the served model.
    let wal = dir.join("wal");
    let _ = std::fs::remove_dir_all(dir);
    let host = span("serve.spawn_durable", || {
        ServeHost::spawn_with(
            ModelServer::new(inputs.served.clone(), spec.clone()),
            HostOptions {
                queue: w.round.backlog + 1,
                durability: Some(DurabilityOptions::new(&wal)),
                ..HostOptions::default()
            },
        )
    });
    let host = match host {
        Ok(h) => h,
        Err(e) => {
            out.op(Err(format!("durable spawn failed: {e}")));
            return out;
        }
    };
    let mut reader = host.reader();
    let mut epoch = inputs.served.epoch();
    let mut last = epoch;
    let (backlog, fresh) = inputs.commands.split_at(w.round.backlog);

    // Read burst: queue the backlog, then one reader thread queries
    // live snapshots until the writer has published all of it.
    let target = backlog.iter().fold(epoch, epoch_after);
    let rows: Vec<Vec<Value>> = inputs
        .commands
        .iter()
        .filter_map(|c| match c {
            StreamCmd::Advance(row) => Some(row.clone()),
            _ => None,
        })
        .collect();
    let burst = span("serve.read_burst", || {
        std::thread::scope(|s| {
            let burst_reader = host.reader();
            let rows = &rows;
            let worker = s.spawn(move || read_until(burst_reader, rows, target));
            for cmd in backlog {
                if !host.send(cmd.clone()) {
                    break;
                }
            }
            worker
                .join()
                .unwrap_or_else(|_| Err("reader thread panicked".into()))
        })
    });
    match burst {
        Ok((queries, seconds)) => {
            out.reads_per_s.push(queries as f64 / seconds);
            out.op(Ok(()));
        }
        Err(e) => out.op(Err(e)),
    }
    epoch = target;

    // Closed loop: one command in flight, timed until a reader loads
    // the epoch it produced. While the writer idles between commands,
    // one cold build of the initial window, so build samples spread over
    // the round like freshness samples do. The last build is checked.
    let mut built = None;
    for cmd in fresh {
        epoch = epoch_after(epoch, cmd);
        let t = Instant::now();
        let outcome = span("serve.command", || {
            if !host.send(cmd.clone()) {
                return Err("the writer refused a command".to_string());
            }
            wait_for(&mut reader, epoch, &mut last)
        });
        // A failed command keeps its position, so positions line up
        // across rounds.
        out.fresh_ms.push(if outcome.is_ok() {
            t.elapsed().as_secs_f64() * 1e3
        } else {
            f64::NAN
        });
        out.op(outcome);

        let t = Instant::now();
        let model = span("core.build", || {
            AssociationModel::build(&inputs.initial, &cfg)
        });
        out.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.op(model.as_ref().map(|_| ()).map_err(|e| e.to_string()));
        built = model.ok();
    }
    let check = span("check.acv_build", || match &built {
        Some(model) => checks::check_acv(model.hypergraph(), &inputs.initial, &cfg, &mut rng, 64),
        None => Err("no built model to check".into()),
    });
    out.op(check.map_err(|e| format!("build: {e}")));

    let visible = wait_for(&mut reader, epoch, &mut last);
    let final_snap: Arc<ModelSnapshot> = reader.load_owned();
    let health = host.health();
    let stats = span("serve.shutdown", || host.shutdown());
    out.published += stats.published;
    let sent = inputs.commands.len() as u64;
    out.op(visible.and_then(|()| {
        if health != HostHealth::Healthy || stats.rejected != 0 || stats.panics != 0 {
            Err(format!(
                "host {health:?}: {} rejected, {} panics ({:?})",
                stats.rejected, stats.panics, stats.last_error
            ))
        } else if stats.published != sent
            || stats.wal_records != sent
            || final_snap.epoch() != epoch
        {
            Err(format!(
                "sent {sent}, published {}, logged {}, final epoch {} (want {epoch})",
                stats.published,
                stats.wal_records,
                final_snap.epoch()
            ))
        } else {
            Ok(())
        }
    }));

    // Recovery, each time from an untimed fresh copy of the WAL dir.
    for r in 0..w.round.recoveries {
        let copy: PathBuf = dir.join(format!("recover-{r}"));
        if let Err(e) = copy_dir(&wal, &copy) {
            out.op(Err(format!("copying the WAL dir: {e}")));
            continue;
        }
        let t = Instant::now();
        let recovered = span("serve.recover", || {
            let (host, info) = ServeHost::recover(&copy, spec.clone(), HostOptions::queue(1))
                .map_err(|e| format!("recover failed: {e}"))?;
            let mut reader = host.reader();
            let mut seen = 0;
            wait_for(&mut reader, epoch, &mut seen)?;
            Ok::<_, String>((host, info, reader))
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = recovered.and_then(|(host, info, mut reader)| {
            let snap = reader.load();
            let same = snap.digest() == final_snap.digest() && snap.epoch() == final_snap.epoch();
            drop(snap);
            let health = host.health();
            host.shutdown();
            if !same {
                Err("recovered snapshot differs from the pre-crash one".into())
            } else if info.replayed != stats.wal_records || info.torn_tail {
                Err(format!(
                    "replayed {} of {} records (torn tail: {})",
                    info.replayed, stats.wal_records, info.torn_tail
                ))
            } else if health != HostHealth::Healthy {
                Err(format!("recovered host is {health:?}"))
            } else {
                Ok(())
            }
        });
        if outcome.is_ok() {
            out.recover_ms.push(ms);
        }
        out.op(outcome);
    }
    let _ = std::fs::remove_dir_all(dir);

    // The final streamed snapshot against a batch build, the ACV oracle,
    // and the batch classifier.
    let batch = span("check.batch", || checks::check_against_batch(&final_snap));
    match batch {
        Ok(batch) => {
            out.op(Ok(()));
            let acv = span("check.acv_stream", || {
                checks::check_acv(
                    final_snap.graph(),
                    final_snap.database(),
                    &cfg,
                    &mut rng,
                    64,
                )
            });
            out.op(acv.map_err(|e| format!("streamed: {e}")));
            let pred = span("check.predict", || {
                checks::check_predictions(&final_snap, &batch, &mut rng, 64)
            });
            out.op(pred);
        }
        Err(e) => {
            out.op(Err(e));
            out.op(Err("skipped: no batch model".into()));
            out.op(Err("skipped: no batch model".into()));
        }
    }
    out.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    out
}
