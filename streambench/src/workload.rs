//! The three named workloads and the inputs each one generates: a
//! market simulated from the workload's scenario seed, of which the
//! run's seed picks the stretch the closed loop streams.
//!
//! A workload is a simulated market (tickers × days), discretized on its
//! initial window, mined under one γ setting, and streamed through a
//! durable `ServeHost` with one snapshot spec. The benchmark only hands
//! the program the generated database, stream rows, and stream commands.

use std::path::Path;
use std::time::Instant;

use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_data::discretize::{apply_thresholds, discretize_columns, EquiDepth};
use hypermine_data::{AttrId, Database, Value};
use hypermine_experiments::registry::{
    self, DiscretizerSpec, GammaRun, GapSchedule, MarketDims, MarketShape, RunScale, ScaleDims,
    ScenarioSpec, Source, WindowPolicy,
};
use hypermine_market::{Market, Universe};
use hypermine_serve::{
    DurabilityOptions, HostOptions, ModelServer, ServeHost, SnapshotSpec, StreamCmd,
};

use crate::trace::span;

/// How many of each operation one round performs.
#[derive(Debug, Clone, Copy)]
pub struct RoundShape {
    /// Commands queued at once while the reader thread runs; they open
    /// the round, so they also warm up the freshly spawned host.
    pub backlog: usize,
    /// Closed-loop stream commands (freshness samples), each followed by
    /// one cold build.
    pub fresh: usize,
    /// Recoveries of the round's WAL directory, each on a fresh copy.
    pub recoveries: usize,
}

/// One named workload: a market scenario, the snapshot spec's rule
/// limit, and the benchmark's round shape.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Tickers, initial window, market seed and shape, k, γ pair and gap
    /// schedule. The simulated day count is the benchmark's own.
    pub scenario: &'static ScenarioSpec,
    pub scale: RunScale,
    /// `SnapshotSpec::rule_limit` of the served snapshots.
    pub rule_limit: usize,
    pub round: RoundShape,
}

/// `wide-c2`'s scenario. No registry scenario streams this wide a
/// window: 80 tickers (the market pipeline example's universe), a
/// 504-day window, C2, at the perf fixtures' seed.
static WIDE_C2: ScenarioSpec = ScenarioSpec {
    name: "streambench_wide_c2",
    title: "Benchmark: 80 tickers streaming a 504-day window at C2",
    seed: 5,
    source: Source::Market {
        dims: ScaleDims {
            tiny: MarketDims::sliding(12, 96, 48),
            default_scale: MarketDims::sliding(80, 1008, 504),
            full: MarketDims::sliding(80, 1008, 504),
        },
        shape: MarketShape::Baseline,
    },
    discretizer: DiscretizerSpec::EquiDepthDeltas,
    windowing: WindowPolicy::Sliding { gaps: None },
    runs: &[GammaRun::C2],
};

fn registry_scenario(name: &str) -> &'static ScenarioSpec {
    registry::find(name).expect("the scenario is registered")
}

/// The workloads, by name. `smoke` runs every scenario at its tiny
/// scale with a short round, so the whole run, checks included, takes
/// a few seconds.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    // round: (backlog, fresh, recoveries).
    let (name, scenario, rule_limit, round) = match name {
        // The streaming example's rule-free publish on a wide window:
        // counting, slide, and publish all cost tens of ms, and recovery
        // replays expensive slides.
        "wide-c2" => ("wide-c2", &WIDE_C2, 0, (8, 16, 1)),
        // The serve CLI's default spec (top-32 rule ranking) at the
        // registry's perf_serve size: publish is almost all rule ranking.
        "cli-rules" => (
            "cli-rules",
            registry_scenario("perf_serve"),
            SnapshotSpec::default().rule_limit,
            (16, 24, 3),
        ),
        // The registry's calendar-gap stress: k = 3, C1, and gaps that
        // make a tenth of the commands rebuild-backed retires.
        "gaps-c1" => (
            "gaps-c1",
            registry_scenario("stress_calendar_gaps"),
            0,
            (24, 48, 3),
        ),
        _ => return None,
    };
    // At smoke scale 24 closed-loop commands still reach a gap burst.
    let (backlog, fresh, recoveries) = if smoke { (4, 24, 1) } else { round };
    Some(Workload {
        name,
        scenario,
        scale: if smoke {
            RunScale::Tiny
        } else {
            RunScale::Default
        },
        rule_limit,
        round: RoundShape {
            backlog,
            fresh,
            recoveries,
        },
    })
}

/// Market days after the initial window from which a seed picks the
/// streamed stretch.
const HISTORY: usize = 1000;

/// Mixes a seed into a well-spread 64-bit value (splitmix64).
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every workload name, in run order.
pub const NAMES: [&str; 3] = ["wide-c2", "cli-rules", "gaps-c1"];

impl Workload {
    /// The market's dimensions and shape at the workload's scale.
    pub fn market(&self) -> (MarketDims, MarketShape) {
        match self.scenario.source {
            Source::Market { dims, shape } => (dims.at(self.scale), shape),
            Source::Inline(_) => unreachable!("every workload is market-backed"),
        }
    }

    /// The scenario's one γ run: discretization arity and γ pair.
    fn gamma_run(&self) -> &'static GammaRun {
        &self.scenario.runs[0]
    }

    /// The calendar gap schedule, if the scenario has one.
    pub fn gaps(&self) -> Option<GapSchedule> {
        match self.scenario.windowing {
            WindowPolicy::Sliding { gaps } => gaps,
            _ => None,
        }
    }

    /// The model configuration: the scenario's γ pair, one counting
    /// thread, every other field at its default.
    pub fn config(&self) -> ModelConfig {
        ModelConfig {
            threads: 1,
            ..self.gamma_run().model_config(self.market().0.tickers)
        }
    }

    /// The snapshot spec: the serve CLI's default with this workload's
    /// rule limit.
    pub fn spec(&self) -> SnapshotSpec {
        SnapshotSpec {
            rule_limit: self.rule_limit,
            ..SnapshotSpec::default()
        }
    }

    /// Stream commands per round.
    pub fn commands_per_round(&self) -> usize {
        self.round.backlog + self.round.fresh
    }
}

/// Everything a round starts from.
pub struct Inputs {
    /// The initial window (cold builds run on it).
    pub initial: Database,
    /// The served model: the initial window's model advanced by one
    /// warm-up observation, so its incremental state is built.
    pub served: AssociationModel,
    /// One round's stream commands: `backlog` queued ones, then `fresh`
    /// closed-loop ones.
    pub commands: Vec<StreamCmd>,
}

/// Simulates and discretizes the workload's market and mines the served
/// model: the first half of set-up.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let count = w.commands_per_round();
    // The market, its initial window, the warm-up day and the backlog
    // days are the workload's own (its scenario's seed); the run's seed
    // picks which stretch of the market's later history the closed loop
    // streams. Seeding the whole market instead moves the dominator
    // between 4 and 10 attributes from seed to seed, and every
    // prediction's cost with it (measured), which no bound absorbs.
    let offset = (splitmix(seed) % (HISTORY as u64 + 1)) as usize;
    let (dims, shape) = w.market();
    let k = w.gamma_run().k;
    let fixed = dims.window + 1 + w.round.backlog;
    let n_days = fixed + HISTORY + w.round.fresh + 2;
    let (market, deltas) = span("market.simulate", || {
        let market = Market::simulate(
            Universe::sp500(dims.tickers),
            &shape.sim_config(n_days, w.scenario.seed),
        );
        let deltas = market.deltas();
        (market, deltas)
    });
    let (initial, rows) = span("data.discretize", || {
        let symbols = market.universe().symbols();
        let head: Vec<Vec<f64>> = deltas.iter().map(|d| d[..dims.window].to_vec()).collect();
        let tail: Vec<Vec<f64>> = deltas
            .iter()
            .map(|d| [&d[dims.window..fixed], &d[fixed + offset..]].concat())
            .collect();
        let (initial, thresholds) =
            discretize_columns(symbols.clone(), k, &head, &EquiDepth::new(k))
                .expect("simulated deltas are finite");
        let stream =
            apply_thresholds(symbols, k, &tail, &thresholds).expect("thresholds map into 1..=k");
        let rows: Vec<Vec<Value>> = (0..stream.num_obs())
            .map(|o| stream.attrs().map(|a| stream.value(a, o)).collect())
            .collect();
        (initial, rows)
    });
    let cfg = w.config();
    let mut served = span("core.build", || {
        AssociationModel::build(&initial, &cfg).expect("workload gammas are >= 1")
    });
    span("core.state_build", || served.advance(&rows[0])).expect("discretized rows are valid");
    let commands = commands(&rows[1..], w.gaps(), count);
    Inputs {
        initial,
        served,
        commands,
    }
}

/// The first `count` commands of the stream over `rows`: one advance per
/// row, with `gaps.len` retires after every `gaps.every` observed days.
/// The warm-up advance counts as the first observed day.
fn commands(rows: &[Vec<Value>], gaps: Option<GapSchedule>, count: usize) -> Vec<StreamCmd> {
    let mut out = Vec::with_capacity(count);
    let mut rows = rows.iter();
    let mut observed = 1;
    while out.len() < count {
        if let Some(g) = gaps {
            if observed >= g.every {
                out.extend(std::iter::repeat_n(StreamCmd::Retire, g.len));
                observed = 0;
                continue;
            }
        }
        let row = rows.next().expect("enough stream rows were simulated");
        out.push(StreamCmd::Advance(row.clone()));
        observed += 1;
    }
    out.truncate(count);
    out
}

/// One timed set-up: generate the inputs, spawn a durable host on them
/// (first checkpoint + first publish), wait until a reader sees the
/// served epoch, answer one query, and shut down. Returns the inputs and
/// the set-up time in seconds.
pub fn setup_once(w: &Workload, seed: u64, dir: &Path) -> (Inputs, f64) {
    let started = Instant::now();
    let inputs = generate(w, seed);
    let server = span("serve.publish", || {
        ModelServer::new(inputs.served.clone(), w.spec())
    });
    let host = span("serve.spawn_durable", || {
        ServeHost::spawn_with(
            server,
            HostOptions {
                queue: 1,
                durability: Some(DurabilityOptions::new(dir)),
                ..HostOptions::default()
            },
        )
    })
    .expect("a fresh store directory");
    let mut reader = host.reader();
    let snap = reader.load();
    assert_eq!(snap.epoch(), inputs.served.epoch());
    let mut scratch = snap.scratch();
    let row: Vec<Value> = (0..inputs.initial.num_attrs())
        .map(|a| inputs.initial.value(AttrId::new(a as u32), 0))
        .collect();
    let target = (0..snap.num_attrs() as u32)
        .map(AttrId::new)
        .find(|&a| !snap.is_leading(a));
    if let Some(a) = target {
        std::hint::black_box(snap.predict_or_majority(&mut scratch, &row, a));
    }
    drop(snap);
    let seconds = started.elapsed().as_secs_f64();
    host.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    (inputs, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_schedule_injects_retires_after_every_observed_run() {
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![i as Value + 1]).collect();
        let cmds = commands(&rows, Some(GapSchedule { every: 3, len: 2 }), 9);
        let kinds: String = cmds
            .iter()
            .map(|c| {
                if matches!(c, StreamCmd::Retire) {
                    'R'
                } else {
                    'A'
                }
            })
            .collect();
        // The warm-up advance is the first observed day.
        assert_eq!(kinds, "AARRAAARR");
        assert_eq!(commands(&rows, None, 4).len(), 4);
    }

    #[test]
    fn every_named_workload_resolves_in_both_sizes() {
        for name in NAMES {
            assert_eq!(workload(name, false).unwrap().name, name);
            assert!(workload(name, true).unwrap().market().0.tickers < 20);
        }
        assert!(workload("nope", false).is_none());
    }
}
