//! Stream-serving benchmark for hypermine.
//!
//! ```text
//! streambench --workload <wide-c2|cli-rules|gaps-c1> [--seed N] [--seconds S]
//!             [--trace 0|1] [--smoke]
//! ```
//!
//! One run = three timed set-ups, then whole rounds, each after one more
//! timed set-up, until `--seconds` have passed and at least four rounds
//! are done; see `run.rs` for a round and README.md for the metrics.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. A failed output check makes `correct`
//! false and the exit code 1.

mod checks;
mod layers;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use stats::{best_per_position, median, quantile};
use trace::span;

/// Set-ups timed before the first round; one more is timed before every
/// round, so the samples spread over the run like the other metrics'
/// do (the host runs in fast and slow phases of a few seconds, and
/// set-ups timed back to back all land in one). `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;

/// Rounds a run makes at least, so that every closed-loop command has
/// several samples to take its fastest from.
const MIN_ROUNDS: u64 = 4;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A metric value as JSON: every digit of the measurement, `null` when
/// nothing was measured.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Caps glibc at two malloc arenas: the main thread's, and one that
/// every other thread shares. Each round spawns new writer threads (one
/// per host, one per recovery); with an arena per thread, how many arenas
/// a run touches — each keeping its threads' freed transient memory — is
/// up to the scheduler, and peak RSS on `cli-rules` spread by 0.34 of its
/// median over ten runs. One arena for all threads holds RSS steady but
/// slows `cli-rules` builds 3.6×; two leave builds as they are. The
/// reader path allocates nothing, so sharing the second arena adds no
/// lock contention to what is timed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only adjusts glibc allocator tuning, takes plain
    // integers, and is called before this process starts a thread.
    unsafe {
        mallopt(M_ARENA_MAX, 2);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

/// Each closed-loop command's fastest freshness across `rounds`. Rounds
/// replay the same commands on the same states, so what sets a command's
/// samples apart is the host's slow phases; the freshness percentiles
/// are taken over these per-command times.
fn fresh_per_command(rounds: &[&run::RoundOut]) -> Vec<f64> {
    let samples: Vec<&[f64]> = rounds.iter().map(|o| o.fresh_ms.as_slice()).collect();
    best_per_position(&samples)
}

/// The fastest of `values` (`NaN` for an empty slice).
fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

fn main() -> ExitCode {
    cap_malloc_arenas();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streambench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::workload(&args.workload, args.smoke) else {
        eprintln!(
            "streambench: --workload must be one of {}",
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(w.scenario.seed);
    let scratch = PathBuf::from(".streambench").join(format!("{}-{}", w.name, std::process::id()));
    let code = bench(&args, &w, seed, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn bench(args: &Args, w: &workload::Workload, seed: u64, scratch: &Path) -> ExitCode {
    trace::set_recording(args.trace);
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| {
        let (inputs, s) = span("setup", || {
            workload::setup_once(w, seed, &scratch.join("setup"))
        });
        setup_s.push(s);
        inputs
    };
    let inputs = set_up(&mut setup_s);
    for _ in 1..SETUP_REPS {
        set_up(&mut setup_s);
    }

    // Whole rounds until the run length has passed and at least
    // MIN_ROUNDS are done (smoke runs take what one round gives). A trace
    // run alternates traced rounds (each followed by a per-layer probe)
    // with untraced ones, so it measures its own overhead.
    let min_rounds = match (args.smoke, args.trace) {
        (false, _) => MIN_ROUNDS,
        (true, true) => 2,
        (true, false) => 1,
    };
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let started = Instant::now();
    let mut halves: [Vec<run::RoundOut>; 2] = [Vec::new(), Vec::new()];
    let mut probes = Vec::new();
    let mut r = 0u64;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if r >= min_rounds && elapsed >= seconds {
            break;
        }
        let traced = args.trace && r.is_multiple_of(2);
        trace::set_recording(traced);
        if r > 0 {
            set_up(&mut setup_s);
        }
        let check_seed = seed.wrapping_mul(1_000_003).wrapping_add(r);
        let out = span("round", || {
            run::round(w, &inputs, &scratch.join("round"), check_seed)
        });
        if traced {
            let dir = scratch.join("probe");
            probes.push(span("probe", || layers::probe(w, &inputs, &dir)));
        }
        eprintln!(
            "streambench: round {r}{}: {:.0} ms, fastest build {:.3} ms, freshness p50 {:.3} / p90 {:.3} ms, reads {:.0}/s, fastest recover {:.1} ms",
            if traced { " (traced)" } else { "" },
            out.wall_ms,
            fastest(&out.build_ms),
            quantile(&out.fresh_ms, 0.5),
            quantile(&out.fresh_ms, 0.9),
            quantile(&out.reads_per_s, 1.0),
            fastest(&out.recover_ms)
        );
        halves[usize::from(!traced)].push(out);
        r += 1;
    }
    trace::set_recording(false);
    let rss = peak_rss_mib();

    let all: Vec<&run::RoundOut> = halves.iter().flatten().collect();
    let attempted: u64 = all.iter().map(|o| o.attempted).sum();
    let failed: u64 = all.iter().map(|o| o.failed).sum();
    let mut errors: Vec<&String> = all.iter().flat_map(|o| &o.errors).collect();
    let probe_errors: Vec<&String> = probes.iter().flat_map(|p| &p.errors).collect();
    errors.extend(probe_errors);
    for e in errors.iter().take(10) {
        eprintln!("streambench: FAILED: {e}");
    }
    let cat = |rounds: &[&run::RoundOut], f: fn(&run::RoundOut) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|o| f(o).iter().copied()).collect()
    };
    let build = cat(&all, |o| &o.build_ms);
    let fresh = fresh_per_command(&all);
    let reads = cat(&all, |o| &o.reads_per_s);
    let recover = cat(&all, |o| &o.recover_ms);
    eprintln!(
        "streambench: {} seed {seed}: {r} rounds in {:.1} s; samples: setup {}, build {}, freshness {} commands × {r} rounds, reads {}, recover {}",
        w.name,
        started.elapsed().as_secs_f64(),
        setup_s.len(),
        build.len(),
        fresh.len(),
        reads.len(),
        recover.len()
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let half = |i: usize| -> Vec<&run::RoundOut> { halves[i].iter().collect() };
        let (on, off) = (half(0), half(1));
        let wall =
            |rs: &[&run::RoundOut]| median(&rs.iter().map(|o| o.wall_ms).collect::<Vec<_>>());
        let overhead_pct = 100.0 * (wall(&on) - wall(&off)) / wall(&off);
        let published = on.iter().map(|o| o.published).sum();
        let e2e = |rs: &[&run::RoundOut]| layers::E2e {
            build_ms: fastest(&cat(rs, |o| &o.build_ms)),
            fresh_p50_ms: quantile(&fresh_per_command(rs), 0.5),
            recover_ms: fastest(&cat(rs, |o| &o.recover_ms)),
        };
        let (traced, untraced) = (e2e(&on), e2e(&off));
        let spans = trace::spans();
        let layer_metrics = layers::metrics(&spans, &probes, &traced, published, overhead_pct, w);
        let summary = layers::summary(w, &layer_metrics, &traced, &untraced, overhead_pct);
        eprint!("{summary}");
        let stem = format!("{}-seed{seed}", w.name);
        let dir = Path::new(".streambench");
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| trace::write_jsonl(&dir.join(format!("trace-{stem}.jsonl")), &spans))
            .and_then(|()| std::fs::write(dir.join(format!("layers-{stem}.txt")), &summary));
        match written {
            Ok(()) => eprintln!(
                "streambench: {} spans written to .streambench/trace-{stem}.jsonl",
                spans.len()
            ),
            Err(e) => eprintln!("streambench: writing the trace failed: {e}"),
        }
        layer_metrics
            .into_iter()
            .map(|l| (l.name, l.unit, l.value))
            .collect()
    } else {
        vec![
            ("setup_s", "s", median(&setup_s)),
            ("build_ms", "ms", fastest(&build)),
            ("freshness_p50_ms", "ms", quantile(&fresh, 0.5)),
            ("freshness_p90_ms", "ms", quantile(&fresh, 0.9)),
            ("reads_per_s", "queries/s", quantile(&reads, 1.0)),
            ("recover_ms", "ms", fastest(&recover)),
            ("peak_rss_mib", "MiB", rss),
        ]
    };
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    let measured = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = failed == 0 && errors.is_empty() && measured;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
