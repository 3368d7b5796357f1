//! The ledger: one benchmark for every later performance or simplicity
//! claim about the scuba fast-restart leaf. See `benchmark/README.md`.

mod child;
mod compare;
mod gen;
mod hygiene;
mod json;
mod metrics;
mod probes;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use hygiene::Hygiene;
use json::Json;
use workloads::{Ctx, Outcome};

const USAGE: &str = "usage:
  ledger run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
      one workload, one pass; the last line of stdout is the result as JSON
      (--full 1 adds the end-to-end numbers to a traced pass's result)
  ledger run [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
      all four workloads untraced, then traced, each pass in a process of
      its own; prints every metric and writes the result set (default benchmark/results/ledger-<seed>.json)
  ledger compare <a.json> <b.json>
      two result sets against each metric's bound; exit 1 when out of bounds
  ledger manifest
      BENCHMARK.json as the metric catalogue defines it";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("leaf-child") => child::child_main(&args[1..]),
        Some("run") => run_command(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err(USAGE.to_owned()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest(metrics::RUN_SECONDS));
            Ok(())
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    /// `None` until the command line says: the default depends on `--smoke`.
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    /// Also carry the end-to-end numbers of a traced pass: `run_all` reads
    /// them for `trace.overhead_pct`.
    full: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        full: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                if metrics::workload(value).is_none() {
                    return Err(format!("no workload {value}"));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--full" => parsed.full = value == "1",
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// One pass of one workload, with its probes when traced.
struct Pass {
    outcome: Outcome,
    wall_s: f64,
}

fn run_pass(name: &str, ctx: &Ctx) -> Result<Pass, String> {
    let began = Instant::now();
    let hygiene = Hygiene::begin(name)?;
    let result = match name {
        metrics::PLANNED => workloads::planned_restart::run(ctx, &hygiene),
        metrics::CRASH => workloads::ingest_crash::run(ctx, &hygiene),
        metrics::SCAN => workloads::scan_mix::run(ctx, &hygiene),
        metrics::SERVE => workloads::serve_rollover::run(ctx, &hygiene),
        other => Err(format!("no workload {other}")),
    };
    let result = result.and_then(|mut outcome| {
        if ctx.trace {
            outcome
                .layers
                .extend(probes::run(&hygiene, &mut outcome.tracer)?);
            let spans = outcome.tracer.spans().len() as f64;
            outcome.layers.insert("trace.spans", spans);
            outcome.layers.insert(
                "trace.span_cost_pct",
                spans * probes::span_cost_ns() / (ctx.seconds * 1e9) * 100.0,
            );
            // Roofline: the copy-out against what this host can copy.
            let memcpy = outcome.layers["host.memcpy_gbps"];
            if let Some(&gbps) = outcome.layers.get("restart.copy_out_gbps") {
                outcome
                    .layers
                    .insert("restart.copy_out_roofline", gbps / memcpy);
            }
            let path = hygiene::results_dir().join(format!("trace-{name}.jsonl"));
            outcome
                .tracer
                .write_jsonl(&path)
                .map_err(|e| format!("write {path:?}: {e}"))?;
        }
        Ok(outcome)
    });
    // The sweep runs whether or not the workload got through.
    let swept = hygiene.end();
    let mut outcome = result?;
    if let Err(why) = swept {
        outcome.tally.attempted += 1;
        outcome.tally.fail(why);
    }
    for name in outcome.layers.keys() {
        if metrics::per_layer(name).is_none() {
            return Err(format!("workload reported an uncatalogued metric {name}"));
        }
    }
    Ok(Pass {
        outcome,
        wall_s: began.elapsed().as_secs_f64(),
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(BTreeMap::from([
        ("value".to_owned(), Json::Num(value)),
        ("unit".to_owned(), Json::Str(unit.to_owned())),
    ]))
}

fn end_to_end_json(outcome: &Outcome) -> BTreeMap<String, Json> {
    outcome
        .end_to_end
        .by_name()
        .iter()
        .map(|(name, value)| {
            let unit = metrics::end_to_end(name).expect("catalogued").unit;
            ((*name).to_owned(), metric(*value, unit))
        })
        .collect()
}

fn per_layer_json(outcome: &Outcome) -> BTreeMap<String, Json> {
    metrics::PER_LAYER
        .iter()
        .map(|m| {
            // A layer this workload does not exercise did no work: 0.
            let value = outcome.layers.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_owned(), metric(value, m.unit))
        })
        .collect()
}

fn report(name: &str, pass: &Pass, traced: bool) {
    let o = &pass.outcome;
    eprintln!(
        "== {name} ({}traced): {} operations, {} failed, {:.1} s wall",
        if traced { "" } else { "un" },
        o.tally.attempted,
        o.tally.failed,
        pass.wall_s
    );
    for why in &o.tally.reasons {
        eprintln!("   FAILED: {why}");
    }
    for line in &o.notes {
        eprintln!("   {line}");
    }
    if traced {
        // Where the time went: self time per span name, largest first.
        let mut by_name: Vec<(String, f64)> = trace::self_ms_by_name(o.tracer.spans())
            .into_iter()
            .collect();
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, self_ms) in by_name.iter().take(10) {
            eprintln!("   self time {name:<28} {self_ms:>12.1} ms");
        }
    }
}

fn run_command(args: &[String]) -> Result<(), String> {
    let parsed = parse_run(args)?;
    // Product defaults apply to in-process leaves as well as to children.
    for var in sut::PRODUCT_ENV {
        std::env::remove_var(var);
    }
    // A smoke run measures for a second unless told otherwise.
    let seconds = parsed.seconds.unwrap_or(if parsed.smoke {
        1.0
    } else {
        f64::from(metrics::RUN_SECONDS)
    });
    match (&parsed.workload, parsed.trace) {
        (Some(name), Some(trace)) => {
            let ctx = Ctx {
                seed: parsed.seed,
                seconds,
                trace,
                smoke: parsed.smoke,
            };
            let pass = run_pass(name, &ctx)?;
            report(name, &pass, trace);
            let o = &pass.outcome;
            let metrics = if trace {
                per_layer_json(o)
            } else {
                end_to_end_json(o)
            };
            let mut line = BTreeMap::from([
                ("correct".to_owned(), Json::Bool(o.tally.failed == 0)),
                ("attempted".to_owned(), Json::Num(o.tally.attempted as f64)),
                ("failed".to_owned(), Json::Num(o.tally.failed as f64)),
                ("metrics".to_owned(), Json::Obj(metrics)),
            ]);
            if parsed.full {
                line.insert("end_to_end".to_owned(), Json::Obj(end_to_end_json(o)));
            }
            println!("{}", Json::Obj(line).write());
            Ok(())
        }
        (None, None) => run_all(&parsed, seconds),
        _ => Err(format!(
            "give both --workload and --trace, or neither\n{USAGE}"
        )),
    }
}

/// One pass in a process of its own, as the driver would run it: no pass
/// inherits another's heap, page tables or peak-RSS mark.
fn pass_in_child(parsed: &RunArgs, name: &str, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", name, "--full", "1"])
        .args(["--seed", &parsed.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit());
    if parsed.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{name} ({}) ended with {}",
            if trace { "traced" } else { "untraced" },
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{name} printed no result"))?;
    Json::parse(last).map_err(|e| format!("{name}: {e}"))
}

fn value_of(result: &Json, section: &str, name: &str) -> f64 {
    result
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::num)
        .unwrap_or(f64::NAN)
}

/// The whole ledger: every workload untraced, then every workload traced.
fn run_all(parsed: &RunArgs, seconds: f64) -> Result<(), String> {
    let mut set: BTreeMap<String, Json> = BTreeMap::new();
    let mut fingerprint = BTreeMap::new();
    let mut ok = true;
    let mut untraced: BTreeMap<&str, Json> = BTreeMap::new();
    for w in &metrics::WORKLOADS {
        untraced.insert(w.name, pass_in_child(parsed, w.name, seconds, false)?);
    }
    for w in &metrics::WORKLOADS {
        // The traced pass may halve durations, never data sizes.
        let traced = pass_in_child(parsed, w.name, seconds / 2.0, true)?;
        let plain = &untraced[w.name];
        let count = |r: &Json, k: &str| r.get(k).and_then(Json::num).unwrap_or(f64::NAN);
        ok &= count(plain, "failed") == 0.0 && count(&traced, "failed") == 0.0;

        println!("\n# {}", w.name);
        println!(
            "ops_attempted {}  ops_failed {}",
            count(plain, "attempted"),
            count(plain, "failed")
        );
        for m in &metrics::END_TO_END {
            let value = value_of(plain, "metrics", m.name);
            println!("{:<44} {value:>16.4} {}", m.name, m.unit);
        }
        let mut layers = traced
            .get("metrics")
            .and_then(Json::obj)
            .cloned()
            .unwrap_or_default();
        // Headline traced over untraced: what tracing itself costs.
        let headline = "restart_first_answer_ms";
        let overhead = (value_of(&traced, "end_to_end", headline)
            / value_of(plain, "metrics", headline)
            - 1.0)
            * 100.0;
        println!("{:<44} {overhead:>16.4} %", "trace.overhead_pct");
        layers.insert("trace.overhead_pct".to_owned(), metric(overhead, "%"));
        for m in metrics::PER_LAYER {
            let v = value_of(&traced, "metrics", m.name);
            // A layer this workload does not exercise reads 0; leave it out.
            if v == 0.0 {
                continue;
            }
            let moves: Vec<String> = m
                .moves
                .iter()
                .map(|(metric, on)| format!("{metric} @ {on}"))
                .collect();
            let moves = if moves.is_empty() {
                String::new()
            } else {
                format!("  -> {}", moves.join(", "))
            };
            println!("{:<44} {v:>16.4} {}{moves}", m.name, m.unit);
            if m.name.starts_with("host.") {
                fingerprint.insert(m.name.to_owned(), Json::Num(v));
            }
        }
        set.insert(
            w.name.to_owned(),
            Json::Obj(BTreeMap::from([
                (
                    "ops_attempted".to_owned(),
                    Json::Num(count(plain, "attempted")),
                ),
                ("ops_failed".to_owned(), Json::Num(count(plain, "failed"))),
                (
                    "end_to_end".to_owned(),
                    plain.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("per_layer".to_owned(), Json::Obj(layers)),
            ])),
        );
    }
    let doc = Json::Obj(BTreeMap::from([
        ("seed".to_owned(), Json::Num(parsed.seed as f64)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("smoke".to_owned(), Json::Bool(parsed.smoke)),
        ("fingerprint".to_owned(), Json::Obj(fingerprint)),
        ("workloads".to_owned(), Json::Obj(set)),
    ]));
    let path = match &parsed.out {
        Some(p) => std::path::PathBuf::from(p),
        None => hygiene::results_dir().join(format!("ledger-{}.json", parsed.seed)),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    }
    std::fs::write(&path, doc.write() + "\n").map_err(|e| format!("write {path:?}: {e}"))?;
    eprintln!("wrote {}", path.display());
    if ok {
        Ok(())
    } else {
        Err("an operation failed; see above".to_owned())
    }
}
