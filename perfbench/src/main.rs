//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!  [--daemon PATH] [--trace-dir DIR]`
//!
//! Runs one workload and prints each metric with its unit, then the result
//! as one JSON line. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` a traced run reports the per-layer ones and writes its
//! spans to `DIR/<workload>-<seed>.jsonl`. `serve_tcp` needs the
//! `uctr-served` binary as `--daemon`. Exit code 1 means the run could not
//! report a result; 2 means bad arguments.

use perfbench::trace::Tracer;
use perfbench::{batch, inputs, metrics, serve, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: perfbench::alloc::Counting = perfbench::alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        daemon: None,
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--daemon" => args.daemon = Some(PathBuf::from(value)),
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", metrics::WORKLOADS));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args, tracer: Option<&mut Tracer>) -> Outcome {
    match args.workload.as_str() {
        "batch_ragged" => {
            let zoo = inputs::ragged(args.seed, inputs::RAGGED_SCALE);
            batch::run(&[zoo], args.seconds, tracer)
        }
        "batch_wide" => {
            // A caller hands over one wide table per call.
            let tables: Vec<_> = inputs::wide(args.seed).into_iter().map(|t| vec![t]).collect();
            batch::run(&tables, args.seconds, tracer)
        }
        _ => match &args.daemon {
            Some(daemon) => serve::run(daemon, args.seed, args.seconds, tracer),
            None => {
                Outcome { error: Some("serve_tcp needs --daemon".into()), ..Outcome::default() }
            }
        },
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = args.trace.then(Tracer::default);
    let mut outcome = run(&args, tracer.as_mut());
    outcome.check_names(args.trace);
    if let (Some(tracer), Some(dir)) = (&tracer, &args.trace_dir) {
        let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            outcome.fail(format!("cannot write {}: {e}", path.display()));
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    if let Some(e) = &outcome.error {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    for (name, value) in &outcome.metrics {
        println!("{name} = {value} {}", metrics::unit_of(name).unwrap_or(""));
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
