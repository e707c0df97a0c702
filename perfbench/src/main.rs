//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! --mcc <path> --work <dir> --spans <path>`: one benchmark run. The last
//! line of standard output is the result as one JSON object; `run.py`
//! builds the binaries, pins the CPU and supplies the paths.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::draw::Workload;
use perfbench::{report, Args};

fn parse() -> Result<Args, String> {
    let mut flags = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| {
        flags
            .remove(flag)
            .ok_or_else(|| format!("{flag} is required"))
    };
    let num = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} expects a number, got `{v}`"))
    };
    let workload = take("--workload")?;
    let args = Args {
        workload: Workload::from_name(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: num("--seed", take("--seed")?)?,
        seconds: num("--seconds", take("--seconds")?)?.max(1),
        trace: num("--trace", take("--trace")?)? != 0,
        mcc: PathBuf::from(take("--mcc")?),
        work: PathBuf::from(take("--work")?),
        spans: PathBuf::from(take("--spans")?),
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag `{extra}`")),
        None => Ok(args),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match perfbench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(3);
        }
    };
    for p in &out.problems {
        eprintln!("perfbench: {}: {p}", args.workload.name());
    }
    let diag = report::metrics_json(&out.diagnostics);
    eprintln!("perfbench: diagnostics {diag}");
    println!("# diagnostics {diag}");
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
