//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, and prints as the last line of
//! stdout one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md`.

use perfbench::report::Report;
use perfbench::{campaign, dist, lung, poisson, Args, WORKLOADS};
use std::path::PathBuf;

enum Mode {
    /// Run a workload and print its result line.
    Run(Args),
    /// Be one rank of the `dist_poisson` group, writing to the given file.
    Rank(Args, PathBuf),
    /// Print the Poisson reference Gram matrix.
    RecordReference,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --record-reference",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Mode {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut rank_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse::<u64>().ok(),
            "--seconds" => seconds = val().parse::<f64>().ok(),
            "--trace" => {
                trace = match val().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--rank-worker" => rank_out = Some(PathBuf::from(val())),
            "--record-reference" => return Mode::RecordReference,
            _ => usage(),
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()));
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage();
    }
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
    };
    match rank_out {
        Some(out) => Mode::Rank(args, out),
        None => Mode::Run(args),
    }
}

fn main() {
    // The SPMD launcher puts its rendezvous sockets under the temporary
    // directory; keep them inside the checkout, on a short relative path.
    // Set before any thread starts.
    let tmp = perfbench::sys::run_dir().join("tmp");
    std::fs::create_dir_all(&tmp).expect("create the rendezvous directory");
    std::env::set_var("TMPDIR", &tmp);

    let args = match parse() {
        Mode::Run(args) => args,
        Mode::Rank(args, out) => return dist::rank_main(&args, &out),
        Mode::RecordReference => return poisson::record_reference(),
    };
    let mut report = Report::new(args.trace);
    let tally = match args.workload.as_str() {
        "lung_step" => lung::run(&args, &mut report),
        "poisson_solve" => poisson::run(&args, &mut report),
        "dist_poisson" => dist::run(&args, &mut report),
        "campaign_sweep" => campaign::run(&args, &mut report),
        _ => unreachable!("workload validated in parse"),
    };
    if !args.trace && args.workload != "dist_poisson" {
        report.set("peak_rss_mb", perfbench::sys::peak_rss_mb());
    }
    eprintln!(
        "perfbench: {}: {} of {} operations failed their checks (error rate {:.4})",
        args.workload,
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    println!(
        "{}",
        report.json(tally.failed == 0, tally.attempted.max(1), tally.failed)
    );
}
