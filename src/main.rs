//! The `systolizer` command-line compiler driver. Run it with no
//! arguments for the subcommands and flags (`cli::usage`, printed from
//! the one flag table in `src/cli.rs`).
//!
//! `explore --schedules N` is deterministic schedule exploration: the
//! compiled program is run under N seeds × 3 adversarial schedule
//! policies; any divergence from the FIFO baseline is shrunk to a
//! minimal decision-log prefix and written as a `systolic-schedule-v1`
//! JSON counterexample that `replay --schedule` reproduces. See
//! `docs/testing.md`.
//!
//! `--metrics` writes a `systolic-metrics-v1` JSON report (per-process op
//! and phase counts, per-channel waits, makespan attribution);
//! `--trace-out` writes a Chrome `trace_event` JSON viewable in
//! <https://ui.perfetto.dev>. See `docs/observability.md`.
//!
//! The input is a source program in the front-end syntax (Sec. 3.1 made
//! concrete); see `programs/` and `README.md`.

use std::io::Write as _;
use std::process::ExitCode;
use systolizer::cli;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let inv = match cli::parse_args(&raw) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    if inv.command == "serve" {
        // The service reads no file: programs arrive over the wire
        // (`docs/service.md`). Runs until killed.
        return match cli::start_service(&inv) {
            Ok((service, handle)) => {
                println!(
                    "systolic-service-v1 listening on {} ({} workers, queue {})",
                    handle.addr, service.pool.n_workers, service.pool.queue_cap
                );
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let src = match std::fs::read_to_string(&inv.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", inv.file);
            return ExitCode::FAILURE;
        }
    };
    let out = match cli::execute(&inv, &src) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `println!` panics when the reader has gone (`systolizer … | head
    // -1`); a closed pipe is the reader's choice, not a failure.
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
