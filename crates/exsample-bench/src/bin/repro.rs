//! `repro <experiment> [flags]`: regenerate one of the paper's figures or
//! tables on stdout.  The crate documentation lists the experiments and the
//! flags each one reads.

use exsample_bench::{format_error_chain, parse_command, print_report};
use std::io::stdout;
use std::process::exit;

fn main() {
    let (experiment, options) = parse_command(std::env::args().skip(1)).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        exit(2)
    });
    let printed = (experiment.run)(&options).and_then(|report| {
        print_report(&mut stdout().lock(), experiment, &options, &report)?;
        Ok(())
    });
    if let Err(error) = printed {
        eprintln!("error: {}", format_error_chain(error.as_ref()));
        exit(1);
    }
}
