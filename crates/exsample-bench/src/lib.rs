//! # exsample-bench
//!
//! The `repro` binary regenerates the paper's tables and figures:
//! `repro <experiment> [flags]` runs one experiment of
//! [`experiments::EXPERIMENTS`] and prints its banner, its `#` comment lines
//! and its table to stdout.  Each experiment is a module of [`experiments`]
//! whose `run` returns a [`Report`], so a library caller reads the table
//! instead of parsing stdout.  Performance is measured end to end, and per
//! layer, by the repository benchmark under `benchmark/`, not here.
//!
//! The subcommands are `fig2` to `fig6`, `table1`, `variance-coverage`,
//! `ablation-batching`, `ablation-policy` and `ablation-random-plus`.  Each
//! reads `--full`, `--seed` and `--csv`, and the flags noted below; a flag
//! the chosen experiment does not read is a usage error, not ignored.
//!
//! * `--full` — run at the paper's full scale (16 M-frame simulations, full-size
//!   dataset analogs, 21 trials).  The default is a reduced configuration that
//!   reproduces the *shape* of each result in seconds rather than hours.
//! * `--trials N` (all but `fig6` and `table1`) — override the number of
//!   trials (`--trials 0` is rejected: every experiment needs at least one).
//! * `--scale X` (`fig5`, `fig6`, `table1`, `variance-coverage`) — override
//!   the dataset scale factor.
//! * `--seed N` — root seed (default 7).
//! * `--checkpoint PATH` (`fig3`, `fig4`, `fig5`, `ablation-random-plus`:
//!   the runner-driven experiments) — persist every ExSample run's per-chunk
//!   posterior and query results to the durable belief store at PATH
//!   (crash-safe log + snapshot; a torn tail from a kill is recovered and
//!   reported on the next open).  Checkpointing is a pure observer: outcomes
//!   and the virtual clock are bitwise-identical to an uncheckpointed run.
//!   The store is single-writer: combine with `--trials 1`.
//! * `--warm-start PATH` (as `--checkpoint`) — seed every ExSample run's
//!   posterior from the belief store at PATH before sampling starts, instead
//!   of the uniform prior.
//! * `--csv` — emit the table as CSV instead of aligned text.
//!
//! A usage error exits with status 2; an experiment that fails prints its
//! error and the error's `source()` chain on one stderr line and exits 1.
//!
//! The paper's experiments vary only the sampler, the data and the recall
//! target, so the engine's knobs (DETECT lanes, the detections cache) and
//! injected detector faults are not flags: every engine-driven experiment
//! runs `QueryEngine::new()`, and a library caller sets a knob on the
//! engine's own builder.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;

use experiments::{Experiment, EXPERIMENTS};
use exsample_data::DatasetAnalog;
use std::io::{self, Write};

/// Command-line options shared by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Run at the paper's full scale.
    pub full: bool,
    /// Number of trials (None = the experiment's default for the chosen scale).
    pub trials: Option<usize>,
    /// Dataset scale factor (None = the experiment's default).
    pub scale: Option<f64>,
    /// Root seed.
    pub seed: u64,
    /// Durable belief-store directory every ExSample run checkpoints into
    /// (None = no checkpointing, the default).
    pub checkpoint: Option<std::path::PathBuf>,
    /// Belief-store directory ExSample runs warm-start their posterior from
    /// (None = cold start, the default).
    pub warm_start: Option<std::path::PathBuf>,
    /// Emit CSV instead of plain tables.
    pub csv: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            full: false,
            trials: None,
            scale: None,
            seed: 7,
            checkpoint: None,
            warm_start: None,
            csv: false,
        }
    }
}

impl ExperimentOptions {
    /// The number of trials to run, given the experiment's defaults for the reduced
    /// and full configurations.
    pub fn trials_or(&self, reduced: usize, full: usize) -> usize {
        self.trials
            .unwrap_or(if self.full { full } else { reduced })
    }

    /// The dataset scale to use, given the experiment's defaults.
    pub fn scale_or(&self, reduced: f64) -> f64 {
        self.scale.unwrap_or(if self.full { 1.0 } else { reduced })
    }
}

/// `value` parsed as the `T` that `valid` accepts, or a usage message naming
/// `flag` and, for a parsed value `valid` rejects, the `rule` it breaks.
fn checked<T: std::str::FromStr>(
    flag: &str,
    value: String,
    valid: impl Fn(&T) -> bool,
    rule: &str,
) -> Result<T, String> {
    match value.parse() {
        Ok(parsed) if valid(&parsed) => Ok(parsed),
        Ok(_) => Err(format!("{flag} must be {rule}, got {value}")),
        Err(_) => Err(format!("bad {flag} value: {value}")),
    }
}

/// What one experiment prints under its banner.
#[derive(Debug, Clone)]
pub struct Report {
    /// The lines printed before the table, each ending in a newline.
    pub before: String,
    /// The regenerated table or figure data.
    pub table: exsample_sim::Table,
    /// The lines printed after the table, each ending in a newline.
    pub after: String,
}

/// Parse `repro`'s arguments (typically `std::env::args().skip(1)`): an
/// experiment's name, then the flags it reads.
///
/// A missing or unknown experiment, a malformed or unknown flag and a flag
/// the experiment does not read are usage errors, returned as the message
/// to print.
pub fn parse_command<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(&'static Experiment, ExperimentOptions), String> {
    let mut iter = args.into_iter();
    let name = iter.next().unwrap_or_default();
    let experiment = EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        format!("usage: repro <{}> [flags]", names.join(" | "))
    })?;
    let mut options = ExperimentOptions::default();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .filter(|value| !value.is_empty())
                .ok_or(format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--trials" | "--scale" | "--checkpoint" | "--warm-start"
                if !experiment.flags.contains(&flag.as_str()) =>
            {
                return Err(format!("`repro {name}` does not read {flag}"))
            }
            "--full" => options.full = true,
            "--csv" => options.csv = true,
            "--trials" => {
                options.trials = Some(checked(&flag, value()?, |&t| t >= 1, "at least 1")?)
            }
            "--scale" => {
                let range = format!("in (0, {}]", DatasetAnalog::MAX_SCALE);
                let scale = checked(&flag, value()?, |&s| DatasetAnalog::valid_scale(s), &range)?;
                options.scale = Some(scale);
            }
            "--seed" => options.seed = checked(&flag, value()?, |_| true, "")?,
            "--checkpoint" => options.checkpoint = Some(value()?.into()),
            "--warm-start" => options.warm_start = Some(value()?.into()),
            "--help" | "-h" => {
                return Err(format!(
                    "supported flags: --full --trials N --scale X --seed N --checkpoint PATH \
                     --warm-start PATH --csv; `repro {name}` reads --full --seed --csv {}",
                    experiment.flags.join(" ")
                ))
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok((experiment, options))
}

/// Print `report` under `experiment`'s banner, with its table as aligned
/// text or, with `--csv`, as CSV.
///
/// A reader that closed its end (`repro fig6 | head -3`) ends the output
/// quietly: a `BrokenPipe` is `Ok`, every other write error is returned.
pub fn print_report(
    out: &mut impl Write,
    experiment: &Experiment,
    options: &ExperimentOptions,
    report: &Report,
) -> io::Result<()> {
    let mode = if options.full {
        "full (paper scale)"
    } else {
        "reduced (default)"
    };
    let table = if options.csv {
        report.table.to_csv()
    } else {
        report.table.to_plain()
    };
    let printed = write!(
        out,
        "# {}\n# mode: {mode}  seed: {}\n\n{}{table}{}",
        experiment.title, options.seed, report.before, report.after
    )
    .and_then(|()| out.flush());
    match printed {
        Err(error) if error.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        printed => printed,
    }
}

/// Render `error` and its `source()` chain as a single `: `-separated line.
pub fn format_error_chain(error: &dyn std::error::Error) -> String {
    let mut message = error.to_string();
    let mut cursor = error.source();
    while let Some(next) = cursor {
        message.push_str(": ");
        message.push_str(&next.to_string());
        cursor = next.source();
    }
    message
}

/// Merge the selection telemetry of every run in `results` into `merged`
/// (left None while no run carried telemetry, e.g. non-ExSample methods).
pub(crate) fn merge_selection_telemetry<'a, I>(
    merged: &mut Option<exsample_engine::SelectionTelemetry>,
    results: I,
) where
    I: IntoIterator<Item = &'a exsample_sim::RunResult>,
{
    for telemetry in results.into_iter().filter_map(|r| r.selection.as_ref()) {
        merged.get_or_insert_with(Default::default).merge(telemetry);
    }
}

/// The `#`-comment line summarising the ExSample runs' merged dedup
/// telemetry (hybrid-fold vs per-chunk pick counts, Gamma draws saved, and
/// the peak belief-class count), or nothing when no run carried telemetry.
pub(crate) fn selection_telemetry_line(
    telemetry: Option<&exsample_engine::SelectionTelemetry>,
) -> String {
    telemetry.map_or(String::new(), |telemetry| {
        format!(
            "# selection[exsample]: hybrid-fold picks {}, per-chunk picks {}, \
             gamma draws saved {}, peak classes {}\n",
            telemetry.class_max_picks,
            telemetry.per_chunk_picks,
            telemetry.draws_saved,
            telemetry.class_count
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `args` as the flags of `repro fig5`, which reads every flag.
    fn parse(args: &[&str]) -> Result<ExperimentOptions, String> {
        let args = std::iter::once(&"fig5").chain(args).map(|s| s.to_string());
        parse_command(args).map(|(_, options)| options)
    }

    #[test]
    fn default_options() {
        let options = parse(&[]).unwrap();
        assert!(!options.full);
        assert_eq!(options.seed, 7);
        assert_eq!(options.trials_or(5, 21), 5);
        assert_eq!(options.scale_or(0.25), 0.25);
    }

    #[test]
    fn full_flag_switches_defaults() {
        let options = parse(&["--full"]).unwrap();
        assert!(options.full);
        assert_eq!(options.trials_or(5, 21), 21);
        assert_eq!(options.scale_or(0.25), 1.0);
    }

    #[test]
    fn explicit_values_override_defaults() {
        let options = parse(&["--trials", "9", "--scale", "0.5", "--seed", "3", "--csv"]).unwrap();
        assert_eq!(options.trials_or(5, 21), 9);
        assert_eq!(options.scale_or(0.25), 0.5);
        assert_eq!(options.seed, 3);
        assert!(options.csv);
    }

    #[test]
    fn scale_outside_the_dataset_range_is_a_usage_error() {
        for bad in ["0", "-1", "nan", "inf", "4.5"] {
            let err = parse(&["--scale", bad]).unwrap_err();
            assert!(err.contains("(0, 4]"), "{bad}: {err}");
        }
        assert_eq!(parse(&["--scale", "4"]).unwrap().scale_or(0.25), 4.0);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "abc"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn shards_flag_is_rejected_as_unknown() {
        // Shards are a report view no experiment prints; the former flag
        // must fail loudly, not be ignored.
        for args in [&["--shards", "4"][..], &["--shards"][..]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown flag `--shards`"), "message: {err}");
        }
    }

    #[test]
    fn overlap_flag_is_rejected_as_unknown() {
        // Stages are never overlapped; the former flag must fail loudly, not
        // be ignored.
        let err = parse(&["--overlap"]).unwrap_err();
        assert!(err.contains("unknown flag `--overlap`"), "message: {err}");
    }

    #[test]
    fn selection_flag_is_rejected_as_unknown() {
        // How the Thompson arg-max is evaluated is decided by the chunk count;
        // the former knob must fail loudly, not be ignored.
        for args in [&["--selection", "class-max"][..], &["--selection"][..]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown flag `--selection`"), "message: {err}");
        }
    }

    #[test]
    fn former_flags_are_rejected_as_unknown() {
        // Engine knobs are set on the engine's own builder; the former
        // experiment flags must fail loudly, not be ignored.
        for args in [
            &["--parallel", "2"][..],
            &["--cache", "8"][..],
            &["--retries", "1"][..],
            &["--fault-rate", "0.1"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag `{}`", args[0])),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn a_flag_the_experiment_does_not_read_is_a_usage_error() {
        let flags = ["--full", "--trials 2", "--scale 0.5", "--seed 3"];
        let flags = flags
            .into_iter()
            .chain(["--checkpoint s", "--warm-start s", "--csv"]);
        // One column per flag above: Y = read, N = a usage error.
        let reads = [
            ("fig2", "YYNYNNY"),
            ("fig3", "YYNYYYY"),
            ("fig4", "YYNYYYY"),
            ("fig5", "YYYYYYY"),
            ("fig6", "YNYYNNY"),
            ("table1", "YNYYNNY"),
            ("variance-coverage", "YYYYNNY"),
            ("ablation-batching", "YYNYNNY"),
            ("ablation-policy", "YYNYNNY"),
            ("ablation-random-plus", "YYNYYYY"),
        ];
        assert_eq!(reads.len(), EXPERIMENTS.len());
        for (name, row) in reads {
            for (flag, read) in flags.clone().zip(row.chars()) {
                let args = format!("{name} {flag}");
                let args: Vec<&str> = args.split(' ').collect();
                match (parse_command(args.iter().map(|s| s.to_string())), read) {
                    (Ok((experiment, _)), 'Y') => assert_eq!(experiment.name, name),
                    (Err(err), 'N') => {
                        assert_eq!(err, format!("`repro {name}` does not read {}", args[1]))
                    }
                    (result, _) => panic!("repro {args:?}: {result:?}"),
                }
            }
        }
        let usage = |args: &[&str]| parse_command(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(usage(&[]).starts_with("usage: repro <fig2 | fig3 | fig4"));
        assert!(usage(&["fig7", "--trials", "2"]).starts_with("usage: repro <fig2"));
    }

    #[test]
    fn a_closed_stdout_ends_the_output_quietly() {
        let mut table = exsample_sim::Table::new(vec!["a", "b"]);
        table.push_row(vec!["1", "2"]);
        let report = Report {
            before: "# before\n\n".to_string(),
            table,
            after: "# after\n".to_string(),
        };
        let (fig6, options) = parse_command(["fig6".to_string()]).unwrap();
        let (reader, mut closed) = io::pipe().unwrap();
        drop(reader);
        assert!(print_report(&mut closed, fig6, &options, &report).is_ok());
        // Every other write error is returned.
        let err = print_report(&mut &mut [0u8; 8][..], fig6, &options, &report).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let mut out = Vec::new();
        print_report(&mut out, fig6, &options, &report).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "# Figure 6: chunk-level instance skew for representative queries\n\
             # mode: reduced (default)  seed: 7\n\n# before\n\na  b\n----\n1  2\n# after\n"
        );
    }

    #[test]
    fn merged_selection_telemetry_skips_runs_without_telemetry() {
        let result = |selection| exsample_sim::RunResult {
            method: "exsample".to_string(),
            frames_processed: 10,
            upfront_scan_frames: 0,
            distinct_found: 1,
            true_found: 1,
            total_instances: 2,
            found_instances: Vec::new(),
            trajectory: Vec::new(),
            scan_secs: 0.0,
            sample_secs: 0.0,
            selection,
            store: None,
        };
        let mut merged = None;
        merge_selection_telemetry(&mut merged, [&result(None)]);
        assert!(merged.is_none());
        assert_eq!(selection_telemetry_line(merged.as_ref()), "");
        let telemetry = exsample_engine::SelectionTelemetry {
            class_max_picks: 5,
            per_chunk_picks: 2,
            draws_saved: 100,
            class_count: 3,
        };
        merge_selection_telemetry(&mut merged, [&result(Some(telemetry)), &result(None)]);
        merge_selection_telemetry(&mut merged, [&result(Some(telemetry))]);
        let merged = merged.unwrap();
        assert_eq!(merged.class_max_picks, 10);
        assert_eq!(merged.per_chunk_picks, 4);
        assert_eq!(merged.draws_saved, 200);
        assert_eq!(merged.class_count, 3);
    }

    #[test]
    fn trials_zero_is_a_usage_error() {
        let err = parse(&["--trials", "0"]).unwrap_err();
        assert!(
            err.contains("--trials must be at least 1"),
            "message: {err}"
        );
        assert_eq!(parse(&["--trials", "1"]).unwrap().trials_or(5, 21), 1);
    }

    #[test]
    fn checkpoint_and_warm_start_flags_parse_and_validate() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.checkpoint, None);
        assert_eq!(defaults.warm_start, None);

        let durable = parse(&["--checkpoint", "/tmp/store", "--warm-start", "/tmp/prior"]).unwrap();
        assert_eq!(
            durable.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/store"))
        );
        assert_eq!(
            durable.warm_start.as_deref(),
            Some(std::path::Path::new("/tmp/prior"))
        );

        assert!(parse(&["--checkpoint"]).is_err());
        assert!(parse(&["--checkpoint", ""]).is_err());
        assert!(parse(&["--warm-start"]).is_err());
        assert!(parse(&["--warm-start", ""]).is_err());
        // The new flags appear in the --help listing.
        let help = parse(&["--help"]).unwrap_err();
        assert!(help.contains("--checkpoint PATH"), "help: {help}");
        assert!(help.contains("--warm-start PATH"), "help: {help}");
    }

    #[test]
    fn format_error_chain_walks_every_source() {
        let source = exsample_detect::DetectError::Permanent {
            frame: 7,
            message: "backend rejected the frame".to_string(),
        };
        let error = exsample_engine::EngineError::DetectorFailed {
            class: "car".to_string(),
            frame: 7,
            attempts: 2,
            source,
        };
        let line = format_error_chain(&error);
        assert!(line.contains("car"), "chain: {line}");
        assert!(line.contains("backend rejected the frame"), "chain: {line}");
        assert!(!line.contains('\n'), "chain must be one line: {line}");
    }
}
