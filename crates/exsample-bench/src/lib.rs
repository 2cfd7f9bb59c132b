//! # exsample-bench
//!
//! Shared infrastructure for the experiment binaries that regenerate the paper's
//! tables and figures (see `src/bin/`).  Performance is measured end to end,
//! and per layer, by the repository benchmark under `benchmark/`, not here.
//!
//! Every experiment binary accepts the same small set of command-line flags:
//!
//! * `--full` — run at the paper's full scale (16 M-frame simulations, full-size
//!   dataset analogs, 21 trials).  The default is a reduced configuration that
//!   reproduces the *shape* of each result in seconds rather than hours.
//! * `--trials N` — override the number of trials (`--trials 0` is rejected:
//!   every experiment needs at least one).
//! * `--scale X` — override the dataset scale factor (dataset-analog experiments).
//! * `--seed N` — root seed (default 7).
//! * `--checkpoint PATH` — persist every ExSample run's per-chunk posterior
//!   and query results to the durable belief store at PATH (crash-safe log +
//!   snapshot; a torn tail from a kill is recovered and reported on the next
//!   open).  Checkpointing is a pure observer: outcomes and the virtual
//!   clock are bitwise-identical to an uncheckpointed run.  Runner-driven
//!   bins only, and single-writer — combine with `--trials 1`.
//! * `--warm-start PATH` — seed every ExSample run's posterior from the
//!   belief store at PATH before sampling starts, instead of the uniform
//!   prior (runner-driven bins only).
//! * `--csv` — emit CSV instead of aligned text tables.
//!
//! The binaries print the regenerated table/figure data to stdout.
//!
//! The paper's experiments vary only the sampler, the data and the recall
//! target, so the engine's knobs (DETECT lanes, the detections cache) and
//! injected detector faults are not flags: every engine-driven binary runs
//! `QueryEngine::new()`, and a library caller sets a knob on the engine's
//! own builder.

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Command-line options shared by every experiment binary.
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
    /// Parse options from an argument iterator (typically `std::env::args().skip(1)`).
    ///
    /// Unknown flags produce an error string listing the supported flags.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut options = ExperimentOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => options.full = true,
                "--csv" => options.csv = true,
                "--trials" => {
                    let value = iter.next().ok_or("--trials requires a value")?;
                    let trials: usize = value
                        .parse()
                        .map_err(|_| format!("bad --trials value: {value}"))?;
                    if trials == 0 {
                        return Err("--trials must be at least 1".to_string());
                    }
                    options.trials = Some(trials);
                }
                "--scale" => {
                    let value = iter.next().ok_or("--scale requires a value")?;
                    let scale: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --scale value: {value}"))?;
                    if !exsample_data::DatasetAnalog::valid_scale(scale) {
                        return Err(format!(
                            "--scale must be in (0, {}], got {value}",
                            exsample_data::DatasetAnalog::MAX_SCALE
                        ));
                    }
                    options.scale = Some(scale);
                }
                "--seed" => {
                    let value = iter.next().ok_or("--seed requires a value")?;
                    options.seed = value
                        .parse()
                        .map_err(|_| format!("bad --seed value: {value}"))?;
                }
                "--checkpoint" => {
                    let value = iter
                        .next()
                        .ok_or("--checkpoint requires a directory path")?;
                    if value.is_empty() {
                        return Err("--checkpoint requires a non-empty path".to_string());
                    }
                    options.checkpoint = Some(std::path::PathBuf::from(value));
                }
                "--warm-start" => {
                    let value = iter
                        .next()
                        .ok_or("--warm-start requires a directory path")?;
                    if value.is_empty() {
                        return Err("--warm-start requires a non-empty path".to_string());
                    }
                    options.warm_start = Some(std::path::PathBuf::from(value));
                }
                "--help" | "-h" => {
                    return Err("supported flags: --full --trials N --scale X --seed N \
                         --checkpoint PATH --warm-start PATH --csv"
                        .to_string())
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        Ok(options)
    }

    /// Parse from the process arguments, printing the error and exiting on failure.
    pub fn from_env() -> Self {
        match ExperimentOptions::parse(std::env::args().skip(1)) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

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

    /// Apply the options' durability flags (`--checkpoint`, `--warm-start`)
    /// to a simulation [`exsample_sim::QueryRunner`] — the single place the
    /// runner-driven experiment bins pick them up.
    pub fn apply_to_runner<'d>(
        &self,
        mut runner: exsample_sim::QueryRunner<'d>,
    ) -> exsample_sim::QueryRunner<'d> {
        if let Some(path) = &self.checkpoint {
            runner = runner.checkpoint(path.clone());
        }
        if let Some(path) = &self.warm_start {
            runner = runner.warm_start(path.clone());
        }
        runner
    }
}

/// Print `error` and its full `source()` chain as one line on stderr and exit
/// nonzero — the experiment bins' replacement for `expect` on fallible runs,
/// so a failing detector produces a typed one-liner instead of a panic
/// backtrace.
pub(crate) fn exit_with_error_chain(error: &dyn std::error::Error) -> ! {
    eprintln!("error: {}", format_error_chain(error));
    std::process::exit(1);
}

/// Render `error` and its `source()` chain as a single `: `-separated line.
pub(crate) fn format_error_chain(error: &dyn std::error::Error) -> String {
    let mut message = error.to_string();
    let mut cursor = error.source();
    while let Some(next) = cursor {
        message.push_str(": ");
        message.push_str(&next.to_string());
        cursor = next.source();
    }
    message
}

/// Unwrap `result`, exiting with the error's full chain on failure.
pub fn ok_or_exit<T, E: std::error::Error>(result: Result<T, E>) -> T {
    match result {
        Ok(value) => value,
        Err(error) => exit_with_error_chain(&error),
    }
}

/// Print a table in the format selected by the options.
pub fn print_table(options: &ExperimentOptions, table: &exsample_sim::Table) {
    if options.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_plain());
    }
}

/// Print an experiment banner with its figure/table reference.
pub fn banner(reference: &str, description: &str, options: &ExperimentOptions) {
    println!("# {reference}: {description}");
    println!(
        "# mode: {}  seed: {}",
        if options.full {
            "full (paper scale)"
        } else {
            "reduced (default)"
        },
        options.seed
    );
    println!();
}

/// Merge the selection telemetry of every run in `results` into one summary
/// (None when no run carried telemetry, e.g. non-ExSample methods).
pub fn merged_selection_telemetry<'a, I>(results: I) -> Option<exsample_engine::SelectionTelemetry>
where
    I: IntoIterator<Item = &'a exsample_sim::RunResult>,
{
    let mut merged: Option<exsample_engine::SelectionTelemetry> = None;
    for result in results {
        if let Some(telemetry) = &result.selection {
            merged.get_or_insert_with(Default::default).merge(telemetry);
        }
    }
    merged
}

/// Print a one-line `#`-comment summary of merged dedup telemetry (hybrid-fold
/// vs per-chunk pick counts, Gamma draws saved, and the peak belief-class
/// count), or nothing when no run carried telemetry.  Bins whose runs go out
/// of scope per table cell accumulate with [`merged_selection_telemetry`] and
/// [`exsample_engine::SelectionTelemetry::merge`] and print here.
pub fn print_selection_telemetry(
    label: &str,
    telemetry: Option<&exsample_engine::SelectionTelemetry>,
) {
    if let Some(telemetry) = telemetry {
        println!(
            "# selection[{label}]: hybrid-fold picks {}, per-chunk picks {}, \
             gamma draws saved {}, peak classes {}",
            telemetry.class_max_picks,
            telemetry.per_chunk_picks,
            telemetry.draws_saved,
            telemetry.class_count
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentOptions, String> {
        ExperimentOptions::parse(args.iter().map(|s| s.to_string()))
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
        // Shards are a report view no bin prints; the former flag must fail
        // loudly, not be ignored.
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
        assert!(merged_selection_telemetry([&result(None)]).is_none());
        let telemetry = exsample_engine::SelectionTelemetry {
            class_max_picks: 5,
            per_chunk_picks: 2,
            draws_saved: 100,
            class_count: 3,
        };
        let merged = merged_selection_telemetry([
            &result(Some(telemetry)),
            &result(None),
            &result(Some(telemetry)),
        ])
        .unwrap();
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
